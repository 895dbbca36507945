package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"

	"adainf/internal/serving"
	"adainf/internal/telemetry"
)

var summaryType = reflect.TypeOf(telemetry.Summary{})

// digest hashes every simulated outcome in a serving.Result. Host-time
// fields (Measured*) and the telemetry histogram summaries, which are
// filled only when a run collects histograms, are left out, so the
// digest of an arm must repeat across rounds and between traced and
// untraced runs. Fields are read by reflection so that a Result field
// added or removed by a later change enters or leaves the digest
// without editing the benchmark.
func digest(res *serving.Result) string {
	h := fnv.New64a()
	v := reflect.ValueOf(res).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if strings.HasPrefix(f.Name, "Measured") || f.Type == summaryType {
			continue
		}
		fmt.Fprintf(h, "%s=%v;", f.Name, v.Field(i).Interface())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// resultInt reads an integer counter of a Result by name, 0 when the
// field does not exist. The fast-forward and plan-memo counters are
// read this way because the roadmap plans to delete those layers; the
// benchmark keeps building and reports 0 once they are gone.
func resultInt(res *serving.Result, name string) int64 {
	f := reflect.ValueOf(res).Elem().FieldByName(name)
	switch {
	case !f.IsValid():
		return 0
	case f.CanInt():
		return f.Int()
	case f.CanUint():
		return int64(f.Uint())
	}
	return 0
}

// checkArm validates one arm's Result against the arrivals the workload
// generated.
func checkArm(res *serving.Result, arrivals int) error {
	switch {
	case res.Requests <= 0:
		return fmt.Errorf("%s: no requests", res.Method)
	case !unit(res.MeanFinishRate):
		return fmt.Errorf("%s: finish rate %g outside [0,1]", res.Method, res.MeanFinishRate)
	case !unit(res.MeanAccuracy):
		return fmt.Errorf("%s: accuracy %g outside [0,1]", res.Method, res.MeanAccuracy)
	case res.Requests != arrivals:
		// Every arrival gets exactly one SLO outcome, served or missed
		// (shed requests are recorded as missed).
		return fmt.Errorf("%s: %d requests served or missed, %d arrived", res.Method, res.Requests, arrivals)
	case res.FaultShedRequests > res.Requests:
		return fmt.Errorf("%s: %d requests shed of %d", res.Method, res.FaultShedRequests, res.Requests)
	}
	return nil
}

func unit(x float64) bool { return !math.IsNaN(x) && x >= 0 && x <= 1 }
