package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"adainf/internal/app"
	"adainf/internal/faults"
	"adainf/internal/serving"
)

// shortConfigs are the test-sized versions of the workloads: the sparse
// rate, where fast-forward fires, and the failover topology, where
// lanes crash and the admission gate runs.
func shortConfigs(t *testing.T) (map[string]workload, []*app.App) {
	t.Helper()
	apps, err := app.CatalogN(nApps)
	if err != nil {
		t.Fatal(err)
	}
	sparse, _ := workloadByName("sparse")
	sparse.horizon = 100 * time.Second
	failover, _ := workloadByName("failover")
	failover.horizon = 200 * time.Second
	return map[string]workload{"sparse": sparse, "failover": failover}, apps
}

// TestWrapperTransparent runs every method wrapped, with the speed
// probe, and unwrapped, and requires identical outcomes, fast-forward
// hits and plan-memo counters.
// A wrapper that dropped the steady-state marker would switch
// fast-forward off, and the benchmark would measure another program.
func TestWrapperTransparent(t *testing.T) {
	ws, apps := shortConfigs(t)
	profiles, err := serving.BuildProfilesWith(apps, memStrategy(), newPolicy, serving.ProfileBuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, wname := range []string{"sparse", "failover"} {
		w := ws[wname]
		for _, method := range allMethods {
			run := func(wrapped bool) (*serving.Result, *timedMethod) {
				m, divergent, err := newMethod(method)
				if err != nil {
					t.Fatal(err)
				}
				var timer *timedMethod
				if wrapped {
					m, timer = wrap(m)
					timer.probe = newSpeedProbe()
				}
				res, err := serving.Run(w.config(3, apps, m, divergent, profiles))
				if err != nil {
					t.Fatalf("%s/%s wrapped=%v: %v", wname, method, wrapped, err)
				}
				return res, timer
			}
			plain, _ := run(false)
			res, timer := run(true)
			if got, want := digest(res), digest(plain); got != want {
				t.Errorf("%s/%s: wrapped digest %s, unwrapped %s", wname, method, got, want)
			}
			for _, f := range []string{"FastForwardHits", "PlanMemoHits", "PlanMemoMisses", "PlanMemoInvalidated"} {
				if got, want := resultInt(res, f), resultInt(plain, f); got != want {
					t.Errorf("%s/%s: wrapped %s %d, unwrapped %d", wname, method, f, got, want)
				}
			}
			if _, steady := timer.inner.(interface{ SteadyStatePlanning() }); steady && wname == "sparse" &&
				resultInt(plain, "FastForwardHits") == 0 {
				t.Errorf("%s/%s: no fast-forward hits, so the test cannot see a dropped marker", wname, method)
			}
			if timer.periodCalls == 0 || len(timer.sessions) == 0 || timer.probe.slices == 0 {
				t.Errorf("%s/%s: timer saw %d period and %d session calls, probe ran %d slices",
					wname, method, timer.periodCalls, len(timer.sessions), timer.probe.slices)
			}
		}
	}
}

// faultSchedule lists every fault decision of a run in a comparable form.
func faultSchedule(cfg serving.Config) []any {
	inj := faults.New(cfg.Faults)
	if inj == nil {
		return nil
	}
	var out []any
	perPeriod := cfg.Clock.SessionsPerPeriod()
	nPeriods := int(cfg.Horizon / cfg.Clock.Period)
	alive := uint64(1)<<uint(cfg.NGPUs) - 1
	for p := 0; p < nPeriods; p++ {
		var crashed, recovered []int
		alive, crashed, recovered = inj.LaneEvents(p, cfg.NGPUs, alive)
		out = append(out, alive, crashed, recovered)
		for _, a := range cfg.Apps {
			b, ok := inj.BurstFor(p, a.Name, perPeriod)
			seed, intensity, spike := inj.DriftSpike(p, a.Name)
			out = append(out, b, ok, seed, intensity, spike, inj.MemFail(p*perPeriod, a.Name))
		}
	}
	return out
}

// TestWorkloadPureFunctionOfSeed checks that a workload's inputs — the
// serving.Config, the fault schedule and the arrivals — repeat for a
// seed and change with it.
func TestWorkloadPureFunctionOfSeed(t *testing.T) {
	apps, err := app.CatalogN(nApps)
	if err != nil {
		t.Fatal(err)
	}
	inputs := func(w workload, seed int64) (serving.Config, []any, [][]int32) {
		cfg := w.config(seed, apps, nil, false, nil)
		arr, _, err := arrivals(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sched := faultSchedule(cfg)
		cfg.NewPolicy = nil // funcs compare equal only when nil
		return cfg, sched, arr
	}
	for _, w := range workloads {
		cfg1, sched1, arr1 := inputs(w, 1)
		cfg1b, sched1b, arr1b := inputs(w, 1)
		cfg2, sched2, arr2 := inputs(w, 2)
		if !reflect.DeepEqual(cfg1, cfg1b) || !reflect.DeepEqual(sched1, sched1b) || !reflect.DeepEqual(arr1, arr1b) {
			t.Errorf("%s: seed 1 gave different inputs on two calls", w.name)
		}
		if reflect.DeepEqual(cfg1, cfg2) || reflect.DeepEqual(arr1, arr2) {
			t.Errorf("%s: seeds 1 and 2 gave the same config or arrivals", w.name)
		}
		if w.failover && reflect.DeepEqual(sched1, sched2) {
			t.Errorf("%s: seeds 1 and 2 gave the same fault schedule", w.name)
		}
		if !w.failover && (sched1 != nil || sched2 != nil) {
			t.Errorf("%s: fault-free workload has a fault schedule", w.name)
		}
	}
}

// TestTraceSinkSplitLines feeds the sink a trace cut at every byte
// offset, as the collector's buffered writer may cut it.
func TestTraceSinkSplitLines(t *testing.T) {
	trace := `{"ts":0,"ev":"profile_unit","app":"a","node":"n","unit":"3","wall_ms":1.5}
{"ts":0,"ev":"evict","app":"a","model":"m","layer":1,"kind":0,"bytes":2000000,"score":0.5,"pin":true}
{"ts":5,"ev":"job","app":"a"}
{"ts":9,"ev":"admit","period":1,"gpu":0,"feasible":true,"fraction":0.5,"shed":0}
{"ts":9,"ev":"counters","ff_hits":4,"plan_hits":3,"plan_misses":7}
`
	for cut := 0; cut <= len(trace); cut++ {
		s := &traceSink{}
		for _, part := range []string{trace[:cut], trace[cut:]} {
			if _, err := s.Write([]byte(part)); err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
		}
		if len(s.unitMs) != 1 || s.unitMs[0] != 1.5 || s.evictions != 1 || s.pinned != 1 ||
			s.evictedBytes != 2000000 || s.admits != 1 || s.planHits != 3 || s.planMisses != 7 {
			t.Fatalf("cut %d: sink %+v", cut, s)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists printed by the
// command and declared in BENCHMARK.json the same.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, want)
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		code []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got []metric
		for _, m := range c.json {
			got = append(got, metric{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.code) {
			t.Errorf("BENCHMARK.json %s %v, command prints %v", c.kind, got, c.code)
		}
	}
}
