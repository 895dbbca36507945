package serving

import (
	"bytes"
	"testing"
	"time"

	"adainf/internal/audit"
	"adainf/internal/baselines"
	"adainf/internal/core"
	"adainf/internal/sched"
	"adainf/internal/telemetry"
)

// laneConfig is the shared base of the multi-GPU lane tests: two apps
// sharded across lanes, retraining on, two periods.
func laneConfig(t *testing.T, ngpus int) Config {
	t.Helper()
	apps, profs := fixtures(t)
	return Config{
		Apps:               apps,
		Method:             core.New(core.Options{}),
		GPUs:               float64(ngpus),
		NGPUs:              ngpus,
		Horizon:            100 * time.Second,
		Seed:               19,
		RatePerApp:         150,
		Retraining:         true,
		DivergentSelection: true,
		PoolSamples:        2000,
		Profiles:           profs,
	}
}

// TestLaneRunCleanUnderAudit runs every method on a sharded server
// with the auditor accumulating: the full invariant catalog — now
// including the cluster-placement rule and the lane-divided share
// bound — must hold with zero violations, and the result must carry
// one utilization entry per lane.
func TestLaneRunCleanUnderAudit(t *testing.T) {
	methods := []struct {
		name  string
		build func() sched.Method
	}{
		{"adainf", func() sched.Method { return core.New(core.Options{}) }},
		{"ekya", func() sched.Method { return baselines.NewEkya() }},
		{"scrooge", func() sched.Method { return baselines.NewScrooge(false) }},
	}
	for _, ngpus := range []int{2, 4} {
		for _, m := range methods {
			var rep audit.Report
			cfg := laneConfig(t, ngpus)
			cfg.Method = m.build()
			cfg.AuditReport = &rep
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s ngpus=%d: %v", m.name, ngpus, err)
			}
			if rep.Total != 0 {
				t.Errorf("%s ngpus=%d: %v", m.name, ngpus, rep.Err())
			}
			if rep.Checks == 0 {
				t.Errorf("%s ngpus=%d: auditor performed no checks", m.name, ngpus)
			}
			if len(res.PerGPUUtilization) != ngpus {
				t.Errorf("%s ngpus=%d: %d utilization lanes", m.name, ngpus, len(res.PerGPUUtilization))
			}
			if res.Requests == 0 || res.Jobs == 0 {
				t.Errorf("%s ngpus=%d: served nothing (%d requests, %d jobs)",
					m.name, ngpus, res.Requests, res.Jobs)
			}
		}
	}
}

// TestSingleLaneResultShape pins the NGPUs ≤ 1 contract: no per-lane
// utilization series, exactly as every pre-sharding configuration.
func TestSingleLaneResultShape(t *testing.T) {
	cfg := laneConfig(t, 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerGPUUtilization != nil {
		t.Errorf("single-lane run reports per-GPU utilization: %v", res.PerGPUUtilization)
	}
}

// TestLaneTrace asserts a sharded run's decision trace carries the
// placement events and per-lane busy counters, validates against the
// schema, and — read-only telemetry — leaves metrics bit-identical.
func TestLaneTrace(t *testing.T) {
	plain := laneConfig(t, 2)
	rOff, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	tel := telemetry.New(telemetry.Options{Trace: &buf})
	traced := laneConfig(t, 2)
	traced.Telemetry = tel
	rOn, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	sameResult(t, "lane telemetry on vs off", rOff, rOn)

	counts, err := telemetry.Validate(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace schema: %v", err)
	}
	if counts[telemetry.EvPlacement] == 0 {
		t.Error("no placement events in sharded trace")
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"gpu0_busy_ms"`)) ||
		!bytes.Contains(buf.Bytes(), []byte(`"gpu1_busy_ms"`)) {
		t.Error("counters lack per-GPU busy fields")
	}
}
