package serving

import (
	"testing"
	"time"

	"adainf/internal/app"
	"adainf/internal/audit"
	"adainf/internal/baselines"
	"adainf/internal/core"
	"adainf/internal/gpu"
	"adainf/internal/gpumem"
	"adainf/internal/mathx"
	"adainf/internal/profile"
	"adainf/internal/sched"
)

// Shared fixtures: profiles are the expensive part, build once.
var (
	vsApps     []*app.App
	vsProfiles map[string]*profile.AppProfile
)

func fixtures(t *testing.T) ([]*app.App, map[string]*profile.AppProfile) {
	t.Helper()
	if vsProfiles == nil {
		vsApps = []*app.App{app.VideoSurveillance(), app.BikeRackOccupancy()}
		p, err := BuildProfiles(vsApps, gpu.Strategy{MaximizeUsage: true},
			func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} })
		if err != nil {
			t.Fatal(err)
		}
		vsProfiles = p
	}
	return vsApps, vsProfiles
}

func shortRun(t *testing.T, m sched.Method, retrain bool) *Result {
	t.Helper()
	apps, profs := fixtures(t)
	res, err := Run(Config{
		Apps:               apps,
		Method:             m,
		GPUs:               4,
		Horizon:            150 * time.Second, // 3 periods
		Seed:               42,
		RatePerApp:         150,
		Retraining:         retrain,
		DivergentSelection: retrain,
		PoolSamples:        2000,
		Profiles:           profs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunProducesMetrics(t *testing.T) {
	res := shortRun(t, core.New(core.Options{}), true)
	if res.Method != "AdaInf" {
		t.Fatalf("method = %q", res.Method)
	}
	if res.Requests == 0 || res.Jobs == 0 {
		t.Fatal("no work simulated")
	}
	if len(res.PeriodAccuracy) != 3 {
		t.Fatalf("periods = %d", len(res.PeriodAccuracy))
	}
	if res.MeanAccuracy <= 0.5 || res.MeanAccuracy > 1 {
		t.Fatalf("accuracy = %v", res.MeanAccuracy)
	}
	if res.MeanFinishRate <= 0.5 || res.MeanFinishRate > 1 {
		t.Fatalf("finish rate = %v", res.MeanFinishRate)
	}
	if res.MeanInferLatencyMs <= 0 {
		t.Fatal("no inference latency recorded")
	}
	if u := mathx.MeanOf(res.UtilizationPerSec); u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
	if res.SessionOverhead != core.DefaultOverhead {
		t.Fatalf("session overhead = %v", res.SessionOverhead)
	}
	if res.PeriodOverhead != core.DAGUpdateOverhead {
		t.Fatalf("period overhead = %v", res.PeriodOverhead)
	}
}

func TestRetrainingImprovesAccuracy(t *testing.T) {
	with := shortRun(t, core.New(core.Options{}), true)
	without := shortRun(t, core.New(core.Options{Label: "NoRetrain"}), false)
	if without.MeanRetrainLatencyMs != 0 {
		t.Fatal("no-retraining run retrained")
	}
	// Observation 1 / Fig. 4a: retraining must help, and the gap widens
	// in the later (more drifted) periods.
	if with.MeanAccuracy <= without.MeanAccuracy {
		t.Fatalf("retraining did not help: %v vs %v", with.MeanAccuracy, without.MeanAccuracy)
	}
	last := len(with.PeriodAccuracy) - 1
	if with.PeriodAccuracy[last] <= without.PeriodAccuracy[last] {
		t.Fatalf("late-period gap missing: %v vs %v",
			with.PeriodAccuracy[last], without.PeriodAccuracy[last])
	}
}

// TestRunDeterministicForSeed asserts a serving run is a pure function
// of its configuration: repeated audited runs of AdaInf and Ekya, on
// one GPU partition and sharded across two lanes, are bit-identical,
// per-lane utilization included.
func TestRunDeterministicForSeed(t *testing.T) {
	apps, profs := fixtures(t)
	single := Config{
		Apps:               apps,
		GPUs:               4,
		Horizon:            100 * time.Second,
		Seed:               11,
		RatePerApp:         150,
		Retraining:         true,
		DivergentSelection: true,
		PoolSamples:        2000,
		Profiles:           profs,
	}
	servers := []struct {
		name string
		cfg  Config
	}{{"one partition", single}, {"two lanes", laneConfig(t, 2)}}
	methods := []struct {
		name  string
		build func() sched.Method
	}{
		{"adainf", func() sched.Method { return core.New(core.Options{}) }},
		{"ekya", func() sched.Method { return baselines.NewEkya() }},
	}
	for _, m := range methods {
		for _, srv := range servers {
			run := func() *Result {
				t.Helper()
				cfg := srv.cfg
				cfg.Method = m.build()
				cfg.Audit = true
				r, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s on %s: %v", m.name, srv.name, err)
				}
				return r
			}
			a, b := run(), run()
			sameResult(t, m.name+" on "+srv.name, a, b)
			if n := srv.cfg.NGPUs; n > 1 && len(a.PerGPUUtilization) != n {
				t.Errorf("%s on %s: %d lane utilizations", m.name, srv.name, len(a.PerGPUUtilization))
			}
		}
	}
}

// The share-halving wrappers embed a scheduler, so each carries exactly
// its scheduler's method set (markers included), and halve the
// session's GPU share after planning: the auditor then sees a plan
// sized for twice the share it is told, but within capacity.
type (
	halfShareAdaInf  struct{ *core.Scheduler }
	halfShareEkya    struct{ *baselines.Ekya }
	halfShareScrooge struct{ *baselines.Scrooge }
)

func planHalvingShare(s sched.Scheduler, ctx *sched.SessionContext) (*sched.SessionPlan, error) {
	plan, err := s.PlanSession(ctx)
	ctx.GPUShare /= 2
	return plan, err
}

func (h halfShareAdaInf) PlanSession(ctx *sched.SessionContext) (*sched.SessionPlan, error) {
	return planHalvingShare(h.Scheduler, ctx)
}

func (h halfShareEkya) PlanSession(ctx *sched.SessionContext) (*sched.SessionPlan, error) {
	return planHalvingShare(h.Ekya, ctx)
}

func (h halfShareScrooge) PlanSession(ctx *sched.SessionContext) (*sched.SessionPlan, error) {
	return planHalvingShare(h.Scrooge, ctx)
}

// TestAuditShareBound pins which bound the share-sum audit applies:
// AdaInf and Ekya plan every session afresh, so their fraction sums are
// checked against the session's share and a plan oversubscribing it is
// flagged; Scrooge reuses one solve across its window, so its sums are
// checked against capacity and the same oversubscription passes.
func TestAuditShareBound(t *testing.T) {
	apps, profs := fixtures(t)
	for _, tc := range []struct {
		name   string
		method sched.Method
		strict bool
	}{
		{"adainf", halfShareAdaInf{core.New(core.Options{})}, true},
		{"ekya", halfShareEkya{baselines.NewEkya()}, true},
		{"scrooge", halfShareScrooge{baselines.NewScrooge(false)}, false},
	} {
		var rep audit.Report
		_, err := Run(Config{
			Apps:               apps,
			Method:             tc.method,
			GPUs:               4,
			Horizon:            50 * time.Second,
			Seed:               11,
			RatePerApp:         150,
			Retraining:         true,
			DivergentSelection: true,
			PoolSamples:        2000,
			Profiles:           profs,
			AuditReport:        &rep,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		shareViolations := 0
		for _, v := range rep.Violations {
			if v.Rule == audit.RuleShareSum {
				shareViolations++
			}
		}
		if tc.strict && shareViolations == 0 {
			t.Errorf("%s: plans oversubscribing the session share passed the audit; "+
				"its fraction sums are checked against capacity", tc.name)
		}
		if !tc.strict && shareViolations != 0 {
			t.Errorf("%s: %d share-sum violations under the capacity bound: %v",
				tc.name, shareViolations, rep.Err())
		}
	}
}

func TestEkyaRunsAndReportsTransferFree(t *testing.T) {
	res := shortRun(t, baselines.NewEkya(), true)
	if res.EdgeCloudBytes != 0 {
		t.Fatal("Ekya transferred to the cloud")
	}
	if res.PeriodOverhead != baselines.EkyaOverhead {
		t.Fatalf("Ekya overhead = %v", res.PeriodOverhead)
	}
	// Ekya retrains whole pools: updated-model fraction must be well
	// below 100% (Fig. 4b: 53–60% in the paper).
	upd := mathx.MeanOf(res.UpdatedModelFraction)
	if upd <= 0.05 || upd >= 0.95 {
		t.Fatalf("Ekya updated-model fraction = %v", upd)
	}
}

func TestScroogeReportsWANTransfer(t *testing.T) {
	res := shortRun(t, baselines.NewScrooge(false), true)
	if res.EdgeCloudBytes == 0 || res.EdgeCloudTransfer == 0 {
		t.Fatal("Scrooge reported no WAN transfer (Table 1)")
	}
}

func TestBuildProfilesSharedAcrossClones(t *testing.T) {
	apps, err := app.CatalogN(10)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := BuildProfiles(apps[:2], gpu.Strategy{MaximizeUsage: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 2 {
		t.Fatalf("profiles = %d", len(profs))
	}
}

// TestBuildProfilesWithParallelMatchesSerial pins the cross-app
// parallel path: distinct apps built concurrently produce the same
// profiles as the serial walk, and clone dedup still shares the built
// profile by pointer.
func TestBuildProfilesWithParallelMatchesSerial(t *testing.T) {
	clone := *app.VideoSurveillance()
	clone.Name = "video-surveillance-2"
	apps := []*app.App{app.VideoSurveillance(), app.BikeRackOccupancy(), &clone}
	strat := gpu.Strategy{MaximizeUsage: true}
	policy := func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} }

	serial, err := BuildProfilesWith(apps, strat, policy, ProfileBuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildProfilesWith(apps, strat, policy, ProfileBuildOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(serial) {
		t.Fatalf("parallel built %d profiles, serial %d", len(par), len(serial))
	}
	for name, sp := range serial {
		pp, ok := par[name]
		if !ok {
			t.Fatalf("parallel build missing %q", name)
		}
		if pp.MemDigest != sp.MemDigest {
			t.Errorf("%s: MemDigest %#x (parallel) vs %#x (serial)", name, pp.MemDigest, sp.MemDigest)
		}
	}
	if par["video-surveillance-2"] != par["video-surveillance"] {
		t.Error("clone no longer shares its base app's profile under the parallel build")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("nil method accepted")
	}
	if _, err := Run(Config{Method: core.New(core.Options{}), GPUs: -1}); err == nil {
		t.Fatal("negative GPUs accepted")
	}
	// The lane-liveness mask has one bit per lane.
	if _, err := Run(Config{Method: core.New(core.Options{}), NGPUs: 65}); err == nil {
		t.Fatal("65 GPU lanes accepted")
	}
	widest := Config{Method: core.New(core.Options{}), NGPUs: 64}
	if err := widest.fillDefaults(); err != nil {
		t.Fatalf("64 GPU lanes rejected: %v", err)
	}
}

func TestMemoryVariantProfilesDiffer(t *testing.T) {
	// The /M1 configuration (no MaximizeUsage) must produce slower
	// profiles under memory pressure, which is how the ablation's
	// effect reaches the scheduler.
	apps := []*app.App{app.VideoSurveillance()}
	ada, err := BuildProfiles(apps, gpu.Strategy{MaximizeUsage: true},
		func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} })
	if err != nil {
		t.Fatal(err)
	}
	m1, err := BuildProfiles(apps, gpu.Strategy{MaximizeUsage: false},
		func() gpumem.Policy { return gpumem.PriorityPolicy{Alpha: 0.4} })
	if err != nil {
		t.Fatal(err)
	}
	adaSp := ada["video-surveillance"].Structures["object-detection"]
	m1Sp := m1["video-surveillance"].Structures["object-detection"]
	adaLat, err := adaSp[len(adaSp)-1].PerBatch(16, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	m1Lat, err := m1Sp[len(m1Sp)-1].PerBatch(16, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if m1Lat <= adaLat {
		t.Fatalf("/M1 per-batch %v not slower than AdaInf %v", m1Lat, adaLat)
	}
}
