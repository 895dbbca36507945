package baselines

import (
	"testing"
	"time"

	"adainf/internal/app"
	"adainf/internal/dist"
	"adainf/internal/gpu"
	"adainf/internal/profile"
	"adainf/internal/sched"
	"adainf/internal/simtime"
)

var fxProfile *profile.AppProfile

func fixture(t testing.TB) (*app.Instance, *profile.AppProfile) {
	t.Helper()
	if fxProfile == nil {
		p, err := profile.BuildAppProfile(app.VideoSurveillance(), profile.Config{
			Strategy: gpu.Strategy{MaximizeUsage: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		fxProfile = p
	}
	inst, err := app.NewInstance(app.VideoSurveillance(), app.InstanceConfig{Seed: 5, PoolSamples: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		inst.AdvancePeriod(0)
	}
	return inst, fxProfile
}

func periodCtx(t *testing.T, inst *app.Instance, prof *profile.AppProfile) *sched.PeriodContext {
	t.Helper()
	return &sched.PeriodContext{
		Period: inst.Period(),
		Start:  0,
		Length: 50 * time.Second,
		GPUs:   4,
		Rand:   dist.NewRNG(11),
		Jobs:   []sched.JobRequest{{Instance: inst, Profile: prof}},
	}
}

func TestEkyaName(t *testing.T) {
	if NewEkya().Name() != "Ekya" {
		t.Fatal("name")
	}
}

func TestEkyaPeriodPlanRetrainsEveryNode(t *testing.T) {
	inst, prof := fixture(t)
	e := NewEkya()
	plan, err := e.OnPeriodStart(periodCtx(t, inst, prof))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Overhead != EkyaOverhead {
		t.Fatalf("overhead = %v, want 8.4s (Table 1)", plan.Overhead)
	}
	// Ekya retrains every model, drift-aware or not (§3.2 contrast).
	nodes := make(map[string]bool)
	for _, r := range plan.Retrains {
		nodes[r.Node] = true
		if r.OnCloud {
			t.Fatal("Ekya retrains on the edge")
		}
		if r.Samples <= 0 || r.GPUFraction <= 0 || r.Busy <= 0 {
			t.Fatalf("degenerate retrain: %+v", r)
		}
		// Completions land within the period and after the 8.4 s
		// scheduling decision (Fig. 7b: 20–23 s region).
		if r.Completion.Duration() < EkyaOverhead {
			t.Fatalf("completion %v before scheduling finished", r.Completion)
		}
		if r.Completion.Duration() > 50*time.Second {
			t.Fatalf("completion %v outside the period", r.Completion)
		}
	}
	if len(nodes) != 3 {
		t.Fatalf("Ekya retrained %d of 3 nodes", len(nodes))
	}
	if e.RetrainShare() <= 0 {
		t.Fatal("no retrain share chosen")
	}
}

func TestEkyaSessionPlanEqualSplit(t *testing.T) {
	inst, prof := fixture(t)
	inst2, err := app.NewInstance(app.BikeRackOccupancy(), app.InstanceConfig{Seed: 6, PoolSamples: 2000})
	if err != nil {
		t.Fatal(err)
	}
	prof2, err := profile.BuildAppProfile(app.BikeRackOccupancy(), profile.Config{
		Strategy: gpu.Strategy{MaximizeUsage: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEkya()
	ctx := &sched.SessionContext{
		GPUShare: 0.4,
		Jobs: []sched.JobRequest{
			{Instance: inst, Profile: prof, Requests: 32},
			{Instance: inst2, Profile: prof2, Requests: 1},
		},
	}
	plan, err := e.PlanSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Jobs[0].Fraction != plan.Jobs[1].Fraction {
		t.Fatalf("Ekya split unequal: %v vs %v", plan.Jobs[0].Fraction, plan.Jobs[1].Fraction)
	}
	for _, jp := range plan.Jobs {
		for _, np := range jp.Nodes {
			if !np.Structure.IsFull() {
				t.Fatal("Ekya used an early exit")
			}
			if np.RetrainTime != 0 {
				t.Fatal("Ekya planned incremental retraining")
			}
		}
	}
}

func TestScroogeName(t *testing.T) {
	if NewScrooge(false).Name() != "Scrooge" || NewScrooge(true).Name() != "Scrooge*" {
		t.Fatal("names")
	}
}

func TestScroogeCloudRetraining(t *testing.T) {
	inst, prof := fixture(t)
	s := NewScrooge(false)
	plan, err := s.OnPeriodStart(periodCtx(t, inst, prof))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Retrains) != 3 {
		t.Fatalf("retrains = %d", len(plan.Retrains))
	}
	for _, r := range plan.Retrains {
		if !r.OnCloud || r.GPUFraction != 0 {
			t.Fatalf("Scrooge retrain not on cloud: %+v", r)
		}
	}
	if plan.EdgeCloudBytes == 0 || plan.EdgeCloudTransfer == 0 {
		t.Fatal("no WAN accounting (Table 1)")
	}
	tr, bytes := s.LastTransfer()
	if tr != plan.EdgeCloudTransfer || bytes != plan.EdgeCloudBytes {
		t.Fatal("LastTransfer mismatch")
	}
}

func TestScroogeSolveCacheWindow(t *testing.T) {
	inst, prof := fixture(t)
	s := NewScrooge(false)
	jobs := []sched.JobRequest{{Instance: inst, Profile: prof, Requests: 8}}
	first, err := s.PlanSession(&sched.SessionContext{Session: 0, Start: 0, GPUShare: 0.5, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if first.Overhead != ScroogeOverhead {
		t.Fatalf("solve overhead = %v, want 100ms (Table 1)", first.Overhead)
	}
	// Sessions inside the same 100 ms window reuse the solve.
	second, err := s.PlanSession(&sched.SessionContext{
		Session: 1, Start: simtime.Instant(5 * time.Millisecond), GPUShare: 0.5, Jobs: jobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.Overhead != 0 {
		t.Fatal("cached session re-charged the solve")
	}
	if second.Jobs[0].Fraction != first.Jobs[0].Fraction {
		t.Fatal("cached plan diverged")
	}
	// A new window re-solves.
	third, err := s.PlanSession(&sched.SessionContext{
		Session: 21, Start: simtime.Instant(105 * time.Millisecond), GPUShare: 0.5, Jobs: jobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if third.Overhead != ScroogeOverhead {
		t.Fatal("new window did not re-solve")
	}
}

func TestScroogeStarProportionalScaling(t *testing.T) {
	inst, prof := fixture(t)
	inst2, err := app.NewInstance(app.VideoSurveillance(), app.InstanceConfig{Seed: 8, PoolSamples: 2000})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []sched.JobRequest{
		{Instance: inst, Profile: prof, Requests: 64},
		{Instance: inst2, Profile: prof, Requests: 64},
	}
	// A tiny share forces the capacity constraint to bind.
	ctx := func() *sched.SessionContext {
		return &sched.SessionContext{GPUShare: 0.3, Jobs: append([]sched.JobRequest(nil), jobs...)}
	}
	star, err := NewScrooge(true).PlanSession(ctx())
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := NewScrooge(false).PlanSession(ctx())
	if err != nil {
		t.Fatal(err)
	}
	// Scrooge* scales both jobs down proportionally (identical demand →
	// identical grant); greedy Scrooge favours the first job.
	if star.Jobs[0].Fraction != star.Jobs[1].Fraction {
		t.Fatalf("Scrooge* fractions: %v vs %v", star.Jobs[0].Fraction, star.Jobs[1].Fraction)
	}
	if greedy.Jobs[0].Fraction < greedy.Jobs[1].Fraction {
		t.Fatalf("greedy Scrooge fractions: %v vs %v", greedy.Jobs[0].Fraction, greedy.Jobs[1].Fraction)
	}
}

// TestScroogeSolveCachePerLane: on a sharded server one Scrooge plans
// every lane in turn. Each lane must solve once per 100 ms window and
// then replay its own plan, even when the lanes interleave and carry
// equal job counts; a replay allocates nothing, and a new period
// invalidates every lane's solve.
func TestScroogeSolveCachePerLane(t *testing.T) {
	inst, prof := fixture(t)
	s := NewScrooge(false)
	shares := []float64{0.05, 0.5} // lane 0 binds the capacity cap, lane 1 does not
	plan := func(lane, session int) *sched.SessionPlan {
		t.Helper()
		p, err := s.PlanSession(&sched.SessionContext{
			Session:  session,
			Start:    simtime.Instant(time.Duration(session) * 5 * time.Millisecond),
			GPUShare: shares[lane],
			GPU:      lane,
			Jobs:     []sched.JobRequest{{Instance: inst, Profile: prof, Requests: 64}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	first := []*sched.SessionPlan{plan(0, 0), plan(1, 0)}
	for lane, p := range first {
		if p.Overhead != ScroogeOverhead {
			t.Fatalf("lane %d first solve overhead = %v, want %v", lane, p.Overhead, ScroogeOverhead)
		}
	}
	if first[0].Jobs[0].Fraction == first[1].Jobs[0].Fraction {
		t.Fatalf("lanes solved equal fractions %v; the shares must tell them apart", first[0].Jobs[0].Fraction)
	}
	for session := 1; session < 3; session++ {
		for lane := range shares {
			p := plan(lane, session)
			if p.Overhead != 0 {
				t.Errorf("lane %d session %d re-charged the solve (%v)", lane, session, p.Overhead)
			}
			if got, want := p.Jobs[0].Fraction, first[lane].Jobs[0].Fraction; got != want {
				t.Errorf("lane %d session %d replayed fraction %v, want its own %v", lane, session, got, want)
			}
			if p.Session != session {
				t.Errorf("lane %d replay carries session %d, want %d", lane, p.Session, session)
			}
		}
	}
	// A replay hands out the lane's reused plan: it allocates nothing.
	replayCtx := &sched.SessionContext{
		Session: 2, Start: simtime.Instant(10 * time.Millisecond), GPUShare: shares[1], GPU: 1,
		Jobs: []sched.JobRequest{{Instance: inst, Profile: prof, Requests: 64}},
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.PlanSession(replayCtx); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a replayed session allocates %v times, want 0", allocs)
	}
	if _, err := s.OnPeriodStart(periodCtx(t, inst, prof)); err != nil {
		t.Fatal(err)
	}
	for lane := range shares {
		if p := plan(lane, 3); p.Overhead != ScroogeOverhead {
			t.Errorf("lane %d after OnPeriodStart: overhead %v, want a fresh solve", lane, p.Overhead)
		}
	}
}

// BenchmarkScroogePlanSession plans the 20 sessions of one 100 ms
// window on each of 4 lanes (lanes interleaved within a session, as
// the serving loop calls them); every iteration is a new window.
func BenchmarkScroogePlanSession(b *testing.B) {
	inst, prof := fixture(b)
	const lanes, sessions = 4, int(ScroogeOverhead / (5 * time.Millisecond))
	s := NewScrooge(false)
	ctx := &sched.SessionContext{Jobs: make([]sched.JobRequest, 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < sessions; k++ {
			session := i*sessions + k
			for g := 0; g < lanes; g++ {
				ctx.Session = session
				ctx.Start = simtime.Instant(time.Duration(session) * 5 * time.Millisecond)
				ctx.GPU = g
				ctx.GPUShare = 0.1 * float64(g+1)
				ctx.Jobs[0] = sched.JobRequest{Instance: inst, Profile: prof, Requests: 16 + 8*g}
				if _, err := s.PlanSession(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
