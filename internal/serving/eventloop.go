package serving

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"adainf/internal/admit"
	"adainf/internal/audit"
	"adainf/internal/cluster"
	"adainf/internal/eventsim"
	"adainf/internal/faults"
	"adainf/internal/gpu"
	"adainf/internal/metrics"
	"adainf/internal/sched"
	"adainf/internal/simtime"
	"adainf/internal/telemetry"
)

// runLoop drives one serving simulation on the discrete-event engine.
// Instead of visiting every 5 ms session, it schedules exactly three
// kinds of events: period boundaries, whole-pool retraining
// completions, and request-bearing ("work") sessions. Empty sessions —
// the overwhelming majority at realistic request rates — are never
// visited; their only observable effect in the session loop was
// advancing the per-app arrival generators and predictors, which the
// period-boundary handler precomputes in one pass.
//
// Event ordering reproduces the session loop bit for bit:
//
//   - A retraining completion applies at the first session whose start
//     is not before the completion instant, in period-plan order among
//     completions landing in the same session (see retrainHeap). The
//     completion event is scheduled at that session's start and, being
//     scheduled earlier, fires before the work event at the same
//     instant (the engine is FIFO within an instant).
//   - Retrains whose apply session falls beyond their period's last
//     session are discarded at the next boundary, exactly as the
//     session loop's cleared pending list never applied them.
//   - The shared RNG is drawn only at period starts (drift detection)
//     and inside work sessions (request scoring), so skipping empty
//     sessions leaves the stream untouched.
type runLoop struct {
	cfg    *Config
	states []*appState
	byName map[string]*appState
	rec    *metrics.Recorder
	res    *Result
	rng    *rand.Rand

	eng               *eventsim.Engine
	nSessions         int
	sessionsPerPeriod int

	ewmaTa time.Duration
	ctx    *sched.SessionContext

	// Multi-GPU lane state (NGPUs > 1 only; all nil/zero on the
	// single-partition path, which stays byte-identical to a build
	// without lanes).
	topo      cluster.Topology
	place     *cluster.Placement
	appNames  []string
	appIdx    map[string]int
	wsBytes   []int64   // per-app profiled working set, fixed for the run
	loadBuf   []float64 // scratch: per-app predicted load this period
	lastRanks []int     // previous period's load ranking
	laneOf    []int     // per-app lane under the current placement
	laneApps  [][]int   // per-lane app indexes, states order
	laneBusy  []float64 // scratch: per-lane retrain busy this session
	laneShare []float64 // scratch: per-lane quantized share this session
	// gpuBusySec accumulates each lane's busy GPU-amount-seconds for
	// Result.PerGPUUtilization; curLane tells runJob which lane the job
	// it is executing runs on.
	gpuBusySec []float64
	curLane    int

	// maxSpan is the longest job span (session start to completion,
	// lead included) observed so far. It bounds how many session spans
	// can overlap one instant, which in turn bounds legitimate raw GPU
	// utilization — see audit.OnUtilization.
	maxSpan simtime.Duration

	// Period-scoped state, rebuilt by each periodStart.
	periodFirst int
	periodLast  int
	retrains    []pendingRetrain // the period plan's retrains, plan order
	heap        retrainHeap
	// actual/predicted hold the whole period's arrivals per app
	// ([app][session-in-period]); work marks sessions with any work.
	actual    [][]int
	predicted [][]int
	work      []bool
	drainAt   []int // scratch: sessions with pending retrain applications

	// flt, when non-nil, is the deterministic fault injector
	// (Config.Faults). Every decision it hands out is a pure hash of
	// the fault seed and stable coordinates, so the loop consults it
	// freely without perturbing the shared RNG stream.
	flt *faults.Injector
	// memFault holds the current session's per-app memory-fault
	// decisions (faults.Injector.MemFailGPU). The incremental retraining
	// decisions are rolled where they are used, in runJob.
	memFault []bool
	// faultBusy records the GPU busy windows of failed whole-pool
	// retraining attempts for the current period, in plan order; they
	// join the pending retrains in the session GPU-share computation.
	faultBusy []busyWindow

	// Lane-liveness and admission state (gpu-crash faults on a sharded
	// server; admitCap is nil otherwise and every path below stays
	// byte-identical to a build without lane faults). alive is the
	// current liveness mask, maskDirty forces a failover re-pack at the
	// boundary that changed it, unplacedIdx lists the state indexes the
	// re-pack could not fit on any surviving lane (ascending), and the
	// admit* slices carry the period's SLO-feasibility gate decisions:
	// per-app per-session request caps (-1 = uncapped), the admitted GPU
	// fraction, the degraded-serving flag (smallest structures, no
	// retraining slice), and suspended whole-pool retraining.
	alive          uint64
	maskDirty      bool
	unplacedIdx    []int
	admitCap       []int
	admitFrac      []float64
	admitDegraded  []bool
	suspendRetrain []bool

	// aud, when non-nil, validates every event against the invariant
	// catalog (see internal/audit). It is read-only: it never touches
	// the RNG or simulation state, so metrics stay bit-identical.
	aud *audit.Auditor

	// tel is the run's telemetry collector (nil no-op by default).
	// Like the auditor it is strictly read-only: a traced run produces
	// bit-identical metrics to an untraced one.
	tel *telemetry.Collector

	// err stashes the first failure: engine handlers cannot return
	// errors, so every handler no-ops once it is set.
	err error
}

func newRunLoop(cfg *Config, states []*appState, rec *metrics.Recorder, res *Result, rng *rand.Rand) *runLoop {
	l := &runLoop{
		cfg:               cfg,
		states:            states,
		byName:            make(map[string]*appState, len(states)),
		rec:               rec,
		res:               res,
		rng:               rng,
		eng:               eventsim.New(),
		nSessions:         int(cfg.Horizon / cfg.Clock.Session),
		sessionsPerPeriod: cfg.Clock.SessionsPerPeriod(),
		ewmaTa:            50 * time.Millisecond,
		tel:               cfg.Telemetry,
		ctx: &sched.SessionContext{
			Jobs: make([]sched.JobRequest, 0, len(states)),
		},
	}
	for _, st := range states {
		l.byName[st.inst.App.Name] = st
	}
	if cfg.NGPUs > 1 {
		l.topo = cluster.Topology{NGPUs: cfg.NGPUs, PerGPUBytes: gpu.V100().MemBytes}
		l.alive = cluster.AllAlive(cfg.NGPUs)
		l.appNames = make([]string, len(states))
		l.appIdx = make(map[string]int, len(states))
		l.wsBytes = make([]int64, len(states))
		l.loadBuf = make([]float64, len(states))
		l.laneOf = make([]int, len(states))
		l.laneApps = make([][]int, cfg.NGPUs)
		l.laneBusy = make([]float64, cfg.NGPUs)
		l.laneShare = make([]float64, cfg.NGPUs)
		l.gpuBusySec = make([]float64, cfg.NGPUs)
		for i, st := range states {
			l.appNames[i] = st.inst.App.Name
			l.appIdx[st.inst.App.Name] = i
			// The app's GPU working set: every node resident at its full
			// structure plus its peak activation (the placement-relevant
			// upper bound; serving may run smaller structures).
			for _, ni := range st.inst.Nodes() {
				full := ni.FullStructure()
				l.wsBytes[i] += full.ParamBytes() + full.PeakActivationBytes()
			}
		}
		l.tel.EnableGPUCounters(cfg.NGPUs)
	}
	l.actual = make([][]int, len(states))
	l.predicted = make([][]int, len(states))
	for i := range states {
		l.actual[i] = make([]int, l.sessionsPerPeriod)
		l.predicted[i] = make([]int, l.sessionsPerPeriod)
	}
	l.work = make([]bool, l.sessionsPerPeriod)
	if l.flt = faults.New(cfg.Faults); l.flt != nil {
		l.memFault = make([]bool, len(states))
		if cfg.NGPUs > 1 && l.flt.Config().GPUCrash > 0 {
			l.admitCap = make([]int, len(states))
			l.admitFrac = make([]float64, len(states))
			l.admitDegraded = make([]bool, len(states))
			l.suspendRetrain = make([]bool, len(states))
			for i := range l.admitCap {
				l.admitCap[i] = -1
			}
		}
	}
	if cfg.Audit || cfg.AuditReport != nil {
		// A method that plans every session afresh sizes its fractions
		// against that session's share, so their sum audits against it
		// strictly; a window planner's reused plans audit against
		// capacity.
		_, window := cfg.Method.(sched.WindowPlanner)
		l.aud = audit.New(cfg.AuditReport, audit.Params{
			GPUs:        cfg.GPUs,
			NGPUs:       cfg.NGPUs,
			PerGPUBytes: l.topo.PerGPUBytes,
			StrictShare: !window,
		})
	}
	return l
}

func (l *runLoop) fail(err error) {
	if l.err == nil {
		l.err = err
	}
}

func (l *runLoop) run() error {
	nPeriods := (l.nSessions + l.sessionsPerPeriod - 1) / l.sessionsPerPeriod
	for p := 0; p < nPeriods; p++ {
		p := p
		l.eng.Schedule(l.cfg.Clock.PeriodStart(p), "period",
			func(simtime.Instant) { l.periodStart(p) })
	}
	l.eng.RunUntil(l.cfg.Clock.SessionStart(l.nSessions))
	if l.aud != nil {
		if err := l.aud.Finish(); err != nil {
			l.fail(err)
		}
		over, windows := l.rec.UtilizationOvershoot()
		overlap := int(l.maxSpan/l.cfg.Clock.Session) + 1
		if err := l.aud.OnUtilization(over, windows, overlap); err != nil {
			l.fail(err)
		}
		l.res.AuditChecks = l.aud.Checks()
	}
	if l.gpuBusySec != nil {
		laneSec := l.cfg.Horizon.Seconds() * l.cfg.GPUs / float64(l.cfg.NGPUs)
		l.res.PerGPUUtilization = make([]float64, len(l.gpuBusySec))
		if laneSec > 0 {
			for g, busy := range l.gpuBusySec {
				l.res.PerGPUUtilization[g] = busy / laneSec
			}
		}
	}
	l.tel.Counters(l.cfg.Clock.SessionStart(l.nSessions))
	return l.err
}

// periodStart handles one period boundary: it settles the previous
// period's retrains, advances pools, rebuilds the per-period
// distribution maps, precomputes the period's arrivals and predictions
// app by app, runs the method's period planning, and schedules the
// period's retraining completions and work sessions.
func (l *runLoop) periodStart(period int) {
	if l.err != nil {
		return
	}
	cfg := l.cfg
	first := period * l.sessionsPerPeriod
	last := first + l.sessionsPerPeriod - 1
	if last > l.nSessions-1 {
		last = l.nSessions - 1
	}
	if l.aud != nil {
		if err := l.aud.OnEvent(cfg.Clock.PeriodStart(period)); err != nil {
			l.fail(err)
			return
		}
	}

	// Settle the old period before touching its state: completions due
	// at sessions up to first-1 were already applied by their own
	// events; the remainder is discarded, as the session loop's cleared
	// pending list never applied it. Applying trains toward the old
	// pools, so this must precede AdvancePeriod below.
	l.drainRetrains(first - 1)
	if l.err != nil {
		return
	}
	if l.aud != nil {
		// The old period's retrains are settled and its last work
		// session has run: its conservation equation closes here.
		if err := l.aud.BeginPeriod(period); err != nil {
			l.fail(err)
			return
		}
	}
	start := cfg.Clock.SessionStart(first)
	if l.tel.Tracing() {
		// Retrains still pending at the boundary never applied: the
		// session loop's cleared pending list discarded them.
		for i := range l.retrains {
			if pr := &l.retrains[i]; !pr.applied && !pr.abandoned {
				l.tel.RetrainDiscard(start, pr.App, pr.Node, pr.Samples)
			}
		}
		l.tel.Period(start, period, first, last)
		l.tel.Counters(start)
	}
	l.retrains = l.retrains[:0]
	l.heap = l.heap[:0]
	l.periodFirst, l.periodLast = first, last
	if period > 0 {
		if cfg.Debug {
			for _, st := range l.states {
				for _, ni := range st.inst.Nodes() {
					live := ni.LiveDist()
					pd, _ := ni.PoolDist()
					fmt.Printf("debug p%d %s/%s: used=%d/%d trained=%v liveAcc=%.3f poolAcc=%.3f\n",
						period-1, st.inst.App.Name, ni.Node.Name, ni.UsedSamples, len(ni.Pool.Samples),
						ni.TrainedThisPeriod(), ni.State.Accuracy(live), ni.State.Accuracy(pd))
				}
			}
		}
		for _, st := range l.states {
			st.inst.AdvancePeriod(cfg.PoolSamples)
		}
		if l.flt != nil {
			// Drift spikes strike right after the boundary: the pool was
			// collected from the pre-shock distribution, so the live
			// distribution jumps away from everything the period's
			// retraining data represents — the §3.2 detector and the
			// schedulers have to catch up.
			for _, st := range l.states {
				name := st.inst.App.Name
				if seed, intensity, ok := l.flt.DriftSpike(period, name); ok {
					st.inst.ShockDrift(seed, intensity)
					l.res.FaultDriftSpikes++
					l.tel.DriftSpike(start, period, name, intensity)
				}
			}
		}
	}
	for _, st := range l.states {
		clear(st.liveDists)
		clear(st.updated)
		clear(st.carry)
		for _, ni := range st.inst.Nodes() {
			st.liveDists[ni.Node.Name] = ni.LiveDist()
			if _, err := ni.PoolDist(); err != nil {
				l.fail(err)
				return
			}
			l.rec.SetPoolSize(period, len(ni.Pool.Samples))
		}
	}

	// Arrivals and predictions for the whole period, one app at a time.
	// Each app's generator and predictor is independent of the others
	// and of the shared RNG, and the predictor observes every session
	// (including empty ones), so batching per app reproduces exactly
	// the per-session call sequences.
	n := last - first + 1
	for s := 0; s < n; s++ {
		l.work[s] = false
	}
	for i, st := range l.states {
		arow, prow := l.actual[i], l.predicted[i]
		var burst faults.Burst
		burstOK := false
		if l.flt != nil {
			if b, ok := l.flt.BurstFor(period, st.inst.App.Name, n); ok {
				burst, burstOK = b, true
				l.res.FaultBursts++
				l.tel.Burst(start, period, st.inst.App.Name, b.Start, b.End-b.Start, b.Factor)
			}
		}
		for s := 0; s < n; s++ {
			ws := cfg.Clock.SessionStart(first + s)
			we := ws.Add(cfg.Clock.Session)
			a := st.gen.CountInWindow(ws, we)
			if burstOK && s >= burst.Start && s < burst.End {
				// The burst multiplies arrivals before the predictor
				// observes them: predictions lag the surge, so plans are
				// undersized exactly as a real flash crowd undersizes
				// them.
				a *= burst.Factor
			}
			p := st.pred.Predict()
			st.pred.Observe(a)
			arow[s], prow[s] = a, p
			if a > 0 || p > 0 {
				l.work[s] = true
			}
		}
		if l.aud != nil {
			sum := 0
			for s := 0; s < n; s++ {
				sum += arow[s]
			}
			l.aud.ExpectArrivals(st.inst.App.Name, sum)
		}
	}

	if l.topo.NGPUs > 1 {
		l.laneEvents(period, start)
		if l.err != nil {
			return
		}
		l.placeApps(period, start, n)
		if l.err != nil {
			return
		}
		l.admitPeriod(period, start, n)
		if l.err != nil {
			return
		}
	}

	pctx := &sched.PeriodContext{
		Period: period,
		Start:  start,
		Length: cfg.Clock.Period,
		GPUs:   cfg.GPUs,
		Rand:   l.rng,
	}
	for _, st := range l.states {
		pctx.Jobs = append(pctx.Jobs, sched.JobRequest{Instance: st.inst, Profile: st.prof})
	}
	wall := time.Now()
	pplan, err := cfg.Method.OnPeriodStart(pctx)
	l.res.MeasuredPeriodPlanning += time.Since(wall)
	if err != nil {
		l.fail(err)
		return
	}
	l.res.PeriodOverhead = pplan.Overhead
	l.res.EdgeCloudTransfer = pplan.EdgeCloudTransfer
	l.res.EdgeCloudBytes = pplan.EdgeCloudBytes
	if l.aud != nil {
		if err := l.aud.OnPeriodPlan(pctx, pplan); err != nil {
			l.fail(err)
			return
		}
	}
	if l.tel.Tracing() {
		l.tel.PeriodPlan(start, period, len(pplan.Retrains), pplan.Overhead, pplan.EdgeCloudBytes)
		// Methods that build the retraining-inference DAG expose it
		// (core.Scheduler does); emit each app's impact degrees.
		if dp, ok := cfg.Method.(interface{ DagFor(string) *sched.RIDag }); ok {
			for _, st := range l.states {
				dag := dp.DagFor(st.inst.App.Name)
				if dag == nil {
					continue
				}
				for i := range dag.Vertices {
					v := &dag.Vertices[i]
					if v.Phase != sched.PhaseRetrain {
						continue
					}
					l.tel.Impact(start, period, st.inst.App.Name, v.Node,
						v.ImpactDegree, true)
				}
			}
		}
	}

	l.faultBusy = l.faultBusy[:0]
	if cfg.Retraining {
		// The latest completion that still applies within this period:
		// applySessionOf(c) ≤ last ⟺ c ≤ SessionStart(last). Faulted
		// retries are only started when they can meet this window
		// (§3.3); otherwise the job is abandoned and the stale model
		// keeps serving.
		windowEnd := cfg.Clock.SessionStart(last)
		for i := range pplan.Retrains {
			r := pplan.Retrains[i]
			if l.suspendRetrain != nil && l.suspendRetrain[l.appIdx[r.App]] {
				// The admission gate suspended this app's retraining: the
				// job never starts, charges no GPU time, and the stale
				// model keeps serving (the abandoned-job mechanics).
				l.retrains = append(l.retrains, pendingRetrain{PeriodRetrain: r, abandoned: true})
				continue
			}
			abandoned := false
			if l.flt != nil && r.Busy > 0 && r.GPUFraction > 0 {
				fate := l.flt.RetrainFate(period, i, r.App, r.Node, r.Completion, r.Busy, windowEnd)
				if fate.Slowed {
					l.res.FaultRetrainSlowed++
					l.tel.RetrainFault(r.Completion, r.App, r.Node, "retrain-slow", 0)
				}
				for ai, at := range fate.Attempts {
					if !at.Failed {
						continue
					}
					// A failed attempt burned its full busy window on the
					// GPU and then discarded its progress.
					l.res.FaultRetrainFailures++
					l.tel.RetrainFault(at.Completion, r.App, r.Node, "retrain-fail", ai)
					l.rec.RecordBusy(at.Start, at.Completion, r.GPUFraction)
					lane := l.laneOfApp(r.App)
					if l.aud != nil && l.admitCap != nil {
						if err := l.aud.OnRetrainCharge(r.App, lane); err != nil {
							l.fail(err)
							return
						}
					}
					if l.gpuBusySec != nil {
						l.gpuBusySec[lane] += r.GPUFraction * at.Completion.Sub(at.Start).Seconds()
						l.tel.GPUBusy(lane, at.Completion.Sub(at.Start), r.GPUFraction)
					}
					l.faultBusy = append(l.faultBusy, busyWindow{
						from: at.Start, to: at.Completion, fraction: r.GPUFraction, lane: lane,
					})
				}
				if l.aud != nil {
					if err := l.aud.OnFaultRetrain(i, len(fate.Attempts),
						l.flt.Config().MaxRetries, fate.Completion, windowEnd, fate.Abandoned); err != nil {
						l.fail(err)
						return
					}
				}
				if fate.Abandoned {
					abandoned = true
					l.res.FaultRetrainAbandoned++
					l.tel.RetrainAbandon(start, r.App, r.Node, len(fate.Attempts), r.Samples)
				} else {
					r.Completion = fate.Completion
					r.Busy = fate.Busy
				}
			}
			l.retrains = append(l.retrains, pendingRetrain{PeriodRetrain: r, abandoned: abandoned})
			if !abandoned && r.GPUFraction > 0 && r.Busy > 0 {
				l.rec.RecordBusy(r.Completion.Add(-r.Busy), r.Completion, r.GPUFraction)
				if l.aud != nil && l.admitCap != nil {
					if err := l.aud.OnRetrainCharge(r.App, l.laneOfApp(r.App)); err != nil {
						l.fail(err)
						return
					}
				}
				if l.gpuBusySec != nil {
					lane := l.laneOfApp(r.App)
					l.gpuBusySec[lane] += r.GPUFraction * r.Busy.Seconds()
					l.tel.GPUBusy(lane, r.Busy, r.GPUFraction)
				}
			}
		}
		// Completions enter the heap and get an event at their apply
		// session's start (pointers into l.retrains are stable: the
		// slice is fully built above). One event per distinct session.
		l.drainAt = l.drainAt[:0]
		for i := range l.retrains {
			pr := &l.retrains[i]
			if pr.abandoned {
				continue // never completes; the stale model keeps serving
			}
			as := applySessionOf(pr.Completion, cfg.Clock.Session)
			if as < first {
				as = first
			}
			if as > last {
				continue // never applies; discarded at the next boundary
			}
			heap.Push(&l.heap, retrainItem{pr: pr, applySession: as, planIdx: i})
			l.drainAt = append(l.drainAt, as)
		}
		sort.Ints(l.drainAt)
		prev := -1
		for _, as := range l.drainAt {
			if as == prev {
				continue
			}
			prev = as
			as := as
			l.eng.Schedule(cfg.Clock.SessionStart(as), "retrain",
				func(at simtime.Instant) {
					if l.err != nil {
						return
					}
					if l.aud != nil {
						if err := l.aud.OnEvent(at); err != nil {
							l.fail(err)
							return
						}
					}
					l.drainRetrains(as)
				})
		}
	}

	l.scheduleNextWork(first - 1)
}

// laneEvents evolves the lane-liveness mask at a period boundary:
// crash and recovery decisions are pure hashes of the fault seed and
// (period, lane), so the mask's trajectory — and everything downstream
// of it — is identical across repeats. A change arms the failover
// re-pack placeApps performs before any session plans against the new
// mask.
func (l *runLoop) laneEvents(period int, start simtime.Instant) {
	if l.admitCap == nil {
		return
	}
	alive, crashed, recovered := l.flt.LaneEvents(period, l.topo.NGPUs, l.alive)
	if l.aud != nil {
		if err := l.aud.OnLaneEvents(period, l.topo.NGPUs, alive, crashed, recovered); err != nil {
			l.fail(err)
			return
		}
	}
	for _, g := range recovered {
		l.res.FaultGPURecoveries++
		l.tel.GPURecover(start, period, g, alive)
	}
	for _, g := range crashed {
		l.res.FaultGPUCrashes++
		l.tel.GPUCrash(start, period, g, alive)
	}
	if alive != l.alive {
		l.alive = alive
		l.maskDirty = true
	}
}

// placeApps recomputes the app→GPU placement at a period boundary.
// Apps are ranked by the period's predicted load; the placement only
// changes when the ranking does (or an app's working set would — those
// are fixed for the run) or a lane-liveness change forces a failover
// re-pack, so steady workloads keep a stable placement. With a dead
// lane the pack runs over the surviving lanes only; apps that fit
// nowhere are left unplaced for the admission gate to shed.
func (l *runLoop) placeApps(period int, start simtime.Instant, n int) {
	for i := range l.states {
		sum := 0
		for s := 0; s < n; s++ {
			sum += l.predicted[i][s]
		}
		l.loadBuf[i] = float64(sum)
	}
	ranks := cluster.RankLoads(l.appNames, l.loadBuf)
	if l.place != nil && !l.maskDirty && cluster.RanksEqual(ranks, l.lastRanks) {
		return
	}
	forced := l.maskDirty
	l.maskDirty = false
	apps := make([]cluster.AppLoad, len(l.states))
	for i, name := range l.appNames {
		apps[i] = cluster.AppLoad{Name: name, WorkingSetBytes: l.wsBytes[i], LoadRank: ranks[i]}
	}
	var pl *cluster.Placement
	var unplaced []cluster.AppLoad
	var err error
	if l.alive == 0 || l.alive == cluster.AllAlive(l.topo.NGPUs) {
		pl, err = cluster.Place(l.topo, apps)
	} else {
		pl, unplaced, err = cluster.Replace(l.topo, l.alive, apps)
	}
	if err != nil {
		l.fail(err)
		return
	}
	l.place = pl
	l.lastRanks = append(l.lastRanks[:0], ranks...)
	for g := range l.laneApps {
		l.laneApps[g] = l.laneApps[g][:0]
	}
	l.unplacedIdx = l.unplacedIdx[:0]
	var unplacedNames []string
	if len(unplaced) > 0 {
		skip := make(map[string]bool, len(unplaced))
		for _, a := range unplaced {
			skip[a.Name] = true
			unplacedNames = append(unplacedNames, a.Name)
		}
		for i, name := range l.appNames {
			if skip[name] {
				l.laneOf[i] = -1
				l.unplacedIdx = append(l.unplacedIdx, i)
			}
		}
	}
	for i, name := range l.appNames {
		g, ok := pl.GPU(name)
		if !ok {
			continue // unplaced; indexed above
		}
		l.laneOf[i] = g
		l.laneApps[g] = append(l.laneApps[g], i)
	}
	if forced {
		l.res.FaultReplacements++
		l.tel.Replace(start, period, pl.Topology().AliveMask(), pl.Len(), len(unplaced))
	}
	if l.tel.Tracing() {
		for i, name := range l.appNames {
			l.tel.Placement(start, period, name, l.laneOf[i], l.wsBytes[i], ranks[i])
		}
	}
	if l.aud != nil {
		if err := l.aud.OnReplace(period, pl, l.appNames, unplacedNames); err != nil {
			l.fail(err)
		}
	}
}

// admitPeriod runs the SLO-feasibility gate after a (possibly
// degraded) placement: per surviving lane it asks whether the lane's
// GPU amount can serve every placed application's predicted peak
// session load at its smallest profiled structures within SLO.
// Infeasible lanes enter the degraded-admission state — retraining
// suspended, smallest structures at the admitted fraction, per-app
// request caps with the excess shed in rank order — and unplaced
// applications shed everything. The gate runs every period while any
// lane is down (its inputs are the period's predictions, so decisions
// are deterministic and constant within the period).
func (l *runLoop) admitPeriod(period int, start simtime.Instant, n int) {
	if l.admitCap == nil {
		return
	}
	for i := range l.admitCap {
		l.admitCap[i] = -1
		l.admitFrac[i] = 0
		l.admitDegraded[i] = false
		l.suspendRetrain[i] = false
	}
	if l.alive == cluster.AllAlive(l.topo.NGPUs) && len(l.unplacedIdx) == 0 {
		return
	}
	cfg := l.cfg
	var unplacedNames []string
	for _, i := range l.unplacedIdx {
		l.admitCap[i] = 0
		l.admitDegraded[i] = true
		l.suspendRetrain[i] = true
		unplacedNames = append(unplacedNames, l.appNames[i])
	}
	laneAmount := cfg.GPUs / float64(cfg.NGPUs)
	var audLanes []audit.AdmitLane
	for g := 0; g < l.topo.NGPUs; g++ {
		if l.alive&(1<<uint(g)) == 0 || len(l.laneApps[g]) == 0 {
			continue
		}
		apps := make([]admit.App, 0, len(l.laneApps[g]))
		for _, i := range l.laneApps[g] {
			st := l.states[i]
			peak := 0
			for s := 0; s < n; s++ {
				if l.predicted[i][s] > peak {
					peak = l.predicted[i][s]
				}
			}
			apps = append(apps, admit.App{
				Name:     st.inst.App.Name,
				Rank:     l.lastRanks[i],
				Requests: peak,
				SLO:      st.inst.App.SLO,
				Latency:  l.smallestLatency(st),
			})
		}
		out, err := admit.Evaluate(laneAmount, apps)
		if err != nil {
			l.fail(err)
			return
		}
		l.tel.Admit(start, period, g, out.Feasible, out.TotalFraction(), out.TotalShed())
		if !out.Feasible {
			for di := range out.Decisions {
				d := &out.Decisions[di]
				i := l.appIdx[d.Name]
				l.admitCap[i] = d.Admitted
				l.admitFrac[i] = d.Fraction
				l.admitDegraded[i] = true
				l.suspendRetrain[i] = true
			}
		}
		if l.aud != nil {
			o := out
			audLanes = append(audLanes, audit.AdmitLane{Lane: g, Outcome: &o})
		}
	}
	if l.aud != nil {
		if err := l.aud.OnAdmission(period, laneAmount, audLanes, unplacedNames); err != nil {
			l.fail(err)
			return
		}
	}
	for i := range l.admitCap {
		if l.suspendRetrain[i] {
			l.res.FaultSuspendedRetrainPeriods++
		}
	}
}

// smallestLatency builds the admission gate's latency probe for one
// app: the session latency of serving n requests at GPU fraction f
// with every node at its smallest profiled structure — exactly the
// degraded-admission serving configuration runJob executes.
func (l *runLoop) smallestLatency(st *appState) func(int, float64) (simtime.Duration, error) {
	return func(n int, f float64) (simtime.Duration, error) {
		batch := fallbackBatch(n)
		nBatches := (n + batch - 1) / batch
		var total simtime.Duration
		for _, np := range st.degradedNodes {
			ti, ok := st.tableIdx[np.Node]
			if !ok {
				return 0, fmt.Errorf("serving: no latency table for node %q of %q", np.Node, st.inst.App.Name)
			}
			tb := st.costs.Tables()[ti]
			si, err := tb.StructIdx(np.Structure)
			if err != nil {
				return 0, err
			}
			per, err := st.costs.PerBatch(ti, si, tb.BatchIdx(batch), f)
			if err != nil {
				return 0, err
			}
			total += per * simtime.Duration(nBatches)
		}
		return total, nil
	}
}

// laneOfApp returns the lane the app currently runs on (0 on the
// single-partition path).
func (l *runLoop) laneOfApp(name string) int {
	if l.laneOf == nil {
		return 0
	}
	return l.laneOf[l.appIdx[name]]
}

// drainRetrains applies every heap entry due at or before maxSession,
// in (applySession, planIdx) order — exactly the order the session
// loop's plan-order scan applied them across sessions.
func (l *runLoop) drainRetrains(maxSession int) {
	for len(l.heap) > 0 && l.heap[0].applySession <= maxSession {
		it := heap.Pop(&l.heap).(retrainItem)
		if l.aud != nil {
			if err := l.aud.OnRetrainApply(it.applySession, it.planIdx); err != nil {
				l.fail(err)
				return
			}
		}
		l.tel.RetrainApply(it.pr.Completion, it.pr.App, it.pr.Node,
			it.pr.Samples, it.applySession, it.planIdx)
		l.applyRetrain(it.pr)
	}
}

func (l *runLoop) applyRetrain(pr *pendingRetrain) {
	pr.applied = true
	st := l.byName[pr.App]
	if st == nil {
		return
	}
	ni := st.inst.ByName[pr.Node]
	if ni == nil {
		return
	}
	if target, err := ni.PoolDist(); err == nil {
		used := ni.ConsumeSamples(pr.Samples)
		ni.State.Train(target, float64(used))
		ni.NoteTrained()
		st.updated[pr.Node] = true
		l.rec.RecordRetrainEffort(pr.Completion, pr.Busy, used)
	}
}

// scheduleNextWork schedules the first work session after `after`
// within the current period. Work sessions form a chain — each
// schedules its successor — keeping the engine's heap small.
func (l *runLoop) scheduleNextWork(after int) {
	for sess := after + 1; sess <= l.periodLast; sess++ {
		if l.work[sess-l.periodFirst] {
			sess := sess
			l.eng.Schedule(l.cfg.Clock.SessionStart(sess), "session",
				func(simtime.Instant) { l.workSession(sess) })
			return
		}
	}
}

// workSession executes one request-bearing session: session planning
// followed by job execution.
func (l *runLoop) workSession(sess int) {
	if l.err != nil {
		return
	}
	defer func() {
		if l.err == nil {
			l.scheduleNextWork(sess)
		}
	}()
	cfg := l.cfg
	// Completion events due at this instant fired before this event;
	// the defensive drain keeps the invariant explicit.
	l.drainRetrains(sess)
	if l.err != nil {
		return
	}
	start := cfg.Clock.SessionStart(sess)
	si := sess - l.periodFirst
	if l.aud != nil {
		if err := l.aud.OnEvent(start); err != nil {
			l.fail(err)
			return
		}
	}
	if l.place != nil {
		l.laneSession(sess, start, si)
		return
	}

	// GPU claimed by still-running whole-pool retrains, summed in plan
	// order (floating-point addition order matters for bit-identity).
	var retrainGPUBusy float64
	for i := range l.retrains {
		pr := &l.retrains[i]
		if !pr.applied && !pr.abandoned && pr.GPUFraction > 0 && !start.Before(pr.Completion.Add(-pr.Busy)) {
			retrainGPUBusy += pr.GPUFraction
		}
	}
	// Failed retraining attempts occupy the GPU for their full windows
	// too (plan order, after the pending list — a fixed summation order
	// keeps faulted runs bit-identical across repeats).
	for i := range l.faultBusy {
		fb := &l.faultBusy[i]
		if !start.Before(fb.from) && start.Before(fb.to) {
			retrainGPUBusy += fb.fraction
		}
	}

	avail := cfg.GPUs - retrainGPUBusy
	if avail < 0.1 {
		avail = 0.1
	}
	concurrency := math.Ceil(float64(l.ewmaTa) / float64(cfg.Clock.Session))
	if concurrency < 1 {
		concurrency = 1
	}
	share := avail / concurrency
	if share > avail {
		share = avail
	}
	// Quantize for plan-cache friendliness.
	share = math.Round(share*100) / 100
	if share < 0.02 {
		share = 0.02
	}

	if l.flt != nil {
		// Per-app memory faults for this session; the degraded-job
		// counter and event key off the decision and the actual
		// arrivals.
		for i, st := range l.states {
			l.memFault[i] = l.flt.MemFail(sess, st.inst.App.Name)
			if l.memFault[i] && l.actual[i][si] > 0 {
				l.res.FaultDegradedJobs++
				l.tel.Degrade(start, sess, st.inst.App.Name)
			}
		}
	}

	ctx := l.ctx
	ctx.Session = sess
	ctx.Start = start
	ctx.GPUShare = share
	ctx.Jobs = ctx.Jobs[:0]
	for i, st := range l.states {
		ctx.Jobs = append(ctx.Jobs, sched.JobRequest{
			Instance: st.inst,
			Profile:  st.prof,
			Requests: l.predicted[i][si],
		})
	}
	wall := time.Now()
	plan, err := cfg.Method.PlanSession(ctx)
	dt := time.Since(wall)
	l.res.MeasuredSessionPlanning += dt
	l.tel.PlanningObserve(dt)
	if err != nil {
		l.fail(err)
		return
	}
	if plan.Overhead > l.res.SessionOverhead {
		// Report the method's solve cost, not a cache hit's zero.
		l.res.SessionOverhead = plan.Overhead
	}
	if l.aud != nil {
		if err := l.aud.OnSessionPlan(ctx, plan); err != nil {
			l.fail(err)
			return
		}
	}
	if l.tel.Tracing() {
		l.tel.SessionPlan(start, sess, share, plan.Overhead, len(plan.Jobs))
		for i := range plan.Jobs {
			jp := &plan.Jobs[i]
			l.tel.JobPlan(start, sess, jp.App, jp.Fraction, jp.Batch, jp.InferTime, jp.RetrainTime)
		}
	}

	var sessionMakespan simtime.Duration
	for i, st := range l.states {
		if l.actual[i][si] == 0 {
			continue
		}
		jp := jobPlanFor(plan, st.inst.App.Name)
		var degraded sched.JobPlan
		if l.flt != nil && l.memFault[i] {
			// Transient GPU-memory allocation failure: the planned (or
			// fallback) structures cannot be made resident this session.
			// Serve with the smallest profiled structure of every node
			// and no retraining slice — the stale model at a strictly
			// lower latency, never an SLO violation.
			degraded = sched.JobPlan{
				App:      st.inst.App.Name,
				Fraction: 0.02,
				Batch:    fallbackBatch(l.actual[i][si]),
				Nodes:    st.degradedNodes,
			}
			if jp != nil && jp.Fraction > 0 && jp.Batch > 0 {
				degraded.Fraction, degraded.Batch = jp.Fraction, jp.Batch
			}
			if l.aud != nil {
				if err := l.aud.OnFaultDegrade(ctx, i, jp, &degraded); err != nil {
					l.fail(err)
					return
				}
			}
			jp = &degraded
		}
		dur, err := l.runJob(st, jp, plan.Overhead, start, l.actual[i][si])
		if err != nil {
			l.fail(err)
			return
		}
		if l.aud != nil {
			// Same SLO comparison runJob scored the requests with.
			if err := l.aud.OnServed(st.inst.App.Name, l.actual[i][si], dur <= st.inst.App.SLO); err != nil {
				l.fail(err)
				return
			}
		}
		if dur > sessionMakespan {
			sessionMakespan = dur
		}
	}
	if sessionMakespan > 0 {
		l.ewmaTa = time.Duration(0.1*float64(sessionMakespan) + 0.9*float64(l.ewmaTa))
	}
	if sessionMakespan > l.maxSpan {
		l.maxSpan = sessionMakespan
	}
}

// laneSession is workSession on a sharded server: each GPU lane gets
// its own share (from its own lane's retrain occupancy), its own
// session plan over only the apps placed on it, and its jobs execute
// before the next lane plans — scheduler plans alias reusable arenas,
// so lane g's plan must be consumed before lane g+1's PlanSession call
// may overwrite it.
func (l *runLoop) laneSession(sess int, start simtime.Instant, si int) {
	cfg := l.cfg

	// Retrain occupancy per lane, in plan order within each lane (the
	// summation order is fixed by the plan, keeping runs bit-identical).
	for g := range l.laneBusy {
		l.laneBusy[g] = 0
	}
	for i := range l.retrains {
		pr := &l.retrains[i]
		if !pr.applied && !pr.abandoned && pr.GPUFraction > 0 && !start.Before(pr.Completion.Add(-pr.Busy)) {
			l.laneBusy[l.laneOfApp(pr.App)] += pr.GPUFraction
		}
	}
	for i := range l.faultBusy {
		fb := &l.faultBusy[i]
		if !start.Before(fb.from) && start.Before(fb.to) {
			l.laneBusy[fb.lane] += fb.fraction
		}
	}
	concurrency := math.Ceil(float64(l.ewmaTa) / float64(cfg.Clock.Session))
	if concurrency < 1 {
		concurrency = 1
	}
	laneAmount := cfg.GPUs / float64(cfg.NGPUs)
	for g := range l.laneShare {
		avail := laneAmount - l.laneBusy[g]
		if avail < 0.1 {
			avail = 0.1
		}
		share := avail / concurrency
		if share > avail {
			share = avail
		}
		share = math.Round(share*100) / 100
		if share < 0.02 {
			share = 0.02
		}
		l.laneShare[g] = share
	}

	if l.flt != nil {
		// Per-app memory faults, keyed by the owning lane so a
		// placement change re-rolls them (two lanes never share a memory
		// partition).
		for i, st := range l.states {
			l.memFault[i] = l.flt.MemFailGPU(sess, st.inst.App.Name, l.laneOf[i])
			if l.memFault[i] && l.actual[i][si] > 0 {
				l.res.FaultDegradedJobs++
				l.tel.Degrade(start, sess, st.inst.App.Name)
			}
		}
	}

	var sessionMakespan simtime.Duration
	// Apps the failover re-pack could not place shed every arrival:
	// no lane can hold their working set until one recovers.
	for _, i := range l.unplacedIdx {
		if a := l.actual[i][si]; a > 0 {
			l.shedRequests(start, sess, l.states[i], a)
			if l.err != nil {
				return
			}
		}
	}
	for g := range l.laneApps {
		apps := l.laneApps[g]
		if len(apps) == 0 {
			continue
		}
		ctx := l.ctx
		ctx.Session = sess
		ctx.Start = start
		ctx.GPUShare = l.laneShare[g]
		ctx.GPU = g
		ctx.Jobs = ctx.Jobs[:0]
		for _, i := range apps {
			ctx.Jobs = append(ctx.Jobs, sched.JobRequest{
				Instance: l.states[i].inst,
				Profile:  l.states[i].prof,
				Requests: l.predicted[i][si],
			})
		}
		wall := time.Now()
		plan, err := cfg.Method.PlanSession(ctx)
		dt := time.Since(wall)
		l.res.MeasuredSessionPlanning += dt
		l.tel.PlanningObserve(dt)
		if err != nil {
			l.fail(err)
			return
		}
		if plan.Overhead > l.res.SessionOverhead {
			l.res.SessionOverhead = plan.Overhead
		}
		if l.aud != nil {
			if err := l.aud.OnSessionPlan(ctx, plan); err != nil {
				l.fail(err)
				return
			}
		}
		if l.tel.Tracing() {
			l.tel.SessionPlan(start, sess, ctx.GPUShare, plan.Overhead, len(plan.Jobs))
			for i := range plan.Jobs {
				jp := &plan.Jobs[i]
				l.tel.JobPlan(start, sess, jp.App, jp.Fraction, jp.Batch, jp.InferTime, jp.RetrainTime)
			}
		}
		l.curLane = g
		for li, i := range apps {
			actual := l.actual[i][si]
			if actual == 0 {
				continue
			}
			st := l.states[i]
			served, shed := actual, 0
			if l.admitCap != nil {
				if cap := l.admitCap[i]; cap >= 0 && actual > cap {
					served, shed = cap, actual-cap
				}
			}
			if shed > 0 {
				// Degraded admission: the excess over the gate's cap is
				// shed (recorded missed, so conservation closes) before
				// the admitted remainder is served.
				l.shedRequests(start, sess, st, shed)
				if l.err != nil {
					return
				}
			}
			if served == 0 {
				continue
			}
			jp := jobPlanFor(plan, st.inst.App.Name)
			var degraded sched.JobPlan
			if l.admitDegraded != nil && l.admitDegraded[i] {
				// Degraded admission serves at the smallest profiled
				// structures, within the fraction the gate admitted, with
				// no retraining slice.
				frac := l.admitFrac[i]
				if frac < 0.02 {
					frac = 0.02
				}
				degraded = sched.JobPlan{
					App:      st.inst.App.Name,
					Fraction: frac,
					Batch:    fallbackBatch(served),
					Nodes:    st.degradedNodes,
				}
				jp = &degraded
			} else if l.flt != nil && l.memFault[i] {
				degraded = sched.JobPlan{
					App:      st.inst.App.Name,
					Fraction: 0.02,
					Batch:    fallbackBatch(actual),
					Nodes:    st.degradedNodes,
				}
				if jp != nil && jp.Fraction > 0 && jp.Batch > 0 {
					degraded.Fraction, degraded.Batch = jp.Fraction, jp.Batch
				}
				if l.aud != nil {
					if err := l.aud.OnFaultDegrade(ctx, li, jp, &degraded); err != nil {
						l.fail(err)
						return
					}
				}
				jp = &degraded
			}
			dur, err := l.runJob(st, jp, plan.Overhead, start, served)
			if err != nil {
				l.fail(err)
				return
			}
			if l.aud != nil {
				if err := l.aud.OnServed(st.inst.App.Name, served, dur <= st.inst.App.SLO); err != nil {
					l.fail(err)
					return
				}
			}
			if dur > sessionMakespan {
				sessionMakespan = dur
			}
		}
	}
	if sessionMakespan > 0 {
		l.ewmaTa = time.Duration(0.1*float64(sessionMakespan) + 0.9*float64(l.ewmaTa))
	}
	if sessionMakespan > l.maxSpan {
		l.maxSpan = sessionMakespan
	}
}

// shedRequests records n requests of one app shed by the admission
// gate: counted as SLO-missed (request conservation still closes),
// never scored (nothing was served, so no prediction draws — the RNG
// stream is untouched), traced and audited.
func (l *runLoop) shedRequests(start simtime.Instant, sess int, st *appState, n int) {
	name := st.inst.App.Name
	if l.aud != nil {
		if err := l.aud.OnShed(sess, name, n); err != nil {
			l.fail(err)
			return
		}
		if err := l.aud.OnServed(name, n, false); err != nil {
			l.fail(err)
			return
		}
	}
	l.tel.Shed(start, sess, name, n)
	for r := 0; r < n; r++ {
		l.rec.RecordRequest(start, false)
		l.res.Requests++
	}
	l.res.FaultShedRequests += n
}

// busyWindow is one failed retraining attempt's GPU occupancy.
type busyWindow struct {
	from, to simtime.Instant
	fraction float64
	lane     int
}
