// Package audit is the serving simulator's runtime invariant auditor:
// a pluggable checker layer the event loop calls at every period
// boundary, session plan, retrain application, and served job. Each
// hook validates the paper's guarantees —
//
//   - §3.3.1 scheduler plans: per-job GPU fractions lie in [0, 1],
//     their sum stays within the session's GPU amount (with a
//     documented tolerance for the MPS min-fraction floor), batch
//     sizes come from the profiled set, and a plan that assigns
//     retraining keeps InferTime + RetrainTime + Overhead ≤ SLO;
//   - §3.3.2 retraining split: per-node retraining budgets never
//     exceed the spare-time share their drift impact degree (or the
//     /I equal split) allows, and only impacted nodes retrain;
//   - event ordering: the simulated clock is monotone and the retrain
//     heap drains in strict (applySession, planIdx) order;
//   - request conservation: every period, per application,
//     arrivals = SLO-met + SLO-missed served requests (the simulator
//     never drops a request, so dropped ≡ 0).
//
// The §3.4 memory-accounting invariants (resident bytes ≤ capacity,
// eviction order consistent with the S_c = (1−α)·R_c + α·L_s score)
// live next to the state they guard, in gpumem.Manager.CheckInvariants
// and the gpumem.Config.Audit eviction-order check; profiling runs
// them when profile.Config.Audit is set.
//
// The auditor is strictly read-only: it never draws from the shared
// RNG, mutates simulation state, or changes floating-point evaluation
// order, so an audited run produces bit-identical metrics to an
// unaudited one.
//
// Construction chooses the failure mode: New(nil, p) fails fast — the
// first violation is returned as an error and aborts the run;
// New(report, p) accumulates every violation into the report and lets
// the run complete.
package audit

import (
	"fmt"

	"adainf/internal/admit"
	"adainf/internal/cluster"
	"adainf/internal/sched"
	"adainf/internal/simtime"
)

// Rule names the invariant a violation breaks.
const (
	// RuleClock: event instants must be non-decreasing.
	RuleClock = "clock-monotone"
	// RulePeriodOrder: period boundaries must arrive sequentially.
	RulePeriodOrder = "period-order"
	// RuleRetrainOrder: retrain applications must drain in strict
	// (applySession, planIdx) order within a period.
	RuleRetrainOrder = "retrain-order"
	// RulePeriodPlan: period-plan retrains must be well-formed
	// (positive samples, fraction in [0,1], completion within reach).
	RulePeriodPlan = "period-plan"
	// RulePlanShape: session plans must mirror the context (one job
	// plan per job request, same app, same session index).
	RulePlanShape = "plan-shape"
	// RuleFraction: per-job GPU fraction must lie in [0, 1] and active
	// jobs must have a positive fraction and batch.
	RuleFraction = "gpu-fraction"
	// RuleShareSum: the fractions of one session must sum within the
	// session's GPU amount (§3.3.1), allowing the min-fraction floor's
	// oversubscription.
	RuleShareSum = "gpu-share-sum"
	// RuleBatchProfiled: planned batch sizes must come from the
	// profiled batch set of every planned structure.
	RuleBatchProfiled = "batch-profiled"
	// RuleInferSum: per-node inference times must sum exactly to the
	// job's InferTime (§3.3.2: DAG tasks are time-sliced in the job's
	// space, so the job's inference time is the sum over tasks).
	RuleInferSum = "infer-time-sum"
	// RuleRetrainSLO: a job that assigns retraining must still fit the
	// SLO: InferTime + RetrainTime + Overhead ≤ SLO ("JobWorstCase ≤
	// SLO for accepted plans", §3.3.2).
	RuleRetrainSLO = "retrain-within-slo"
	// RuleRetrainSplit: per-node retraining budgets must respect the
	// impact-degree split (§3.3.2): every retraining node is impacted,
	// and no budget exceeds max(U·I_i/ΣI, U/n) for spare time
	// U = SLO − InferTime − Overhead.
	RuleRetrainSplit = "retrain-split"
	// RuleConservation: per period per app, arrivals = met + missed
	// served requests (+ dropped, which is always zero here).
	RuleConservation = "request-conservation"
	// RuleUtilization: the raw (unclamped) GPU utilization of every 1 s
	// window must stay within capacity plus the documented overlap
	// tolerance; larger overshoot means busy time was double-counted.
	RuleUtilization = "gpu-utilization"
	// RuleFaultRetrain: an injected retraining fault must respect the
	// recovery policy — at most MaxRetries retries run, and a retried
	// job that is not abandoned completes within the §3.3 retraining
	// window (a retry that could not meet the window must be abandoned,
	// leaving the stale model serving).
	RuleFaultRetrain = "fault-retrain-window"
	// RuleFaultDegrade: a GPU-memory fault's degraded job plan must be a
	// sound graceful degradation — profiled structures only, no
	// retraining slice, and per-node latency no worse than the planned
	// structure's at the same batch and fraction, so degradation can
	// never introduce an SLO violation the original plan lacked.
	RuleFaultDegrade = "fault-degrade"
	// RulePlacement: a multi-GPU placement must put every application
	// on exactly one in-range GPU and keep every GPU's placed
	// working-set bytes within its memory capacity; per-GPU fraction
	// sums are bounded by the lane's share of the GPU amount (checked
	// per session by RuleShareSum against the lane-divided bound).
	RulePlacement = "cluster-placement"
	// RuleFaultGPUCrash: lane liveness must be honoured after an
	// injected lane crash — crash/recover transitions are consistent
	// with the previous mask, at least one lane stays alive, nothing is
	// placed on (or planned for, or retrain-charged to) a dead lane, and
	// a liveness change is followed by a re-placement within the same
	// period boundary (before any session plans against it).
	RuleFaultGPUCrash = "fault-gpu-crash"
	// RuleAdmitFeasibility: admission control under capacity loss must
	// be exactly as aggressive as the infeasibility requires — a lane's
	// admitted fractions stay within its capacity, predicted load is
	// shed only when the SLO-feasibility gate failed (and conservation
	// still closes: shed requests are recorded as missed), and
	// retraining is suspended only for applications in the
	// degraded-admission state.
	RuleAdmitFeasibility = "admit-feasibility"
)

// Violation is one broken invariant with its structured context.
type Violation struct {
	Rule    string
	Period  int
	Session int
	App     string
	Node    string
	// Detail explains the violated relation with concrete values.
	Detail string
	// Plan is a snapshot of the offending session plan (copied, never
	// aliasing the scheduler's reusable plan storage); empty for
	// non-plan rules.
	Plan string
}

// Error implements error.
func (v *Violation) Error() string {
	s := fmt.Sprintf("audit: %s: period %d", v.Rule, v.Period)
	if v.Session >= 0 {
		s += fmt.Sprintf(" session %d", v.Session)
	}
	if v.App != "" {
		s += " app " + v.App
	}
	if v.Node != "" {
		s += " node " + v.Node
	}
	s += ": " + v.Detail
	if v.Plan != "" {
		s += " [" + v.Plan + "]"
	}
	return s
}

// maxStored caps the violations kept in a report; Total keeps counting
// beyond the cap.
const maxStored = 100

// Report accumulates an audited run's outcome.
type Report struct {
	// Checks counts individual invariant evaluations.
	Checks int
	// Total counts violations, including ones beyond the storage cap.
	Total int
	// Violations holds the first violations, up to an internal cap.
	Violations []Violation
}

// Err returns nil for a clean report, or an error summarizing the
// first violation.
func (r *Report) Err() error {
	if r.Total == 0 {
		return nil
	}
	if len(r.Violations) > 0 {
		return fmt.Errorf("audit: %d violation(s), first: %w", r.Total, &r.Violations[0])
	}
	return fmt.Errorf("audit: %d violation(s)", r.Total)
}

// Params fixes the run-level quantities the invariants reference.
type Params struct {
	// GPUs is the server's physical GPU count: the capacity bound on a
	// session plan's fraction sum when StrictShare is off.
	GPUs float64
	// MinFraction is the per-job GPU-space floor (the MPS minimum;
	// zero defaults to 0.02). The floor may legitimately oversubscribe
	// a small share by up to MinFraction per active job, which the
	// share-sum bound tolerates.
	MinFraction float64
	// StrictShare tightens the share-sum bound to the current
	// session's GPUShare. Sound only for methods that plan every
	// session afresh — a sched.WindowPlanner (Scrooge's 100 ms solve
	// window) may carry a sum computed against an earlier, larger
	// share.
	StrictShare bool
	// UtilSlack is the per-overlap tolerance of the OnUtilization
	// bound max ≤ overlap × (1 + UtilSlack): it absorbs the
	// min-fraction floor's oversubscription (floor × jobs per
	// overlapping session) and the EWMA concurrency estimate's lag.
	// Zero defaults to 0.25.
	UtilSlack float64
	// NGPUs is the number of discrete GPU lanes (0 or 1 = the
	// single-GPU server). With NGPUs > 1 each session plan covers one
	// lane, so the non-strict share-sum bound tightens to the lane's
	// share of the GPU amount (GPUs / NGPUs) and OnPlacement validates
	// the app→GPU assignment.
	NGPUs int
	// PerGPUBytes is each GPU's memory capacity for OnPlacement's
	// residency bound (0 takes the placement's own topology).
	PerGPUBytes int64
}

// eps absorbs floating-point rounding in fraction comparisons.
const eps = 1e-9

// tally tracks one app's request conservation within a period.
type tally struct {
	arrivals int
	met      int
	missed   int
}

// Auditor validates a run's events against the invariant catalog. It
// is not safe for concurrent use; the event loop drives it from a
// single goroutine in virtual-time order.
type Auditor struct {
	p        Params
	report   *Report
	failFast bool

	lastEvent simtime.Instant
	haveEvent bool

	period  int
	started bool

	haveRetrain bool
	lastApplyAt int
	lastPlanIdx int

	apps  map[string]*tally
	order []string

	// Lane-liveness state (RuleFaultGPUCrash): the current alive mask
	// reported by OnLaneEvents, and whether a liveness change still
	// awaits its re-placement.
	alive     uint64
	haveAlive bool
	needPlace bool

	// Admission state (RuleAdmitFeasibility), rebuilt every period:
	// applications allowed to shed (on an infeasible lane, or unplaced)
	// and applications whose retraining is suspended.
	shedOK    map[string]bool
	suspended map[string]bool
}

// New returns an auditor. A nil report selects fail-fast mode: the
// first violation is returned as an error by the hook that found it
// (an internal report still counts checks). A non-nil report selects
// accumulate mode: hooks record violations and return nil.
func New(report *Report, p Params) *Auditor {
	if p.MinFraction == 0 {
		p.MinFraction = 0.02
	}
	if p.UtilSlack == 0 {
		p.UtilSlack = 0.25
	}
	a := &Auditor{
		p: p, report: report, period: -1,
		apps:      make(map[string]*tally),
		shedOK:    make(map[string]bool),
		suspended: make(map[string]bool),
	}
	if report == nil {
		a.report = &Report{}
		a.failFast = true
	}
	return a
}

// Checks returns the number of invariant evaluations performed.
func (a *Auditor) Checks() int { return a.report.Checks }

// Report returns the auditor's report (the caller-supplied one in
// accumulate mode).
func (a *Auditor) Report() *Report { return a.report }

func (a *Auditor) violate(v Violation) error {
	r := a.report
	r.Total++
	if len(r.Violations) < maxStored {
		r.Violations = append(r.Violations, v)
	}
	if a.failFast {
		return &v
	}
	return nil
}

// check counts one invariant evaluation and records a violation when
// ok is false. mk builds the violation lazily so the passing path pays
// no formatting cost.
func (a *Auditor) check(ok bool, mk func() Violation) error {
	a.report.Checks++
	if ok {
		return nil
	}
	return a.violate(mk())
}

// OnEvent observes one event-loop dispatch at the instant.
func (a *Auditor) OnEvent(now simtime.Instant) error {
	prev, had := a.lastEvent, a.haveEvent
	a.lastEvent, a.haveEvent = now, true
	return a.check(!had || !now.Before(prev), func() Violation {
		return Violation{
			Rule: RuleClock, Period: a.period, Session: -1,
			Detail: fmt.Sprintf("event at %v before previous event at %v", now, prev),
		}
	})
}

// BeginPeriod opens a period boundary: it settles the previous
// period's request conservation and resets the per-period state.
func (a *Auditor) BeginPeriod(period int) error {
	if err := a.check(period == a.period+1, func() Violation {
		return Violation{
			Rule: RulePeriodOrder, Period: period, Session: -1,
			Detail: fmt.Sprintf("period %d began after period %d", period, a.period),
		}
	}); err != nil {
		return err
	}
	if err := a.closePeriod(); err != nil {
		return err
	}
	if err := a.check(!a.needPlace, func() Violation {
		return Violation{
			Rule: RuleFaultGPUCrash, Period: period, Session: -1,
			Detail: "previous period's lane-liveness change was never followed by a re-placement",
		}
	}); err != nil {
		return err
	}
	a.period = period
	a.started = true
	a.haveRetrain = false
	clear(a.apps)
	a.order = a.order[:0]
	clear(a.shedOK)
	clear(a.suspended)
	return nil
}

// ExpectArrivals registers an app's total arrivals for the current
// period (the conservation left-hand side).
func (a *Auditor) ExpectArrivals(app string, n int) {
	t := a.apps[app]
	if t == nil {
		t = &tally{}
		a.apps[app] = t
		a.order = append(a.order, app)
	}
	t.arrivals += n
}

// OnServed observes requests of one executed (or replayed) job:
// either all met the SLO or all missed it, as the whole batch shares
// one completion time.
func (a *Auditor) OnServed(app string, requests int, met bool) error {
	t := a.apps[app]
	if err := a.check(t != nil, func() Violation {
		return Violation{
			Rule: RuleConservation, Period: a.period, Session: -1, App: app,
			Detail: fmt.Sprintf("%d requests served for an app with no registered arrivals", requests),
		}
	}); err != nil || t == nil {
		return err
	}
	if met {
		t.met += requests
	} else {
		t.missed += requests
	}
	return nil
}

// closePeriod settles the finished period's conservation equation.
func (a *Auditor) closePeriod() error {
	if !a.started {
		return nil
	}
	for _, app := range a.order {
		t := a.apps[app]
		if err := a.check(t.met+t.missed == t.arrivals, func() Violation {
			return Violation{
				Rule: RuleConservation, Period: a.period, Session: -1, App: app,
				Detail: fmt.Sprintf("arrivals %d != served %d (met %d + missed %d, dropped 0)",
					t.arrivals, t.met+t.missed, t.met, t.missed),
			}
		}); err != nil {
			return err
		}
	}
	return nil
}

// Finish settles the final period. Call once after the run completes.
func (a *Auditor) Finish() error {
	return a.closePeriod()
}

// OnUtilization settles the run's GPU busy-time accounting against the
// raw overshoot the metrics recorder surfaces (max and windows from
// metrics.Recorder.UtilizationOvershoot; call once after the run).
//
// Utilization above 1 is not itself a violation: a session whose
// makespan overruns its slot overlaps the following sessions' busy
// time, so an overloaded server legitimately oversubscribes. What
// bounds the raw utilization is the overlap itself — at any instant at
// most `overlap` session spans are active (the caller derives it from
// the longest observed job span), and each contributes at most the
// audited per-session share sum. The sound invariant is therefore
// max ≤ overlap × (1 + UtilSlack): tight (1 + UtilSlack) for runs
// whose sessions never overlap, degrading exactly in proportion to the
// mechanism that produces legitimate overshoot. Busy-time
// double-counting breaks it in the common, underloaded case.
func (a *Auditor) OnUtilization(max float64, windows, overlap int) error {
	if overlap < 1 {
		overlap = 1
	}
	bound := float64(overlap) * (1 + a.p.UtilSlack)
	return a.check(max <= bound+eps, func() Violation {
		return Violation{
			Rule: RuleUtilization, Period: a.period, Session: -1,
			Detail: fmt.Sprintf("max raw utilization %g (%d window(s) over 1) exceeds %d overlapping spans × (1+%g) = %g",
				max, windows, overlap, a.p.UtilSlack, bound),
		}
	})
}

// OnRetrainApply observes one retrain application popped from the
// heap; within a period the sequence must strictly increase in
// (applySession, planIdx).
func (a *Auditor) OnRetrainApply(applySession, planIdx int) error {
	prevAS, prevIdx, had := a.lastApplyAt, a.lastPlanIdx, a.haveRetrain
	a.lastApplyAt, a.lastPlanIdx, a.haveRetrain = applySession, planIdx, true
	ordered := !had || applySession > prevAS || (applySession == prevAS && planIdx > prevIdx)
	return a.check(ordered, func() Violation {
		return Violation{
			Rule: RuleRetrainOrder, Period: a.period, Session: applySession,
			Detail: fmt.Sprintf("retrain (apply %d, plan %d) after (apply %d, plan %d)",
				applySession, planIdx, prevAS, prevIdx),
		}
	})
}

// OnPeriodPlan validates the period plan's retrains.
func (a *Auditor) OnPeriodPlan(ctx *sched.PeriodContext, plan *sched.PeriodPlan) error {
	for i := range plan.Retrains {
		r := &plan.Retrains[i]
		v := func(detail string) func() Violation {
			return func() Violation {
				return Violation{
					Rule: RulePeriodPlan, Period: ctx.Period, Session: -1,
					App: r.App, Node: r.Node, Detail: detail,
				}
			}
		}
		if err := a.check(r.Samples > 0, v(fmt.Sprintf("retrain of %d samples", r.Samples))); err != nil {
			return err
		}
		if err := a.check(r.GPUFraction >= 0 && r.GPUFraction <= 1+eps,
			v(fmt.Sprintf("retrain GPU fraction %g out of [0,1]", r.GPUFraction))); err != nil {
			return err
		}
		if err := a.check(r.Busy >= 0, v(fmt.Sprintf("negative busy time %v", r.Busy))); err != nil {
			return err
		}
		if err := a.check(!r.Completion.Before(ctx.Start),
			v(fmt.Sprintf("completion %v before period start %v", r.Completion, ctx.Start))); err != nil {
			return err
		}
		if err := a.check(r.Completion.Sub(ctx.Start) >= r.Busy,
			v(fmt.Sprintf("busy %v starts before period start %v (completion %v)",
				r.Busy, ctx.Start, r.Completion))); err != nil {
			return err
		}
	}
	return nil
}

// OnSessionPlan validates one session plan against its context and the
// §3.3 invariants.
func (a *Auditor) OnSessionPlan(ctx *sched.SessionContext, plan *sched.SessionPlan) error {
	sess := ctx.Session
	if a.haveAlive {
		if err := a.check(a.alive&(1<<uint(ctx.GPU)) != 0, func() Violation {
			return Violation{
				Rule: RuleFaultGPUCrash, Period: a.period, Session: sess,
				Detail: fmt.Sprintf("session planned for dead lane %d (alive mask %#x)", ctx.GPU, a.alive),
			}
		}); err != nil {
			return err
		}
		if err := a.check(!a.needPlace, func() Violation {
			return Violation{
				Rule: RuleFaultGPUCrash, Period: a.period, Session: sess,
				Detail: "session planned before the lane-liveness change was re-placed",
			}
		}); err != nil {
			return err
		}
	}
	if err := a.check(plan.Session == sess, func() Violation {
		return Violation{
			Rule: RulePlanShape, Period: a.period, Session: sess,
			Detail: fmt.Sprintf("plan labelled session %d", plan.Session),
			Plan:   snapshotPlan(plan),
		}
	}); err != nil {
		return err
	}
	if err := a.check(len(plan.Jobs) == len(ctx.Jobs), func() Violation {
		return Violation{
			Rule: RulePlanShape, Period: a.period, Session: sess,
			Detail: fmt.Sprintf("%d job plans for %d job requests", len(plan.Jobs), len(ctx.Jobs)),
			Plan:   snapshotPlan(plan),
		}
	}); err != nil {
		return err
	}
	if len(plan.Jobs) != len(ctx.Jobs) {
		return nil // shape broken; per-job checks would misalign
	}

	nActive := 0
	var totalFraction float64
	for i := range plan.Jobs {
		jp := &plan.Jobs[i]
		jr := &ctx.Jobs[i]
		if err := a.check(jp.App == jr.Instance.App.Name, func() Violation {
			return Violation{
				Rule: RulePlanShape, Period: a.period, Session: sess, App: jp.App,
				Detail: fmt.Sprintf("job %d planned for %q, context has %q", i, jp.App, jr.Instance.App.Name),
				Plan:   snapshotPlan(plan),
			}
		}); err != nil {
			return err
		}
		if err := a.check(jp.Fraction >= 0 && jp.Fraction <= 1+eps, func() Violation {
			return Violation{
				Rule: RuleFraction, Period: a.period, Session: sess, App: jp.App,
				Detail: fmt.Sprintf("fraction %g out of [0,1]", jp.Fraction),
				Plan:   snapshotPlan(plan),
			}
		}); err != nil {
			return err
		}
		totalFraction += jp.Fraction
		if jp.Fraction <= 0 && jp.Batch <= 0 {
			continue // unplanned job (no predicted requests); runtime serves it via fallback
		}
		nActive++
		if err := a.check(jp.Fraction > 0 && jp.Batch >= 1, func() Violation {
			return Violation{
				Rule: RuleFraction, Period: a.period, Session: sess, App: jp.App,
				Detail: fmt.Sprintf("active job with fraction %g, batch %d", jp.Fraction, jp.Batch),
				Plan:   snapshotPlan(plan),
			}
		}); err != nil {
			return err
		}
		if err := a.auditJob(ctx, plan, jr, jp); err != nil {
			return err
		}
	}

	// §3.3.1: fractions sum within the session's GPU amount. The
	// min-fraction floor may push each active job up to the floor, so
	// the bound tolerates floor·nActive of oversubscription; methods
	// that cache plans across sessions are bounded by the physical
	// capacity instead of the (possibly smaller) current share. On a
	// multi-GPU server each plan covers one lane, whose capacity is
	// the lane's division of the GPU amount.
	capacity := a.p.GPUs
	if a.p.NGPUs > 1 {
		capacity = a.p.GPUs / float64(a.p.NGPUs)
	}
	slack := a.p.MinFraction * float64(nActive)
	bound := capacity + slack
	if a.p.StrictShare {
		bound = ctx.GPUShare
		if slack > ctx.GPUShare {
			bound = slack
		}
	}
	return a.check(totalFraction <= bound+eps, func() Violation {
		return Violation{
			Rule: RuleShareSum, Period: a.period, Session: sess,
			Detail: fmt.Sprintf("fractions sum to %g, bound %g (share %g, %d active, floor %g)",
				totalFraction, bound, ctx.GPUShare, nActive, a.p.MinFraction),
			Plan: snapshotPlan(plan),
		}
	})
}

// OnLaneEvents observes a lane-liveness transition at a period
// boundary: crashed lanes must have been alive, recovered lanes dead,
// and at least one lane must survive. Any transition arms the
// re-placement obligation that OnReplace discharges.
func (a *Auditor) OnLaneEvents(period, nLanes int, alive uint64, crashed, recovered []int) error {
	v := func(detail string) func() Violation {
		return func() Violation {
			return Violation{Rule: RuleFaultGPUCrash, Period: period, Session: -1, Detail: detail}
		}
	}
	prev, had := a.alive, a.haveAlive
	if !had {
		prev = cluster.AllAlive(nLanes)
	}
	want := prev
	for _, g := range recovered {
		if err := a.check(prev&(1<<uint(g)) == 0,
			v(fmt.Sprintf("lane %d recovered while alive (mask %#x)", g, prev))); err != nil {
			return err
		}
		want |= 1 << uint(g)
	}
	for _, g := range crashed {
		if err := a.check(want&(1<<uint(g)) != 0,
			v(fmt.Sprintf("lane %d crashed while dead (mask %#x)", g, want))); err != nil {
			return err
		}
		want &^= 1 << uint(g)
	}
	if err := a.check(alive == want,
		v(fmt.Sprintf("alive mask %#x inconsistent with transitions from %#x (want %#x)", alive, prev, want))); err != nil {
		return err
	}
	if err := a.check(alive&cluster.AllAlive(nLanes) != 0,
		v(fmt.Sprintf("no lane alive in mask %#x", alive))); err != nil {
		return err
	}
	if alive != prev || !had {
		a.needPlace = true
	}
	a.alive, a.haveAlive = alive, true
	return nil
}

// OnPlacement validates a multi-GPU placement: every expected
// application on exactly one in-range GPU, and every GPU's placed
// working-set bytes within its memory capacity.
func (a *Auditor) OnPlacement(period int, pl *cluster.Placement, apps []string) error {
	return a.OnReplace(period, pl, apps, nil)
}

// OnReplace is OnPlacement for failover re-packs: unplaced lists the
// applications whose working set fits on no surviving lane (they enter
// the degraded-admission state — allowed to shed, retraining
// suspended). Every placed application must sit on an alive lane, and
// the call discharges any pending re-placement obligation.
func (a *Auditor) OnReplace(period int, pl *cluster.Placement, apps, unplaced []string) error {
	v := func(app, detail string) func() Violation {
		return func() Violation {
			return Violation{Rule: RulePlacement, Period: period, App: app, Detail: detail}
		}
	}
	ngpus := pl.NGPUs()
	if a.p.NGPUs > 1 {
		if err := a.check(ngpus == a.p.NGPUs,
			v("", fmt.Sprintf("placement spans %d GPUs, server has %d", ngpus, a.p.NGPUs))); err != nil {
			return err
		}
	}
	if err := a.check(pl.Len()+len(unplaced) == len(apps),
		v("", fmt.Sprintf("%d apps placed + %d unplaced, %d expected", pl.Len(), len(unplaced), len(apps)))); err != nil {
		return err
	}
	if err := a.check(len(unplaced) == 0 || pl.Topology().NAlive() < ngpus, func() Violation {
		return Violation{
			Rule: RuleFaultGPUCrash, Period: period, Session: -1,
			Detail: fmt.Sprintf("%d apps unplaced with every one of %d lanes alive", len(unplaced), ngpus),
		}
	}); err != nil {
		return err
	}
	skip := make(map[string]bool, len(unplaced))
	for _, name := range unplaced {
		skip[name] = true
		a.shedOK[name] = true
		a.suspended[name] = true
		if _, placed := pl.GPU(name); placed {
			if err := a.check(false, v(name, "app both placed and unplaced")); err != nil {
				return err
			}
		}
	}
	alive := pl.Topology().AliveMask()
	for _, name := range apps {
		if skip[name] {
			continue
		}
		g, ok := pl.GPU(name)
		if err := a.check(ok, v(name, "app not placed")); err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := a.check(g >= 0 && g < ngpus,
			v(name, fmt.Sprintf("placed on GPU %d of %d", g, ngpus))); err != nil {
			return err
		}
		if err := a.check(alive&(1<<uint(g)) != 0, func() Violation {
			return Violation{
				Rule: RuleFaultGPUCrash, Period: period, App: name,
				Detail: fmt.Sprintf("placed on dead lane %d (alive mask %#x)", g, alive),
			}
		}); err != nil {
			return err
		}
	}
	a.needPlace = false
	capacity := pl.Topology().PerGPUBytes
	if a.p.PerGPUBytes > 0 {
		capacity = a.p.PerGPUBytes
	}
	for g := 0; g < ngpus; g++ {
		var sum int64
		for _, al := range pl.AppsOn(g) {
			sum += al.WorkingSetBytes
		}
		if err := a.check(sum == pl.BytesOn(g),
			v("", fmt.Sprintf("GPU %d books %d bytes, members sum to %d", g, pl.BytesOn(g), sum))); err != nil {
			return err
		}
		if err := a.check(sum <= capacity,
			v("", fmt.Sprintf("GPU %d holds %d bytes, capacity %d", g, sum, capacity))); err != nil {
			return err
		}
	}
	return nil
}

// AdmitLane pairs one lane with its admission outcome for OnAdmission.
type AdmitLane struct {
	Lane    int
	Outcome *admit.Outcome
}

// OnAdmission observes the period's SLO-feasibility gating: per lane,
// the admitted fractions stay within the lane capacity, shedding occurs
// only when the gate failed, and per-app request accounting is
// consistent. It registers which applications may shed requests (those
// on infeasible lanes plus the unplaced ones) and which must have
// retraining suspended this period.
func (a *Auditor) OnAdmission(period int, laneCapacity float64, lanes []AdmitLane, unplaced []string) error {
	v := func(lane int, app, detail string) func() Violation {
		return func() Violation {
			return Violation{
				Rule: RuleAdmitFeasibility, Period: period, Session: -1, App: app,
				Detail: fmt.Sprintf("lane %d: %s", lane, detail),
			}
		}
	}
	for _, al := range lanes {
		out := al.Outcome
		if a.haveAlive {
			if err := a.check(a.alive&(1<<uint(al.Lane)) != 0,
				v(al.Lane, "", fmt.Sprintf("admission evaluated for dead lane (alive mask %#x)", a.alive))); err != nil {
				return err
			}
		}
		slack := 1e-9
		if laneCapacity > 1 {
			slack *= laneCapacity
		}
		if err := a.check(out.TotalFraction() <= laneCapacity+slack,
			v(al.Lane, "", fmt.Sprintf("admitted fractions sum to %g, lane capacity %g",
				out.TotalFraction(), laneCapacity))); err != nil {
			return err
		}
		for i := range out.Decisions {
			d := &out.Decisions[i]
			if err := a.check(d.Admitted >= 0 && d.Shed >= 0 && d.Admitted+d.Shed == d.Requests,
				v(al.Lane, d.Name, fmt.Sprintf("admitted %d + shed %d != predicted %d",
					d.Admitted, d.Shed, d.Requests))); err != nil {
				return err
			}
			if err := a.check(d.Shed == 0 || !out.Feasible,
				v(al.Lane, d.Name, fmt.Sprintf("%d requests shed although the feasibility gate passed", d.Shed))); err != nil {
				return err
			}
			if !out.Feasible {
				a.shedOK[d.Name] = true
				a.suspended[d.Name] = true
			}
		}
	}
	for _, name := range unplaced {
		a.shedOK[name] = true
		a.suspended[name] = true
	}
	return nil
}

// OnShed observes requests shed in one session. Shedding is legitimate
// only for applications in the period's degraded-admission state (the
// caller still records shed requests as missed, so conservation
// closes — OnServed accounts them).
func (a *Auditor) OnShed(sess int, app string, n int) error {
	if err := a.check(n > 0, func() Violation {
		return Violation{
			Rule: RuleAdmitFeasibility, Period: a.period, Session: sess, App: app,
			Detail: fmt.Sprintf("shed of %d requests", n),
		}
	}); err != nil {
		return err
	}
	return a.check(a.shedOK[app], func() Violation {
		return Violation{
			Rule: RuleAdmitFeasibility, Period: a.period, Session: sess, App: app,
			Detail: fmt.Sprintf("%d requests shed outside the degraded-admission state", n),
		}
	})
}

// OnRetrainCharge observes GPU busy time charged for one whole-pool
// retraining attempt: the charged lane must be alive and the
// application's retraining must not be suspended.
func (a *Auditor) OnRetrainCharge(app string, lane int) error {
	if a.haveAlive {
		if err := a.check(a.alive&(1<<uint(lane)) != 0, func() Violation {
			return Violation{
				Rule: RuleFaultGPUCrash, Period: a.period, Session: -1, App: app,
				Detail: fmt.Sprintf("retraining charged to dead lane %d (alive mask %#x)", lane, a.alive),
			}
		}); err != nil {
			return err
		}
	}
	return a.check(!a.suspended[app], func() Violation {
		return Violation{
			Rule: RuleAdmitFeasibility, Period: a.period, Session: -1, App: app,
			Detail: "retraining ran for an application whose retraining is suspended",
		}
	})
}

// auditJob validates one active job plan: profiled batches, inference
// and retraining time accounting, and the §3.3.2 retraining split.
func (a *Auditor) auditJob(ctx *sched.SessionContext, plan *sched.SessionPlan,
	jr *sched.JobRequest, jp *sched.JobPlan) error {

	sess := ctx.Session
	var inferSum, retrainSum simtime.Duration
	for n := range jp.Nodes {
		np := &jp.Nodes[n]
		sp, err := jr.Profile.StructureProfileFor(np.Node, np.Structure)
		if err == nil {
			_, err = sp.PerBatch(jp.Batch, jp.Fraction)
		}
		if cerr := a.check(err == nil, func() Violation {
			return Violation{
				Rule: RuleBatchProfiled, Period: a.period, Session: sess, App: jp.App, Node: np.Node,
				Detail: fmt.Sprintf("batch %d at fraction %g: %v", jp.Batch, jp.Fraction, err),
				Plan:   snapshotPlan(plan),
			}
		}); cerr != nil {
			return cerr
		}
		if cerr := a.check(np.InferTime >= 0 && np.RetrainTime >= 0 && np.RetrainSamples >= 0, func() Violation {
			return Violation{
				Rule: RuleInferSum, Period: a.period, Session: sess, App: jp.App, Node: np.Node,
				Detail: fmt.Sprintf("negative node accounting: infer %v retrain %v samples %d",
					np.InferTime, np.RetrainTime, np.RetrainSamples),
				Plan: snapshotPlan(plan),
			}
		}); cerr != nil {
			return cerr
		}
		inferSum += np.InferTime
		retrainSum += np.RetrainTime
	}
	if err := a.check(inferSum == jp.InferTime, func() Violation {
		return Violation{
			Rule: RuleInferSum, Period: a.period, Session: sess, App: jp.App,
			Detail: fmt.Sprintf("node inference times sum to %v, job InferTime %v", inferSum, jp.InferTime),
			Plan:   snapshotPlan(plan),
		}
	}); err != nil {
		return err
	}
	if err := a.check(retrainSum == jp.RetrainTime, func() Violation {
		return Violation{
			Rule: RuleInferSum, Period: a.period, Session: sess, App: jp.App,
			Detail: fmt.Sprintf("node retrain times sum to %v, job RetrainTime %v", retrainSum, jp.RetrainTime),
			Plan:   snapshotPlan(plan),
		}
	}); err != nil {
		return err
	}

	if jp.RetrainTime <= 0 {
		return nil
	}

	// §3.3.2: retraining fits into the spare SLO time after inference
	// and the scheduling lead, and splits by drift impact degree.
	slo := jr.Instance.App.SLO
	if err := a.check(jp.InferTime+jp.RetrainTime+plan.Overhead <= slo, func() Violation {
		return Violation{
			Rule: RuleRetrainSLO, Period: a.period, Session: sess, App: jp.App,
			Detail: fmt.Sprintf("infer %v + retrain %v + overhead %v exceeds SLO %v",
				jp.InferTime, jp.RetrainTime, plan.Overhead, slo),
			Plan: snapshotPlan(plan),
		}
	}); err != nil {
		return err
	}
	dag := jr.Dag
	if err := a.check(dag != nil && len(dag.Impact) > 0, func() Violation {
		return Violation{
			Rule: RuleRetrainSplit, Period: a.period, Session: sess, App: jp.App,
			Detail: "retraining assigned with no impacted nodes",
			Plan:   snapshotPlan(plan),
		}
	}); err != nil {
		return err
	}
	if dag == nil || len(dag.Impact) == 0 {
		return nil
	}

	// The split's upper bound uses the unmargined spare time
	// U = SLO − InferTime − Overhead: the implementation holds back a
	// safety margin below U, and the pool-latency cap only lowers
	// budgets, so every sound split satisfies
	// budget_i ≤ max(U·I_i/ΣI, U/n) over the nodes that retrain.
	spare := slo - jp.InferTime - plan.Overhead
	nRetrain := 0
	var totalImpact float64
	for n := range jp.Nodes {
		if jp.Nodes[n].RetrainTime > 0 {
			nRetrain++
			totalImpact += dag.Impact[jp.Nodes[n].Node]
		}
	}
	for n := range jp.Nodes {
		np := &jp.Nodes[n]
		if np.RetrainTime <= 0 {
			continue
		}
		impact, impacted := dag.Impact[np.Node]
		if err := a.check(impacted, func() Violation {
			return Violation{
				Rule: RuleRetrainSplit, Period: a.period, Session: sess, App: jp.App, Node: np.Node,
				Detail: "retraining assigned to a node outside the impact set",
				Plan:   snapshotPlan(plan),
			}
		}); err != nil {
			return err
		}
		if !impacted {
			continue
		}
		limit := spare / simtime.Duration(nRetrain)
		if totalImpact > 0 {
			if prop := simtime.Duration(float64(spare) * impact / totalImpact); prop > limit {
				limit = prop
			}
		}
		// +1 ns absorbs the float→duration truncation at the boundary.
		if err := a.check(np.RetrainTime <= limit+1, func() Violation {
			return Violation{
				Rule: RuleRetrainSplit, Period: a.period, Session: sess, App: jp.App, Node: np.Node,
				Detail: fmt.Sprintf("budget %v exceeds split bound %v (spare %v, impact %g/%g, %d retraining)",
					np.RetrainTime, limit, spare, impact, totalImpact, nRetrain),
				Plan: snapshotPlan(plan),
			}
		}); err != nil {
			return err
		}
	}
	return nil
}

// OnFaultRetrain validates the fault transform of one planned
// whole-pool retraining: the attempt count stays within the retry
// budget (the first attempt plus at most maxRetries retries), and a
// job that retried and was not abandoned completed within the §3.3
// retraining window. A merely slowed job (one attempt) may complete
// past the window — the boundary then discards it, exactly as an
// un-faulted overrun would be.
func (a *Auditor) OnFaultRetrain(planIdx, attempts, maxRetries int,
	completion, windowEnd simtime.Instant, abandoned bool) error {

	if err := a.check(attempts <= maxRetries+1, func() Violation {
		return Violation{
			Rule: RuleFaultRetrain, Period: a.period, Session: -1,
			Detail: fmt.Sprintf("retrain %d ran %d attempts, budget %d (1 + %d retries)",
				planIdx, attempts, maxRetries+1, maxRetries),
		}
	}); err != nil {
		return err
	}
	if abandoned || attempts <= 1 {
		return nil
	}
	return a.check(!completion.After(windowEnd), func() Violation {
		return Violation{
			Rule: RuleFaultRetrain, Period: a.period, Session: -1,
			Detail: fmt.Sprintf("retrain %d retried to completion %v past the retraining window end %v",
				planIdx, completion, windowEnd),
		}
	})
}

// OnFaultDegrade validates the degraded job plan substituted after a
// transient GPU-memory allocation fault: it serves the same app, keeps
// an executable allocation (positive fraction, batch ≥ 1), assigns no
// retraining, uses only profiled structures, and — when the original
// plan was active, sharing the degraded plan's batch and fraction — is
// per-node no slower than the original, so degradation preserves every
// latency SLO the plan met.
func (a *Auditor) OnFaultDegrade(ctx *sched.SessionContext, job int,
	orig, degraded *sched.JobPlan) error {

	sess := ctx.Session
	jr := &ctx.Jobs[job]
	app := jr.Instance.App.Name
	if err := a.check(degraded.App == app, func() Violation {
		return Violation{
			Rule: RuleFaultDegrade, Period: a.period, Session: sess, App: app,
			Detail: fmt.Sprintf("degraded plan labelled %q", degraded.App),
		}
	}); err != nil {
		return err
	}
	if err := a.check(degraded.Fraction > 0 && degraded.Fraction <= 1+eps && degraded.Batch >= 1, func() Violation {
		return Violation{
			Rule: RuleFaultDegrade, Period: a.period, Session: sess, App: app,
			Detail: fmt.Sprintf("degraded allocation fraction %g, batch %d", degraded.Fraction, degraded.Batch),
		}
	}); err != nil {
		return err
	}
	// Original per-node latencies, for the no-slower comparison. Only
	// meaningful when the degraded plan inherited the original's batch
	// and fraction (the substitution copies them from any active plan).
	var origLat map[string]simtime.Duration
	if orig != nil && orig.Fraction == degraded.Fraction && orig.Batch == degraded.Batch {
		origLat = make(map[string]simtime.Duration, len(orig.Nodes))
		for n := range orig.Nodes {
			np := &orig.Nodes[n]
			if sp, err := jr.Profile.StructureProfileFor(np.Node, np.Structure); err == nil {
				if d, err := sp.PerBatch(orig.Batch, orig.Fraction); err == nil {
					origLat[np.Node] = d
				}
			}
		}
	}
	for n := range degraded.Nodes {
		np := &degraded.Nodes[n]
		if err := a.check(np.RetrainTime == 0 && np.RetrainSamples == 0, func() Violation {
			return Violation{
				Rule: RuleFaultDegrade, Period: a.period, Session: sess, App: app, Node: np.Node,
				Detail: fmt.Sprintf("degraded plan assigns retraining (%v, %d samples) under a memory fault",
					np.RetrainTime, np.RetrainSamples),
			}
		}); err != nil {
			return err
		}
		sp, err := jr.Profile.StructureProfileFor(np.Node, np.Structure)
		var lat simtime.Duration
		if err == nil {
			lat, err = sp.PerBatch(degraded.Batch, degraded.Fraction)
		}
		if cerr := a.check(err == nil, func() Violation {
			return Violation{
				Rule: RuleFaultDegrade, Period: a.period, Session: sess, App: app, Node: np.Node,
				Detail: fmt.Sprintf("degraded structure not profiled at batch %d fraction %g: %v",
					degraded.Batch, degraded.Fraction, err),
			}
		}); cerr != nil {
			return cerr
		}
		if err != nil {
			continue
		}
		if ol, ok := origLat[np.Node]; ok {
			if cerr := a.check(lat <= ol, func() Violation {
				return Violation{
					Rule: RuleFaultDegrade, Period: a.period, Session: sess, App: app, Node: np.Node,
					Detail: fmt.Sprintf("degraded latency %v exceeds planned structure's %v at batch %d fraction %g",
						lat, ol, degraded.Batch, degraded.Fraction),
				}
			}); cerr != nil {
				return cerr
			}
		}
	}
	return nil
}

// snapshotPlan renders a session plan into an owned string: scheduler
// plans alias reusable arenas that are invalid after the next
// PlanSession, so violations must copy what they reference.
func snapshotPlan(plan *sched.SessionPlan) string {
	s := fmt.Sprintf("session %d overhead %v:", plan.Session, plan.Overhead)
	for i := range plan.Jobs {
		jp := &plan.Jobs[i]
		s += fmt.Sprintf(" {%s f=%g b=%d infer=%v retrain=%v nodes=%d}",
			jp.App, jp.Fraction, jp.Batch, jp.InferTime, jp.RetrainTime, len(jp.Nodes))
	}
	return s
}
