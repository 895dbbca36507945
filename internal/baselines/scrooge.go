package baselines

import (
	"fmt"
	"time"

	"adainf/internal/cloud"
	"adainf/internal/profile"
	"adainf/internal/sched"
	"adainf/internal/simtime"
)

// ScroogeOverhead is the optimization solve time (Table 1: 100 ms); the
// solve covers all the 5 ms sessions within that window.
const ScroogeOverhead = 100 * time.Millisecond

// Scrooge is the cost-optimizing serving baseline [10]. Every 100 ms
// it solves an allocation that satisfies latency SLOs with minimal GPU
// amount (our edge-constrained variant); every period it offloads
// retraining to the cloud, so updated models only arrive after the
// WAN transfer plus cloud training time (Table 1: 34.1 s transfer).
//
// Star selects Scrooge*: after solving, the GPU amounts are scaled
// proportionally into the edge capacity instead of greedily capped.
type Scrooge struct {
	Star        bool
	Trainer     cloud.Trainer
	minFraction float64

	// cached plan, reused for the sessions inside one solve window.
	// cachedGPU pins the cache to the GPU lane it solved for: on a
	// sharded server the same Scrooge instance plans every lane in turn,
	// and two lanes with equal job counts must not trade plans.
	cachedWindow int
	cachedGPU    int
	cached       *sched.SessionPlan
	transferTime simtime.Duration
	transferred  int64

	// costs holds the per-profile latency-probe memos installed on
	// every solved session's jobs (see installCosts).
	costs map[*profile.AppProfile]*profile.LatencyCache
}

// NewScrooge returns the Scrooge baseline (set star for Scrooge*).
func NewScrooge(star bool) *Scrooge {
	return &Scrooge{Star: star, Trainer: cloud.DefaultTrainer(), minFraction: 0.02}
}

// Name implements sched.Scheduler.
func (s *Scrooge) Name() string {
	if s.Star {
		return "Scrooge*"
	}
	return "Scrooge"
}

// LastTransfer reports the WAN time and bytes of the last period's
// cloud retraining (Table 1).
func (s *Scrooge) LastTransfer() (simtime.Duration, int64) {
	return s.transferTime, s.transferred
}

// OnPeriodStart implements sched.Method: ship every model's pool to the
// cloud, retrain there, and download the updated weights. Requests
// served before a model's round trip completes use the stale model.
func (s *Scrooge) OnPeriodStart(ctx *sched.PeriodContext) (*sched.PeriodPlan, error) {
	var jobs []cloud.RetrainJob
	for i := range ctx.Jobs {
		jr := &ctx.Jobs[i]
		for _, ni := range jr.Instance.Nodes() {
			jobs = append(jobs, cloud.RetrainJob{
				App: jr.Instance.App.Name, Node: ni.Node.Name,
				Arch: ni.Arch, Samples: ni.RemainingSamples(),
			})
		}
	}
	results, transfer, bytes, err := s.Trainer.Retrain(ctx.Start, jobs)
	if err != nil {
		return nil, fmt.Errorf("baselines: scrooge cloud retrain: %w", err)
	}
	s.transferTime, s.transferred = transfer, bytes
	plan := &sched.PeriodPlan{
		EdgeCloudTransfer: transfer,
		EdgeCloudBytes:    bytes,
	}
	for _, r := range results {
		if r.Job.Samples <= 0 {
			continue
		}
		plan.Retrains = append(plan.Retrains, sched.PeriodRetrain{
			App: r.Job.App, Node: r.Job.Node, Samples: r.Job.Samples,
			Completion: r.Completion, OnCloud: true,
		})
	}
	s.cached = nil // new period invalidates the solve cache
	return plan, nil
}

// ReusesPlansAcrossSessions implements sched.WindowPlanner: one solve
// serves every session of its 100 ms window.
func (s *Scrooge) ReusesPlansAcrossSessions() {}

// PlanSession implements sched.Scheduler. The optimization solve runs
// once per 100 ms window (20 sessions) and its allocation is reused for
// every session in the window, since the solve itself takes ~100 ms.
func (s *Scrooge) PlanSession(ctx *sched.SessionContext) (*sched.SessionPlan, error) {
	window := int(ctx.Start.Duration() / ScroogeOverhead)
	if s.cached != nil && window == s.cachedWindow && s.cachedGPU == ctx.GPU && len(s.cached.Jobs) == len(ctx.Jobs) {
		plan := *s.cached
		plan.Session = ctx.Session
		plan.Overhead = 0 // already paid at the window's first session
		return &plan, nil
	}
	plan, err := s.solve(ctx)
	if err != nil {
		return nil, err
	}
	s.cached = plan
	s.cachedWindow = window
	s.cachedGPU = ctx.GPU
	return plan, nil
}

// solve is the optimization: each job receives the minimal GPU amount
// and the batch size that satisfy its SLO; the edge-capacity constraint
// is enforced greedily (Scrooge) or by proportional scaling (Scrooge*).
func (s *Scrooge) solve(ctx *sched.SessionContext) (*sched.SessionPlan, error) {
	plan := &sched.SessionPlan{Session: ctx.Session, Overhead: ScroogeOverhead}
	for i := range ctx.Jobs {
		ctx.Jobs[i].Requests = sched.PadRequests(ctx.Jobs[i].Requests)
	}
	s.costs = installCosts(s.costs, ctx.Jobs)
	type solved struct {
		fraction float64
		batch    int
	}
	sol := make([]solved, len(ctx.Jobs))
	var total float64
	for i := range ctx.Jobs {
		jr := &ctx.Jobs[i]
		if jr.Requests <= 0 {
			continue
		}
		structs := sched.FullStructures(jr)
		batch, _, err := sched.BestBatch(jr, structs, 1.0)
		if err != nil {
			return nil, err
		}
		f, err := sched.RequiredFraction(jr, structs, batch, s.minFraction)
		if err != nil {
			return nil, err
		}
		sol[i] = solved{fraction: f, batch: batch}
		total += f
	}
	// Edge capacity constraint.
	if total > ctx.GPUShare && total > 0 {
		if s.Star {
			// Scrooge*: proportional scaling into the share.
			scale := ctx.GPUShare / total
			for i := range sol {
				sol[i].fraction *= scale
			}
		} else {
			// Scrooge: allocate in order until the share is exhausted.
			remaining := ctx.GPUShare
			for i := range sol {
				if sol[i].fraction > remaining {
					sol[i].fraction = remaining
				}
				remaining -= sol[i].fraction
			}
		}
	}
	for i := range ctx.Jobs {
		jr := &ctx.Jobs[i]
		if jr.Requests <= 0 {
			plan.Jobs = append(plan.Jobs, sched.JobPlan{App: jr.Instance.App.Name})
			continue
		}
		f := sol[i].fraction
		if f < s.minFraction {
			f = s.minFraction
		}
		structs := sched.FullStructures(jr)
		// Re-adjust batch for the actually granted space.
		batch, _, err := sched.BestBatch(jr, structs, f)
		if err != nil {
			return nil, err
		}
		jp := sched.JobPlan{App: jr.Instance.App.Name, Fraction: f, Batch: batch}
		nBatches := (jr.Requests + batch - 1) / batch
		for ni, np := range jr.Profile.Index() {
			sp, err := np.ForStructure(structs[ni])
			if err != nil {
				return nil, err
			}
			per, err := sp.PerBatch(batch, f)
			if err != nil {
				return nil, err
			}
			it := per * simtime.Duration(nBatches)
			jp.InferTime += it
			jp.Nodes = append(jp.Nodes, sched.NodePlan{
				Node: np.Node, Structure: structs[ni], InferTime: it,
			})
		}
		plan.Jobs = append(plan.Jobs, jp)
	}
	return plan, nil
}
