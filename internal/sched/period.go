package sched

import (
	"math/rand"

	"adainf/internal/simtime"
)

// PeriodContext is what a method sees at the start of each 50 s period.
type PeriodContext struct {
	// Period is the period index.
	Period int
	// Start is the period's start instant.
	Start simtime.Instant
	// Length is the period duration.
	Length simtime.Duration
	// GPUs is the edge server's total GPU amount.
	GPUs float64
	// Jobs are the applications; Requests holds the predicted request
	// count for the whole period (used by period-level planners).
	Jobs []JobRequest
	// Rand drives any stochastic decisions, seeded by the experiment.
	Rand *rand.Rand
}

// PeriodRetrain is one whole-pool retraining task scheduled for the
// period by a continual-learning baseline (Ekya retrains on the edge,
// Scrooge in the cloud).
type PeriodRetrain struct {
	// App and Node identify the model.
	App  string
	Node string
	// Samples is the retraining sample count.
	Samples int
	// Completion is when the retrained model becomes usable by
	// inference; requests served before it use the stale model
	// (Observation 1).
	Completion simtime.Instant
	// GPUFraction is the edge GPU space occupied while retraining
	// (zero for cloud retraining).
	GPUFraction float64
	// Busy is how long the edge GPU fraction stays occupied.
	Busy simtime.Duration
	// OnCloud marks cloud-offloaded retraining (Scrooge).
	OnCloud bool
}

// PeriodPlan is a method's period-level output.
type PeriodPlan struct {
	// Retrains are the whole-pool retraining tasks (empty for AdaInf,
	// whose retraining is incremental inside session jobs).
	Retrains []PeriodRetrain
	// Overhead is the decision time (Table 1: Ekya 8.4 s, AdaInf 4.2 s
	// DAG update — on the CPU, not blocking GPU jobs).
	Overhead simtime.Duration
	// OverheadBlocksGPU reports whether the overhead stalls job
	// scheduling (AdaInf's DAG update runs independently on the CPU
	// and does not).
	OverheadBlocksGPU bool
	// EdgeCloudTransfer and EdgeCloudBytes account the WAN traffic of
	// cloud retraining (Table 1).
	EdgeCloudTransfer simtime.Duration
	EdgeCloudBytes    int64
}

// Method is a complete serving method: period-level continual-learning
// decisions plus per-session resource allocation.
type Method interface {
	Scheduler
	// OnPeriodStart runs drift detection / retraining planning for the
	// period that is starting.
	OnPeriodStart(ctx *PeriodContext) (*PeriodPlan, error)
}

// WindowPlanner marks a Method that solves once per window of several
// sessions and serves the solved plan to every session in the window
// (Scrooge's 100 ms solve). A reused plan's fractions were sized
// against the share of the session that solved it, so the runtime
// auditor bounds their sum by the GPU capacity; every other method's
// fraction sum is bounded by the current session's share.
type WindowPlanner interface {
	// ReusesPlansAcrossSessions is a no-op marker method.
	ReusesPlansAcrossSessions()
}
