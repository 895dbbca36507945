package app

import (
	"fmt"

	"adainf/internal/dist"
	"adainf/internal/dnn"
	"adainf/internal/synthdata"
)

// NodeInstance is the live state of one model of a running application:
// its data stream, its deployed knowledge, its early-exit structure
// set, and the datasets drift detection works with.
type NodeInstance struct {
	// Node is the static DAG vertex.
	Node *Node
	// Arch is the node's model architecture.
	Arch *dnn.Arch
	// Stream is the node's drifting data process.
	Stream *synthdata.Stream
	// State is the deployed model's knowledge.
	State *dnn.State
	// Structures are the node's deployable structures, shallowest exit
	// first, full structure last.
	Structures []dnn.Structure
	// InitialAccuracy is I_m: the initially trained model's accuracy
	// on the initial test data (§3.2).
	InitialAccuracy float64
	// OldData are the "old training samples" drift detection compares
	// against: the data the deployed model was last retrained on
	// (initially the bootstrap training set). It advances at a period
	// boundary only if the model was actually retrained during the
	// period — a stale model keeps its old reference, so accumulated
	// drift keeps growing more divergent and cannot be missed twice.
	OldData *synthdata.Dataset
	// Pool are the labelled samples collected during the previous
	// period — the current period's retraining data.
	//
	// A dataset the instance collected stays valid until it leaves the
	// node at a later AdvancePeriod (the pool when the model was not
	// retrained, the old OldData when it was); its storage is then
	// recycled into the next pool. A dataset a caller assigns to Pool or
	// OldData is never recycled. Either way a dataset is immutable:
	// assign a new one to change the pool.
	Pool *synthdata.Dataset
	// UsedSamples counts retraining samples consumed this period so
	// concurrent jobs do not retrain on the same samples (§3.3.2).
	UsedSamples int
	// trainedThisPeriod marks that some retraining updated the model
	// during the current period (see NoteTrained).
	trainedThisPeriod bool
	// ownPool is the pool the instance last collected, and ownOld the
	// collected dataset it holds as OldData (nil when OldData is a
	// caller's). Only these are recycled, once they leave the node.
	ownPool, ownOld *synthdata.Dataset
	// poolDist is PoolDist's answer for the pool poolDistOf.
	poolDist   *dist.Categorical
	poolDistOf *synthdata.Dataset
}

// NoteTrained records that the node's model was retrained during the
// current period, so the period boundary adopts the current pool as the
// model's new "old training samples".
func (ni *NodeInstance) NoteTrained() { ni.trainedThisPeriod = true }

// TrainedThisPeriod reports whether the model was retrained during the
// current period.
func (ni *NodeInstance) TrainedThisPeriod() bool { return ni.trainedThisPeriod }

// LiveDist returns the node's current live class distribution.
func (ni *NodeInstance) LiveDist() *dist.Categorical { return ni.Stream.LabelDist() }

// PoolDist returns the empirical class distribution of the retraining
// pool — the target the golden-model-labelled retraining drives the
// knowledge toward. It is computed once per pool and shared by every
// caller until Pool changes; the distribution is immutable.
func (ni *NodeInstance) PoolDist() (*dist.Categorical, error) {
	if ni.Pool == nil || len(ni.Pool.Samples) == 0 {
		return nil, fmt.Errorf("app: node %q has no retraining pool", ni.Node.Name)
	}
	if ni.poolDistOf != ni.Pool {
		d, err := dist.NewCategorical(ni.Node.Task.Classes, ni.Pool.LabelDistribution(len(ni.Node.Task.Classes)))
		if err != nil {
			return nil, err
		}
		ni.poolDist, ni.poolDistOf = d, ni.Pool
	}
	return ni.poolDist, nil
}

// owns reports whether the instance collected ds for this node.
func (ni *NodeInstance) owns(ds *synthdata.Dataset) bool {
	return ds != nil && (ds == ni.ownPool || ds == ni.ownOld)
}

// RemainingSamples returns how many pool samples have not yet been
// consumed by retraining this period.
func (ni *NodeInstance) RemainingSamples() int {
	if ni.Pool == nil {
		return 0
	}
	n := len(ni.Pool.Samples) - ni.UsedSamples
	if n < 0 {
		return 0
	}
	return n
}

// ConsumeSamples records that n pool samples were used for retraining
// and returns the number actually available (≤ n).
func (ni *NodeInstance) ConsumeSamples(n int) int {
	avail := ni.RemainingSamples()
	if n > avail {
		n = avail
	}
	ni.UsedSamples += n
	return n
}

// FullStructure returns the node's complete structure.
func (ni *NodeInstance) FullStructure() dnn.Structure {
	return ni.Structures[len(ni.Structures)-1]
}

// SmallestStructure returns the node's shallowest-exit structure — the
// cheapest deployable configuration, used as the graceful-degradation
// fallback when GPU memory cannot be allocated for the planned one.
func (ni *NodeInstance) SmallestStructure() dnn.Structure {
	return ni.Structures[0]
}

// Instance is a live application: static DAG plus per-node state.
type Instance struct {
	App *App
	// ByName maps node names to live node state.
	ByName map[string]*NodeInstance
	// ordered caches Nodes order for deterministic iteration.
	ordered []*NodeInstance
	period  int
}

// InstanceConfig tunes instantiation.
type InstanceConfig struct {
	// Seed derives the per-node stream seeds.
	Seed int64
	// BootstrapSamples sizes the initial training set per node
	// (default 2000) — the "first 40% of the dataset" in §2.
	BootstrapSamples int
	// PoolSamples sizes each period's retraining pool per node
	// (default 1000).
	PoolSamples int
	// ExitStride is the early-exit layer stride (default 3, as [22]).
	ExitStride int
	// Kappa is the models' learning-curve constant (samples to close
	// ~63% of a knowledge gap). Default 3200: adapting fully to a
	// period's drift takes a few thousand samples, so retraining GPU
	// time — not the sample pool — is the binding resource, as in the
	// paper's testbed.
	Kappa float64
}

func (c *InstanceConfig) fillDefaults() {
	if c.BootstrapSamples == 0 {
		c.BootstrapSamples = 2000
	}
	if c.PoolSamples == 0 {
		c.PoolSamples = 1000
	}
	if c.ExitStride == 0 {
		c.ExitStride = 3
	}
	if c.Kappa == 0 {
		c.Kappa = 3200
	}
}

// NewInstance builds a live instance of the application: streams are
// created, models are bootstrapped on initial data, and the first
// retraining pool is collected.
func NewInstance(a *App, cfg InstanceConfig) (*Instance, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	inst := &Instance{App: a, ByName: make(map[string]*NodeInstance, len(a.Nodes))}
	for i := range a.Nodes {
		n := &a.Nodes[i]
		arch, ok := dnn.ByName(n.Model)
		if !ok {
			return nil, fmt.Errorf("app %q: node %q uses unknown model %q", a.Name, n.Name, n.Model)
		}
		stream, err := synthdata.NewStream(n.Task, cfg.Seed+int64(i)*7919)
		if err != nil {
			return nil, fmt.Errorf("app %q: node %q: %w", a.Name, n.Name, err)
		}
		boot := synthdata.Collect(stream, cfg.BootstrapSamples)
		bootDist, err := dist.NewCategorical(n.Task.Classes, boot.LabelDistribution(len(n.Task.Classes)))
		if err != nil {
			return nil, fmt.Errorf("app %q: node %q bootstrap: %w", a.Name, n.Name, err)
		}
		state := dnn.NewState(arch, bootDist)
		state.SetKappa(cfg.Kappa)
		// Period 0 serves with fresh models; the first pool is the
		// bootstrap-period data itself.
		pool := synthdata.Collect(stream, cfg.PoolSamples)
		ni := &NodeInstance{
			Node:            n,
			Arch:            arch,
			Stream:          stream,
			State:           state,
			Structures:      dnn.EarlyExitStructures(arch, cfg.ExitStride),
			InitialAccuracy: state.Accuracy(stream.LabelDist()),
			OldData:         boot,
			Pool:            pool,
			ownPool:         pool,
			ownOld:          boot,
		}
		inst.ByName[n.Name] = ni
		inst.ordered = append(inst.ordered, ni)
	}
	return inst, nil
}

// Nodes returns the node instances in DAG (topological) order.
func (i *Instance) Nodes() []*NodeInstance { return i.ordered }

// ShockDrift applies an abrupt, out-of-schedule drift spike to every
// node's stream: one class surges by intensity and its feature mean
// shifts along its novelty direction, while the retraining pool —
// already collected from the pre-shock distribution — goes stale. The
// seed derives per-node sub-seeds with the same stride NewInstance uses,
// so injection never consumes the streams' own RNG state.
func (i *Instance) ShockDrift(seed int64, intensity float64) {
	for k, ni := range i.ordered {
		ni.Stream.Shock(dist.NewRNG(seed+int64(k)*7919), intensity)
	}
}

// Period returns the current period index.
func (i *Instance) Period() int { return i.period }

// AdvancePeriod ends the current period: each node that was retrained
// adopts its pool as the new "old training samples", a fresh pool is
// sampled from the closing period's distribution, and the streams
// drift into the new period. The dataset that leaves the node — the
// old reference of a retrained node, the pool of any other — is
// recycled into the new pool if the instance collected it. poolSamples
// ≤ 0 keeps each node's previous pool size.
func (i *Instance) AdvancePeriod(poolSamples int) {
	for _, ni := range i.ordered {
		n := poolSamples
		if n <= 0 {
			n = len(ni.Pool.Samples)
		}
		leaving := ni.Pool
		if ni.trainedThisPeriod {
			// The model now reflects this pool: it becomes the drift
			// detector's reference. An un-retrained model keeps its
			// older reference so accumulated drift stays visible.
			leaving, ni.OldData = ni.OldData, ni.Pool
			ni.trainedThisPeriod = false
		}
		var reuse *synthdata.Dataset
		if ni.owns(leaving) && leaving != ni.OldData {
			reuse = leaving
		}
		if ni.owns(ni.OldData) {
			ni.ownOld = ni.OldData
		} else {
			ni.ownOld = nil
		}
		// The new pool is drawn from the period that is ending — the
		// requests "collected during the previous time period" (§1).
		ni.Pool = synthdata.CollectInto(ni.Stream, n, reuse)
		ni.ownPool = ni.Pool
		ni.UsedSamples = 0
		ni.Stream.AdvancePeriod()
	}
	i.period++
}
