// Package drift implements AdaInf's data-drift impact detection (§3.2):
// it identifies which models of an application are impacted by drift in
// the newly collected training data, and by how much.
//
// The mechanism follows the paper exactly. For a model m:
//
//  1. take the S most divergent new samples — divergence is the cosine
//     distance between a sample's PCA-reduced feature vector and the
//     mean (PCA-reduced) feature vector of the old training samples;
//  2. probe the current model on those S samples, yielding accuracy
//     I'_m, and compare against the initially trained model's accuracy
//     I_m: the model is impacted if I'_m < I_m;
//  3. grow S step by step and repeat until the decision is unchanged
//     for n consecutive rounds (Table 2);
//  4. the impact degree is I_m − I'_m.
package drift

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"adainf/internal/app"
	"adainf/internal/mathx"
	"adainf/internal/synthdata"
)

// Config parameterizes the detector. Zero values take the paper's
// defaults (§4): S starts at 3% of the pool and grows by 3% per round,
// the decision must hold for 4 consecutive rounds, and features are
// reduced to 4 principal components.
type Config struct {
	InitialS      float64 // initial S as a fraction of the pool
	StepS         float64 // per-round S increment (fraction)
	StableRounds  int     // n: consecutive identical results to stop
	PCAComponents int
	// ImpactMargin guards the I'_m < I_m comparison against sampling
	// noise on small probes; a model is impacted when
	// I'_m < I_m − ImpactMargin. Default 0.01 — above the empirical
	// class-mix sampling noise of period pools, far below real shock
	// impact degrees (~0.1–0.4).
	ImpactMargin float64
}

func (c *Config) fillDefaults() {
	if c.InitialS == 0 {
		c.InitialS = 0.03
	}
	if c.StepS == 0 {
		c.StepS = 0.03
	}
	if c.StableRounds == 0 {
		c.StableRounds = 4
	}
	if c.PCAComponents == 0 {
		c.PCAComponents = 4
	}
	if c.ImpactMargin == 0 {
		c.ImpactMargin = 0.01
	}
}

// Round records one S-growth step of the detection loop (Table 2 rows).
type Round struct {
	SFraction     float64
	SampleCount   int
	ProbeAccuracy float64
	Impacted      bool
}

// Report is the detection outcome for one model.
type Report struct {
	Node string
	// Impacted is the converged decision.
	Impacted bool
	// ImpactDegree is max(0, I_m − I'_m) at the final round; zero when
	// not impacted.
	ImpactDegree float64
	// ProbeAccuracy is I'_m at the final round.
	ProbeAccuracy float64
	// InitialAccuracy is I_m.
	InitialAccuracy float64
	// FinalS is the S fraction the loop stopped at.
	FinalS float64
	// Rounds traces every step (Table 2).
	Rounds []Round
}

// scored is one pool sample's divergence from the old training data.
type scored struct {
	idx  int
	dist float64
}

// moreDivergent is the ranking's strict total order: larger distance
// first, and equal distances in increasing pool index — exactly the
// order a stable sort by decreasing distance produces.
func moreDivergent(a, b scored) int {
	switch {
	case a.dist > b.dist:
		return -1
	case a.dist < b.dist:
		return 1
	}
	return cmp.Compare(a.idx, b.idx)
}

// reference is the old training data every divergence is measured
// against: the PCA basis fitted on the old samples, their mean feature
// vector projected onto it, and that projection's norm.
type reference struct {
	components int // the PCAComponents it was fitted with
	pca        *mathx.PCA
	mean       []float64
	norm       float64
}

// referenceFor returns old's reference, fitting it on first use. The
// old dataset is immutable and changes only when a model is retrained,
// so the fit is kept on the dataset itself (Dataset.SetDerived) and
// every later DetectNode, RankByDivergence and SelectRetrainSamples
// against the same dataset reuses it; a reassigned OldData is a new
// dataset and is fitted afresh.
func referenceFor(old *synthdata.Dataset, pcaComponents int) (*reference, error) {
	if ref, ok := old.Derived().(*reference); ok && ref.components == pcaComponents {
		return ref, nil
	}
	pca, err := mathx.FitPCA(old.FeatureMatrix(), pcaComponents)
	if err != nil {
		return nil, fmt.Errorf("drift: PCA fit: %w", err)
	}
	// Project without centering: cosine distance is origin-sensitive,
	// and centering on the old data's mean would map that mean to the
	// zero vector.
	mean := pca.Project(old.MeanFeature())
	ref := &reference{components: pcaComponents, pca: pca, mean: mean, norm: mathx.Norm(mean)}
	old.SetDerived(ref)
	return ref, nil
}

// scorePool computes every pool sample's divergence, in pool order: the
// cosine distance of its PCA-reduced feature vector to the old data's
// mean reduced feature vector, with the PCA basis fitted on the old
// samples (see referenceFor). Every sample is projected through one
// reused buffer.
func scorePool(old, pool *synthdata.Dataset, pcaComponents int) ([]scored, error) {
	if old == nil || len(old.Samples) == 0 {
		return nil, fmt.Errorf("drift: no old training samples")
	}
	if pool == nil || len(pool.Samples) == 0 {
		return nil, fmt.Errorf("drift: empty pool")
	}
	ref, err := referenceFor(old, pcaComponents)
	if err != nil {
		return nil, err
	}
	buf := make([]float64, ref.pca.Components())
	xs := make([]scored, len(pool.Samples))
	for i, s := range pool.Samples {
		xs[i] = scored{idx: i, dist: mathx.CosineDistanceTo(ref.pca.ProjectInto(buf, s.Features), ref.mean, ref.norm)}
	}
	return xs, nil
}

// RankByDivergence orders pool sample indices by decreasing divergence
// from the old training data: cosine distance of the PCA-reduced
// feature vector to the old data's mean reduced feature vector. The
// PCA basis is fitted on the old samples. Equal divergences keep pool
// order by index.
func RankByDivergence(old, pool *synthdata.Dataset, pcaComponents int) ([]int, error) {
	xs, err := scorePool(old, pool, pcaComponents)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(xs, moreDivergent)
	out := make([]int, len(xs))
	for i, s := range xs {
		out[i] = s.idx
	}
	return out, nil
}

// divergenceHeap is a binary min-heap under moreDivergent: popping it
// yields the pool in RankByDivergence order, most divergent first.
// Heapifying is O(n) and each pop O(log n), so a probe that reads only
// the top S samples never orders the rest of the pool.
type divergenceHeap []scored

func newDivergenceHeap(xs []scored) divergenceHeap {
	h := divergenceHeap(xs)
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

func (h divergenceHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && moreDivergent(h[r], h[j]) < 0 {
			j = r
		}
		if moreDivergent(h[j], h[i]) >= 0 {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// pop removes and returns the most divergent remaining sample.
func (h *divergenceHeap) pop() scored {
	old := *h
	top, last := old[0], len(old)-1
	old[0] = old[last]
	*h = old[:last]
	h.down(0)
	return top
}

// DetectNode runs the S-growth detection loop for one node. The rng
// parameter is kept for API stability; the probe itself is
// deterministic given the pool.
func DetectNode(ni *app.NodeInstance, cfg Config, rng *rand.Rand) (Report, error) {
	cfg.fillDefaults()
	rep := Report{Node: ni.Node.Name, InitialAccuracy: ni.InitialAccuracy}
	xs, err := scorePool(ni.OldData, ni.Pool, cfg.PCAComponents)
	if err != nil {
		return rep, err
	}
	// The loop reads the ranking lazily: each round pops only the
	// samples its larger S adds, in RankByDivergence order.
	ranked := newDivergenceHeap(xs)
	poolDist, err := ni.PoolDist()
	if err != nil {
		return rep, err
	}
	full := ni.FullStructure()

	// The probe's CorrectProb depends only on the sample's class (the
	// state, pool distribution, and structure are fixed for the whole
	// detection loop), so evaluate it once per class up front.
	probByClass := make([]float64, poolDist.K())
	for c := range probByClass {
		probByClass[c] = ni.State.CorrectProb(c, poolDist, full)
	}

	stable := 0
	var last bool
	// covered/sum extend the probe sum incrementally: n never shrinks
	// across rounds, and appending to a left-to-right running sum is
	// bit-identical to re-summing the top n from scratch.
	covered := 0
	var sum float64
	for s := cfg.InitialS; ; s += cfg.StepS {
		if s > 1 {
			s = 1
		}
		n := int(s * float64(len(xs)))
		if n < 1 {
			n = 1
		}
		// Probe accuracy I'_m on the S most divergent samples. The
		// probe is the model's expected accuracy over the chosen
		// samples: the real system's probe errors are deterministic
		// given the samples, so the Bernoulli abstraction would only
		// add artificial noise here.
		for ; covered < n; covered++ {
			sum += probByClass[ni.Pool.Samples[ranked.pop().idx].Class]
		}
		acc := sum / float64(n)
		impacted := acc < rep.InitialAccuracy-cfg.ImpactMargin
		rep.Rounds = append(rep.Rounds, Round{
			SFraction: s, SampleCount: n, ProbeAccuracy: acc, Impacted: impacted,
		})
		rep.ProbeAccuracy = acc
		rep.FinalS = s
		if len(rep.Rounds) > 1 && impacted == last {
			stable++
		} else {
			stable = 1
		}
		last = impacted
		if stable >= cfg.StableRounds || s >= 1 {
			rep.Impacted = impacted
			break
		}
	}
	if rep.Impacted {
		rep.ImpactDegree = rep.InitialAccuracy - rep.ProbeAccuracy
		if rep.ImpactDegree < 0 {
			rep.ImpactDegree = 0
		}
	}
	return rep, nil
}

// DetectApp runs detection for every node of an instance, returning
// reports keyed by node name.
func DetectApp(inst *app.Instance, cfg Config, rng *rand.Rand) (map[string]Report, error) {
	out := make(map[string]Report, len(inst.Nodes()))
	for _, ni := range inst.Nodes() {
		rep, err := DetectNode(ni, cfg, rng)
		if err != nil {
			return nil, fmt.Errorf("drift: app %q node %q: %w", inst.App.Name, ni.Node.Name, err)
		}
		out[ni.Node.Name] = rep
	}
	return out, nil
}

// SelectRetrainSamples picks the n most divergent unused pool samples
// for a retraining task (§3.3.2) and marks them consumed. It returns
// the selected sample indices (at most the node's remaining budget).
func SelectRetrainSamples(ni *app.NodeInstance, n int, pcaComponents int) ([]int, error) {
	if n <= 0 {
		return nil, nil
	}
	ranked, err := RankByDivergence(ni.OldData, ni.Pool, pcaComponents)
	if err != nil {
		return nil, err
	}
	// Skip the samples other jobs already consumed: the ranking is
	// deterministic within a period, so the first UsedSamples entries
	// are exactly the ones taken before.
	start := ni.UsedSamples
	if start >= len(ranked) {
		return nil, nil
	}
	avail := len(ranked) - start
	if n > avail {
		n = avail
	}
	picked := ranked[start : start+n]
	ni.ConsumeSamples(n)
	return append([]int(nil), picked...), nil
}
