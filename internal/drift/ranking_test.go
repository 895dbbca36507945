package drift

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"adainf/internal/app"
	"adainf/internal/dist"
	"adainf/internal/synthdata"
)

// referenceDetect is DetectNode written against RankByDivergence's full
// ranking: every round re-sums the probe over ranked[:n] from scratch.
// DetectNode's lazy top-S heap and running sum must reproduce it bit
// for bit.
func referenceDetect(t *testing.T, ni *app.NodeInstance, cfg Config) Report {
	t.Helper()
	cfg.fillDefaults()
	rep := Report{Node: ni.Node.Name, InitialAccuracy: ni.InitialAccuracy}
	ranked, err := RankByDivergence(ni.OldData, ni.Pool, cfg.PCAComponents)
	if err != nil {
		t.Fatal(err)
	}
	poolDist, err := ni.PoolDist()
	if err != nil {
		t.Fatal(err)
	}
	full := ni.FullStructure()
	stable := 0
	var last bool
	for s := cfg.InitialS; ; s += cfg.StepS {
		if s > 1 {
			s = 1
		}
		n := max(int(s*float64(len(ranked))), 1)
		var sum float64
		for _, idx := range ranked[:n] {
			sum += ni.State.CorrectProb(ni.Pool.Samples[idx].Class, poolDist, full)
		}
		acc := sum / float64(n)
		impacted := acc < rep.InitialAccuracy-cfg.ImpactMargin
		rep.Rounds = append(rep.Rounds, Round{SFraction: s, SampleCount: n, ProbeAccuracy: acc, Impacted: impacted})
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
		rep.ImpactDegree = max(rep.InitialAccuracy-rep.ProbeAccuracy, 0)
	}
	return rep
}

// duplicatedPool rebuilds the node's pool from only `distinct` feature
// vectors: sample i takes vector i mod distinct and keeps its own class,
// so every divergence is shared by samples of different classes spread
// across the pool, and the probe depends on how ties are ordered.
func duplicatedPool(ni *app.NodeInstance, distinct int) *synthdata.Dataset {
	ds := &synthdata.Dataset{Task: ni.Pool.Task}
	for i, s := range ni.Pool.Samples {
		ds.Samples = append(ds.Samples, synthdata.Sample{
			Class: s.Class, Features: ni.Pool.Samples[i%distinct].Features, Period: s.Period,
		})
	}
	return ds
}

// tiedAtBoundary reports whether some round's probe stops inside a run
// of equal divergences, i.e. the S-th and (S+1)-th ranked samples tie.
func tiedAtBoundary(t *testing.T, ni *app.NodeInstance, rep Report) bool {
	t.Helper()
	xs, err := scorePool(ni.OldData, ni.Pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := make([]float64, len(xs))
	for i, x := range xs {
		d[i] = x.dist
	}
	ranked, err := RankByDivergence(ni.OldData, ni.Pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rounds {
		if n := r.SampleCount; n < len(ranked) && d[ranked[n-1]] == d[ranked[n]] {
			return true
		}
	}
	return false
}

// TestDetectNodeMatchesFullRanking pins the lazy probe to the full
// ranking: the whole Report — every Round, ProbeAccuracy, FinalS —
// equals referenceDetect on generated pools, on pools whose features
// are all identical, and on pools of duplicated feature vectors whose
// exact ties straddle an S-round boundary.
func TestDetectNodeMatchesFullRanking(t *testing.T) {
	type pool struct {
		name   string
		ni     *app.NodeInstance
		cfg    Config
		wantTB bool // the pool must put a tie across a round boundary
	}
	var pools []pool
	for _, seed := range []int64{1, 7, 19} {
		inst := surveillanceInstance(t, seed, 3)
		for _, ni := range inst.Nodes() {
			pools = append(pools, pool{name: "generated/" + ni.Node.Name, ni: ni})
		}
	}
	shocked := surveillanceInstance(t, 3, 0).ByName["vehicle-type"]
	target, err := dist.NewCategorical(shocked.Node.Task.Classes, []float64{0.05, 0.05, 0.1, 0.4, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	shocked.State = rebindKnowledge(t, shocked, []float64{0.7, 0.15, 0.1, 0.03, 0.02})
	shocked.Pool = poolFromDist(t, shocked, target, 1000)
	pools = append(pools, pool{name: "impacted", ni: shocked})

	dim := len(shocked.Pool.Samples[0].Features)
	identical := surveillanceInstance(t, 19, 1).ByName["vehicle-type"]
	identical.OldData = identicalDataset("mono", 30, dim)
	identical.Pool = identicalDataset("mono", 25, dim)
	pools = append(pools, pool{name: "all-identical", ni: identical, wantTB: true})

	mixed := surveillanceInstance(t, 19, 1).ByName["vehicle-type"]
	mixed.Pool = identicalDataset("mono", 400, dim)
	for i := range mixed.Pool.Samples {
		mixed.Pool.Samples[i].Class = i % len(mixed.Node.Task.Classes)
	}
	pools = append(pools, pool{name: "all-identical mixed classes", ni: mixed, wantTB: true})

	for _, distinct := range []int{7, 20} {
		dup := surveillanceInstance(t, 5, 2).ByName["vehicle-type"]
		dup.Pool = duplicatedPool(dup, distinct)
		name := fmt.Sprintf("duplicated %d vectors", distinct)
		pools = append(pools, pool{name: name, ni: dup, wantTB: true})
		// Small steps put many more round boundaries inside tie runs.
		pools = append(pools, pool{name: name + " fine steps", ni: dup,
			cfg: Config{InitialS: 0.011, StepS: 0.007, StableRounds: 6}, wantTB: true})
	}

	for _, p := range pools {
		t.Run(p.name, func(t *testing.T) {
			got, err := DetectNode(p.ni, p.cfg, dist.NewRNG(1))
			if err != nil {
				t.Fatal(err)
			}
			want := referenceDetect(t, p.ni, p.cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("lazy probe diverged from the full ranking:\n got %+v\nwant %+v", got, want)
			}
			if p.wantTB && !tiedAtBoundary(t, p.ni, got) {
				t.Fatal("pool puts no tie across a round boundary; the case tests nothing")
			}
		})
	}
}

// TestRankByDivergenceTiesKeepIndexOrder checks that samples of equal
// divergence come out in increasing pool index.
func TestRankByDivergenceTiesKeepIndexOrder(t *testing.T) {
	ni := surveillanceInstance(t, 5, 2).ByName["vehicle-type"]
	ni.Pool = duplicatedPool(ni, 20)
	xs, err := scorePool(ni.OldData, ni.Pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := RankByDivergence(ni.OldData, ni.Pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	ties := 0
	for k := 1; k < len(ranked); k++ {
		a, b := xs[ranked[k-1]], xs[ranked[k]]
		if a.dist < b.dist {
			t.Fatalf("rank %d: distance rises %v -> %v", k, a.dist, b.dist)
		}
		if a.dist == b.dist {
			ties++
			if a.idx > b.idx {
				t.Fatalf("rank %d: tied samples %d and %d out of index order", k, a.idx, b.idx)
			}
		}
	}
	if ties == 0 {
		t.Fatal("duplicated pool produced no ties")
	}
}

// TestDetectNodeAllocsIndependentOfPoolSize guards the period-start
// path's allocation count: scoring reuses one projection buffer and the
// lazy ranking allocates nothing per sample, so a 2000-sample pool and
// an 8000-sample pool cost the same number of allocations.
func TestDetectNodeAllocsIndependentOfPoolSize(t *testing.T) {
	allocs := func(n int) (float64, int) {
		ni := surveillanceInstance(t, 1, 1).ByName["object-detection"]
		ni.Pool = synthdata.Collect(ni.Stream, n)
		rng := dist.NewRNG(1)
		rep, err := DetectNode(ni, Config{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC() // start the collector's workers before counting
		return testing.AllocsPerRun(20, func() {
			if _, err := DetectNode(ni, Config{}, rng); err != nil {
				t.Fatal(err)
			}
		}), len(rep.Rounds)
	}
	small, smallRounds := allocs(2000)
	large, largeRounds := allocs(8000)
	if smallRounds != largeRounds {
		// Rounds grow by append; equal counts keep that out of the guard.
		t.Fatalf("pools converge in %d vs %d rounds; pick pools that agree", smallRounds, largeRounds)
	}
	if small != large {
		t.Fatalf("DetectNode allocates %v times on 2000 samples but %v on 8000", small, large)
	}
}

// benchNode is a node with a 2000-sample bootstrap reference and an
// 8000-sample pool, the sizes of a full-scale period start.
func benchNode(b *testing.B) *app.NodeInstance {
	b.Helper()
	inst, err := app.NewInstance(app.VideoSurveillance(), app.InstanceConfig{
		Seed: 1, BootstrapSamples: 2000, PoolSamples: 8000,
	})
	if err != nil {
		b.Fatal(err)
	}
	inst.AdvancePeriod(0)
	return inst.ByName["vehicle-type"]
}

func BenchmarkDetectNode(b *testing.B) {
	ni := benchNode(b)
	rng := dist.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DetectNode(ni, Config{}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRankByDivergence(b *testing.B) {
	ni := benchNode(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RankByDivergence(ni.OldData, ni.Pool, 4); err != nil {
			b.Fatal(err)
		}
	}
}
