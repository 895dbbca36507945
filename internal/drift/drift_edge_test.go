package drift

import (
	"testing"

	"adainf/internal/app"
	"adainf/internal/dist"
	"adainf/internal/synthdata"
)

// identicalDataset builds n samples of one class sharing one feature
// vector: a maximally degenerate window.
func identicalDataset(task string, n, dim int) *synthdata.Dataset {
	feat := make([]float64, dim)
	for i := range feat {
		feat[i] = 1.5
	}
	ds := &synthdata.Dataset{Task: task}
	for i := 0; i < n; i++ {
		ds.Samples = append(ds.Samples, synthdata.Sample{Class: 0, Features: feat})
	}
	return ds
}

// singleClassWindow collects n samples and keeps only class 0, so the
// window carries a single label and class-mix divergence has no signal.
func singleClassWindow(t *testing.T, seed int64, n int) *synthdata.Dataset {
	t.Helper()
	s, err := synthdata.NewStream(synthdata.TaskSpec{
		Name: "mono", Classes: []string{"only", "other"}, FeatureDim: 6,
		InitialWeights: []float64{0.95, 0.05},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := &synthdata.Dataset{Task: "mono"}
	for len(out.Samples) < n {
		for _, smp := range s.Sample(n) {
			if smp.Class == 0 && len(out.Samples) < n {
				out.Samples = append(out.Samples, smp)
			}
		}
	}
	return out
}

// TestRankByDivergenceEdgeCases covers the degenerate windows the
// period-start ranking must survive: empty windows error cleanly,
// single-class and all-identical windows rank every sample exactly
// once, and equal divergences keep pool order by index.
func TestRankByDivergenceEdgeCases(t *testing.T) {
	monoOld := singleClassWindow(t, 21, 60)
	monoPool := singleClassWindow(t, 22, 40)

	cases := []struct {
		name      string
		old, pool *synthdata.Dataset
		wantErr   bool
		wantLen   int
		identity  bool // ranked must be 0..n-1 (all distances tie)
	}{
		{name: "nil old window", old: nil, pool: monoPool, wantErr: true},
		{name: "empty old window", old: &synthdata.Dataset{}, pool: monoPool, wantErr: true},
		{name: "nil pool window", old: monoOld, pool: nil, wantErr: true},
		{name: "empty pool window", old: monoOld, pool: &synthdata.Dataset{}, wantErr: true},
		{name: "single class", old: monoOld, pool: monoPool, wantLen: 40},
		{name: "single-sample pool", old: monoOld, pool: &synthdata.Dataset{
			Task: "mono", Samples: monoPool.Samples[:1]}, wantLen: 1, identity: true},
		{name: "all-identical distributions", old: identicalDataset("mono", 30, 6),
			pool: identicalDataset("mono", 25, 6), wantLen: 25, identity: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ranked, err := RankByDivergence(tc.old, tc.pool, 4)
			if tc.wantErr {
				if err == nil {
					t.Fatal("degenerate window accepted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(ranked) != tc.wantLen {
				t.Fatalf("ranking covers %d of %d", len(ranked), tc.wantLen)
			}
			seen := make([]bool, tc.wantLen)
			for pos, idx := range ranked {
				if idx < 0 || idx >= tc.wantLen || seen[idx] {
					t.Fatalf("ranking is not a permutation: idx %d at pos %d", idx, pos)
				}
				seen[idx] = true
				if tc.identity && idx != pos {
					t.Fatalf("tied divergences reordered: pos %d got idx %d", pos, idx)
				}
			}
		})
	}
}

// TestDetectNodeEdgeCases covers the degenerate pools the probe loop
// must survive: missing windows error before any probing, a pool
// collapsed onto one class still yields a full stability-checked
// report, and a pool drawn from the training distribution itself (all
// distributions identical) reports no impact.
func TestDetectNodeEdgeCases(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(t *testing.T, ni *app.NodeInstance)
		wantErr  bool
		impacted bool
		check    bool // assert the impacted field
	}{
		{
			name:    "empty pool window",
			mutate:  func(t *testing.T, ni *app.NodeInstance) { ni.Pool = &synthdata.Dataset{} },
			wantErr: true,
		},
		{
			name:    "no old training window",
			mutate:  func(t *testing.T, ni *app.NodeInstance) { ni.OldData = &synthdata.Dataset{} },
			wantErr: true,
		},
		{
			name: "single-class pool",
			mutate: func(t *testing.T, ni *app.NodeInstance) {
				ds := &synthdata.Dataset{Task: ni.Node.Task.Name}
				rng := dist.NewRNG(31)
				for i := 0; i < 300; i++ {
					feat := ni.Stream.ClassMean(0)
					for j := range feat {
						feat[j] += rng.NormFloat64()
					}
					ds.Samples = append(ds.Samples, synthdata.Sample{Class: 0, Features: feat})
				}
				ni.Pool = ds
			},
		},
		{
			name: "identical training and pool distributions",
			mutate: func(t *testing.T, ni *app.NodeInstance) {
				clone := &synthdata.Dataset{Task: ni.Node.Task.Name}
				clone.Samples = append(clone.Samples, ni.OldData.Samples...)
				ni.Pool = clone
			},
			check: true, impacted: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := surveillanceInstance(t, 19, 1)
			ni := inst.ByName["vehicle-type"]
			tc.mutate(t, ni)
			rep, err := DetectNode(ni, Config{}, dist.NewRNG(4))
			if tc.wantErr {
				if err == nil {
					t.Fatal("degenerate window accepted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Rounds) == 0 {
				t.Fatal("no probe rounds recorded")
			}
			if tc.check && rep.Impacted != tc.impacted {
				t.Fatalf("impacted = %v (degree %v), want %v", rep.Impacted, rep.ImpactDegree, tc.impacted)
			}
			// The probe must be a pure function of (node, config, rng seed).
			inst2 := surveillanceInstance(t, 19, 1)
			ni2 := inst2.ByName["vehicle-type"]
			tc.mutate(t, ni2)
			rep2, err := DetectNode(ni2, Config{}, dist.NewRNG(4))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Impacted != rep2.Impacted || rep.ImpactDegree != rep2.ImpactDegree ||
				rep.FinalS != rep2.FinalS || len(rep.Rounds) != len(rep2.Rounds) {
				t.Fatal("detection not deterministic on a degenerate pool")
			}
		})
	}
}
