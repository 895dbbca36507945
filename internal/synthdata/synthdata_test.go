package synthdata

import (
	"math"
	"runtime"
	"testing"

	"adainf/internal/dist"
	"adainf/internal/mathx"
)

func vehicleSpec() TaskSpec {
	return TaskSpec{
		Name:       "vehicle-type",
		Classes:    []string{"car", "bus", "police", "ambulance"},
		FeatureDim: 8,
		LabelDrift: dist.LabelDrift{WalkSigma: 0.4, ShockProb: 0.3, ShockScale: 2},
	}
}

func TestNewStreamValidation(t *testing.T) {
	bad := []TaskSpec{
		{},
		{Name: "x", Classes: []string{"a"}, FeatureDim: 4},
		{Name: "x", Classes: []string{"a", "b"}, FeatureDim: 0},
		{Name: "x", Classes: []string{"a", "b"}, FeatureDim: 4, InitialWeights: []float64{1}},
	}
	for i, spec := range bad {
		if _, err := NewStream(spec, 1); err == nil {
			t.Errorf("case %d: no error for invalid spec", i)
		}
	}
}

func TestStreamSampleShape(t *testing.T) {
	s, err := NewStream(vehicleSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	samples := s.Sample(100)
	if len(samples) != 100 {
		t.Fatalf("len = %d", len(samples))
	}
	for _, smp := range samples {
		if smp.Class < 0 || smp.Class >= 4 {
			t.Fatalf("class out of range: %d", smp.Class)
		}
		if len(smp.Features) != 8 {
			t.Fatalf("feature dim = %d", len(smp.Features))
		}
		if smp.Period != 0 {
			t.Fatalf("period = %d, want 0", smp.Period)
		}
	}
}

func TestStreamDeterministicForSeed(t *testing.T) {
	a, _ := NewStream(vehicleSpec(), 42)
	b, _ := NewStream(vehicleSpec(), 42)
	sa := a.Sample(10)
	sb := b.Sample(10)
	for i := range sa {
		if sa[i].Class != sb[i].Class {
			t.Fatal("same seed diverged on classes")
		}
		for j := range sa[i].Features {
			if sa[i].Features[j] != sb[i].Features[j] {
				t.Fatal("same seed diverged on features")
			}
		}
	}
}

func TestAdvancePeriodDriftsLabels(t *testing.T) {
	s, _ := NewStream(vehicleSpec(), 7)
	before := s.LabelDist()
	var totalJS float64
	for i := 0; i < 10; i++ {
		p := s.AdvancePeriod()
		if p != i+1 {
			t.Fatalf("period = %d, want %d", p, i+1)
		}
		totalJS += s.PeriodDivergence(p)
	}
	if totalJS == 0 {
		t.Fatal("10 drifting periods produced zero total divergence")
	}
	if before.JSDivergence(s.LabelDist()) == 0 {
		t.Fatal("distribution did not move after 10 periods")
	}
}

func TestZeroDriftTaskStaysPut(t *testing.T) {
	spec := TaskSpec{
		Name:       "object-detection",
		Classes:    []string{"vehicle", "person"},
		FeatureDim: 8,
		// No LabelDrift / FeatureDrift: the paper's detection task.
	}
	s, _ := NewStream(spec, 9)
	m0 := s.ClassMean(0)
	for i := 0; i < 20; i++ {
		s.AdvancePeriod()
		if d := s.PeriodDivergence(s.Period()); d != 0 {
			t.Fatalf("drift-free task diverged: %v at period %d", d, s.Period())
		}
	}
	m1 := s.ClassMean(0)
	if mathx.Norm(mathx.Sub(m0, m1)) != 0 {
		t.Fatal("drift-free class mean moved")
	}
}

func TestLabelDistAtHistory(t *testing.T) {
	s, _ := NewStream(vehicleSpec(), 3)
	p0 := s.LabelDist()
	s.AdvancePeriod()
	s.AdvancePeriod()
	if got := s.LabelDistAt(0); got.JSDivergence(p0) != 0 {
		t.Fatal("history at period 0 does not match original")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unrecorded period")
		}
	}()
	s.LabelDistAt(99)
}

func TestSamplesSeparableByClass(t *testing.T) {
	// With default separation 4 and noise 1, a nearest-mean classifier
	// should get most samples right — the features must carry class
	// signal for the drift detector to work with.
	s, _ := NewStream(vehicleSpec(), 11)
	samples := s.Sample(500)
	correct := 0
	for _, smp := range samples {
		best, bestD := -1, math.Inf(1)
		for c := 0; c < 4; c++ {
			d := mathx.Norm(mathx.Sub(smp.Features, s.ClassMean(c)))
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == smp.Class {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(samples)); acc < 0.9 {
		t.Fatalf("nearest-mean accuracy %v, want ≥0.9 (classes not separable)", acc)
	}
}

func TestDatasetHelpers(t *testing.T) {
	s, _ := NewStream(vehicleSpec(), 5)
	d := Collect(s, 200)
	if d.Task != "vehicle-type" || len(d.Samples) != 200 {
		t.Fatalf("dataset = %q/%d", d.Task, len(d.Samples))
	}
	if got := len(d.MeanFeature()); got != 8 {
		t.Fatalf("MeanFeature dim = %d", got)
	}
	ld := d.LabelDistribution(4)
	var sum float64
	for _, p := range ld {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("label distribution sums to %v", sum)
	}
	if rows := d.FeatureMatrix(); len(rows) != 200 {
		t.Fatalf("FeatureMatrix rows = %d", len(rows))
	}
}

func TestEmpiricalLabelDistTracksTrueDist(t *testing.T) {
	s, _ := NewStream(vehicleSpec(), 13)
	for i := 0; i < 5; i++ {
		s.AdvancePeriod()
	}
	d := Collect(s, 20000)
	emp := d.LabelDistribution(4)
	truth := s.LabelDist().Probs()
	for i := range emp {
		if math.Abs(emp[i]-truth[i]) > 0.02 {
			t.Fatalf("empirical %v vs true %v diverge at class %d", emp, truth, i)
		}
	}
}

func TestPeriodDivergencePanicsOutOfRange(t *testing.T) {
	s, _ := NewStream(vehicleSpec(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.PeriodDivergence(1) // period 1 not yet advanced
}

// benchSpec is a full-scale task: 12-dimensional features, the
// catalog's default.
func benchSpec() TaskSpec {
	spec := vehicleSpec()
	spec.FeatureDim = 12
	return spec
}

// TestSampleAllocsOneBlock guards the pool draw's allocation count: the
// sample slice plus one feature block, however many samples are drawn.
func TestSampleAllocsOneBlock(t *testing.T) {
	s, err := NewStream(benchSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The first collection starts the runtime's background mark
	// workers, which allocate; let it happen before counting.
	runtime.GC()
	if a := testing.AllocsPerRun(20, func() { s.Sample(8000) }); a > 2 {
		t.Fatalf("Sample(8000) allocates %v times, want at most 2", a)
	}
}

// TestSampleFeaturesCapacityLimited checks that samples sharing one
// feature block cannot clobber each other: appending to one sample's
// Features must reallocate rather than overwrite the next sample's.
func TestSampleFeaturesCapacityLimited(t *testing.T) {
	s, err := NewStream(benchSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	samples := s.Sample(3)
	next := mathx.Clone(samples[1].Features)
	grown := append(samples[0].Features, -1, -2, -3)
	if len(grown) != 15 {
		t.Fatalf("append grew to %d entries", len(grown))
	}
	for j, x := range samples[1].Features {
		if x != next[j] {
			t.Fatalf("appending to sample 0 overwrote sample 1's feature %d: %v -> %v", j, next[j], x)
		}
	}
}

// TestCollectIntoMatchesCollect draws the same sequence of pools from
// two identically seeded streams, one with Collect and one recycling
// each pool into the next with CollectInto — through a shrink, so the
// recycled block is larger than the draw, and a grow. Every sample must
// match bit for bit, the class counts must match a rescan, recycled
// samples must stay capacity-limited, and the recycled dataset must be
// left empty.
func TestCollectIntoMatchesCollect(t *testing.T) {
	fresh, err := NewStream(benchSpec(), 9)
	if err != nil {
		t.Fatal(err)
	}
	recycled, _ := NewStream(benchSpec(), 9)
	var prev *Dataset
	for _, n := range []int{500, 200, 3, 800} {
		want := Collect(fresh, n)
		got := CollectInto(recycled, n, prev)
		if got == prev {
			t.Fatal("CollectInto returned the recycled header")
		}
		if prev != nil && (prev.Samples != nil || prev.Derived() != nil) {
			t.Fatal("recycled dataset not emptied")
		}
		if got.Task != want.Task || len(got.Samples) != n {
			t.Fatalf("n=%d: dataset %q/%d", n, got.Task, len(got.Samples))
		}
		for i := range want.Samples {
			w, g := want.Samples[i], got.Samples[i]
			if w.Class != g.Class || w.Period != g.Period || cap(g.Features) != len(g.Features) {
				t.Fatalf("n=%d sample %d: got %+v (cap %d), want %+v", n, i, g, cap(g.Features), w)
			}
			for j := range w.Features {
				if math.Float64bits(w.Features[j]) != math.Float64bits(g.Features[j]) {
					t.Fatalf("n=%d sample %d feature %d: %v != %v", n, i, j, g.Features[j], w.Features[j])
				}
			}
		}
		scan := (&Dataset{Samples: got.Samples}).LabelDistribution(4)
		for c, p := range got.LabelDistribution(4) {
			if p != scan[c] {
				t.Fatalf("n=%d: tallied label mix %v, rescan %v", n, got.LabelDistribution(4), scan)
			}
		}
		if n > 1 {
			next := mathx.Clone(got.Samples[1].Features)
			_ = append(got.Samples[0].Features, -1)
			for j, x := range got.Samples[1].Features {
				if x != next[j] {
					t.Fatalf("n=%d: appending to sample 0 overwrote sample 1's feature %d", n, j)
				}
			}
		}
		fresh.AdvancePeriod()
		recycled.AdvancePeriod()
		prev = got
	}
}

// TestCollectIntoLeavesHandBuiltStorage checks that a hand-built
// dataset handed to CollectInto gives up no storage: its Samples array
// may be shared with a live dataset.
func TestCollectIntoLeavesHandBuiltStorage(t *testing.T) {
	s, _ := NewStream(benchSpec(), 3)
	live := Collect(s, 10)
	keep := live.Samples[5]
	got := CollectInto(s, 10, &Dataset{Samples: live.Samples[:5]})
	if live.Samples[5].Class != keep.Class || &live.Samples[5].Features[0] != &keep.Features[0] {
		t.Fatal("CollectInto wrote into a hand-built dataset's shared Samples array")
	}
	if &got.Samples[0] == &live.Samples[0] {
		t.Fatal("CollectInto reused a hand-built dataset's Samples array")
	}
}

// TestCollectIntoAllocsOnlyHeader guards the steady state of recycled
// pool draws: once the storage fits, a draw allocates only the new
// Dataset header, whatever the pool size.
func TestCollectIntoAllocsOnlyHeader(t *testing.T) {
	s, err := NewStream(benchSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ds := Collect(s, 8000)
	runtime.GC()
	if a := testing.AllocsPerRun(20, func() { ds = CollectInto(s, 8000, ds) }); a != 1 {
		t.Fatalf("CollectInto(8000) into fitting storage allocates %v times, want 1", a)
	}
}

func BenchmarkCollect(b *testing.B) {
	s, err := NewStream(benchSpec(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Collect(s, 8000)
	}
}
