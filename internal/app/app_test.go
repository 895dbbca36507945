package app

import (
	"math"
	"runtime"
	"testing"
	"time"

	"adainf/internal/synthdata"
)

func TestCatalogValid(t *testing.T) {
	apps := Catalog()
	if len(apps) != 8 {
		t.Fatalf("catalog size = %d, want 8 (§4 default)", len(apps))
	}
	names := make(map[string]bool)
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
		if names[a.Name] {
			t.Errorf("duplicate app name %q", a.Name)
		}
		names[a.Name] = true
		if a.SLO < 400*time.Millisecond || a.SLO > 600*time.Millisecond {
			t.Errorf("%s SLO %v outside the paper's [400,600] ms", a.Name, a.SLO)
		}
	}
}

func TestVideoSurveillanceShape(t *testing.T) {
	vs := VideoSurveillance()
	if got := vs.Roots(); len(got) != 1 || got[0] != "object-detection" {
		t.Fatalf("roots = %v", got)
	}
	leaves := vs.Leaves()
	if len(leaves) != 2 {
		t.Fatalf("leaves = %v, want vehicle-type and person-activity", leaves)
	}
	if vs.SLOms() != 400 {
		t.Fatalf("SLOms = %v", vs.SLOms())
	}
	if vs.Node("vehicle-type") == nil || vs.Node("nope") != nil {
		t.Fatal("Node lookup broken")
	}
	// Drift asymmetry of Fig. 6: detection static, vehicle > person.
	det := vs.Node("object-detection").Task.LabelDrift.Magnitude()
	veh := vs.Node("vehicle-type").Task.LabelDrift.Magnitude()
	per := vs.Node("person-activity").Task.LabelDrift.Magnitude()
	if det != 0 {
		t.Errorf("object detection drifts: %v", det)
	}
	if !(veh > per && per > 0) {
		t.Errorf("drift ordering broken: vehicle %v, person %v", veh, per)
	}
}

func TestSocialMediaComplexDAG(t *testing.T) {
	sm := SocialMedia()
	if len(sm.Roots()) != 2 || len(sm.Nodes) != 4 {
		t.Fatalf("social media DAG shape: roots=%v nodes=%d", sm.Roots(), len(sm.Nodes))
	}
}

func TestAmberAlertTwoRootJoin(t *testing.T) {
	aa := AmberAlert()
	mm := aa.Node("make-model")
	if len(mm.Deps) != 2 {
		t.Fatalf("make-model deps = %v", mm.Deps)
	}
}

func TestBikeRackSingleModel(t *testing.T) {
	br := BikeRackOccupancy()
	if len(br.Nodes) != 1 {
		t.Fatalf("bike rack nodes = %d", len(br.Nodes))
	}
	if got := br.Leaves(); len(got) != 1 || got[0] != "rack-detection" {
		t.Fatalf("leaves = %v", got)
	}
}

func TestValidateRejectsBadApps(t *testing.T) {
	base := func() *App { return VideoSurveillance() }
	cases := []struct {
		name   string
		mutate func(*App)
	}{
		{"empty name", func(a *App) { a.Name = "" }},
		{"zero SLO", func(a *App) { a.SLO = 0 }},
		{"no nodes", func(a *App) { a.Nodes = nil }},
		{"empty node name", func(a *App) { a.Nodes[0].Name = "" }},
		{"dup node", func(a *App) { a.Nodes[1].Name = a.Nodes[0].Name }},
		{"no model", func(a *App) { a.Nodes[0].Model = "" }},
		{"forward dep", func(a *App) { a.Nodes[0].Deps = []string{"vehicle-type"} }},
		{"unknown dep", func(a *App) { a.Nodes[1].Deps = []string{"ghost"} }},
		{"bad threshold", func(a *App) { a.Nodes[0].AccThreshold = 1.0 }},
	}
	for _, tc := range cases {
		a := base()
		tc.mutate(a)
		if err := a.Validate(); err == nil {
			t.Errorf("%s: invalid app passed validation", tc.name)
		}
	}
}

func TestCatalogN(t *testing.T) {
	if _, err := CatalogN(0); err == nil {
		t.Error("CatalogN(0) accepted")
	}
	apps, err := CatalogN(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 10 {
		t.Fatalf("len = %d", len(apps))
	}
	seen := make(map[string]bool)
	for _, a := range apps {
		if seen[a.Name] {
			t.Fatalf("duplicate name %q in CatalogN", a.Name)
		}
		seen[a.Name] = true
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
	small, _ := CatalogN(2)
	if len(small) != 2 {
		t.Fatalf("CatalogN(2) len = %d", len(small))
	}
}

func TestNewInstance(t *testing.T) {
	inst, err := NewInstance(VideoSurveillance(), InstanceConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Nodes()) != 3 {
		t.Fatalf("nodes = %d", len(inst.Nodes()))
	}
	for _, ni := range inst.Nodes() {
		if ni.InitialAccuracy <= 0.5 || ni.InitialAccuracy > 1 {
			t.Errorf("%s initial accuracy = %v", ni.Node.Name, ni.InitialAccuracy)
		}
		if len(ni.Structures) < 2 {
			t.Errorf("%s has %d structures", ni.Node.Name, len(ni.Structures))
		}
		if !ni.FullStructure().IsFull() {
			t.Errorf("%s FullStructure not full", ni.Node.Name)
		}
		if ni.RemainingSamples() != 1000 {
			t.Errorf("%s pool = %d", ni.Node.Name, ni.RemainingSamples())
		}
	}
}

func TestNewInstanceUnknownModel(t *testing.T) {
	a := VideoSurveillance()
	a.Nodes[0].Model = "NoSuchNet"
	if _, err := NewInstance(a, InstanceConfig{Seed: 1}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestInstanceAdvancePeriod(t *testing.T) {
	inst, err := NewInstance(VideoSurveillance(), InstanceConfig{Seed: 2, PoolSamples: 500})
	if err != nil {
		t.Fatal(err)
	}
	ni := inst.ByName["vehicle-type"]
	firstPool := ni.Pool
	bootstrap := ni.OldData
	ni.ConsumeSamples(100)
	ni.NoteTrained()
	inst.AdvancePeriod(0)
	if inst.Period() != 1 {
		t.Fatalf("period = %d", inst.Period())
	}
	if ni.OldData != firstPool {
		t.Fatal("retrained node's pool did not become OldData")
	}
	if ni.TrainedThisPeriod() {
		t.Fatal("trained flag not reset at period boundary")
	}
	// An un-retrained node keeps its old reference, so accumulated
	// drift stays visible to the detector.
	det := inst.ByName["object-detection"]
	if det.OldData == det.Pool {
		t.Fatal("un-retrained node advanced its OldData")
	}
	_ = bootstrap
	if ni.UsedSamples != 0 {
		t.Fatal("UsedSamples not reset")
	}
	if len(ni.Pool.Samples) != 500 {
		t.Fatalf("new pool size = %d", len(ni.Pool.Samples))
	}
	if ni.Stream.Period() != 1 {
		t.Fatalf("stream period = %d", ni.Stream.Period())
	}
}

func TestConsumeSamples(t *testing.T) {
	inst, _ := NewInstance(BikeRackOccupancy(), InstanceConfig{Seed: 3, PoolSamples: 100})
	ni := inst.Nodes()[0]
	if got := ni.ConsumeSamples(60); got != 60 {
		t.Fatalf("ConsumeSamples = %d", got)
	}
	if got := ni.ConsumeSamples(60); got != 40 {
		t.Fatalf("second ConsumeSamples = %d, want remaining 40", got)
	}
	if got := ni.ConsumeSamples(10); got != 0 {
		t.Fatalf("exhausted pool gave %d", got)
	}
}

func TestPoolDist(t *testing.T) {
	inst, _ := NewInstance(VideoSurveillance(), InstanceConfig{Seed: 4})
	ni := inst.ByName["vehicle-type"]
	d, err := ni.PoolDist()
	if err != nil {
		t.Fatal(err)
	}
	if d.K() != 5 {
		t.Fatalf("pool dist K = %d", d.K())
	}
	ni.Pool = &synthdata.Dataset{}
	if _, err := ni.PoolDist(); err == nil {
		t.Fatal("empty pool accepted")
	}
}

// TestPoolDistFollowsPool checks that PoolDist is computed once per
// pool and follows a reassigned or newly collected pool.
func TestPoolDistFollowsPool(t *testing.T) {
	inst, _ := NewInstance(VideoSurveillance(), InstanceConfig{Seed: 4, PoolSamples: 300})
	ni := inst.ByName["vehicle-type"]
	k := len(ni.Node.Task.Classes)
	first, err := ni.PoolDist()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := ni.PoolDist(); again != first {
		t.Fatal("PoolDist recomputed for an unchanged pool")
	}
	// A hand-built pool holding only class 0 has a one-hot mix.
	ni.Pool = &synthdata.Dataset{Samples: ni.Pool.Samples[:0:0]}
	for _, smp := range ni.Stream.Sample(200) {
		if smp.Class == 0 {
			ni.Pool.Samples = append(ni.Pool.Samples, smp)
		}
	}
	got, err := ni.PoolDist()
	if err != nil {
		t.Fatal(err)
	}
	if got == first || got.Prob(0) != 1 {
		t.Fatalf("PoolDist kept the replaced pool's mix: P(0) = %v", got.Prob(0))
	}
	inst.AdvancePeriod(0)
	next, err := ni.PoolDist()
	if err != nil {
		t.Fatal(err)
	}
	want := ni.Pool.LabelDistribution(k)
	for c := 0; c < k; c++ {
		if next.Prob(c) != want[c] {
			t.Fatalf("after AdvancePeriod PoolDist = %v, want the new pool's %v", next.Probs(), want)
		}
	}
}

// sameSamples reports whether two sample sets are bit-identical.
func sameSamples(a, b []synthdata.Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Class != b[i].Class || a[i].Period != b[i].Period || len(a[i].Features) != len(b[i].Features) {
			return false
		}
		for j := range a[i].Features {
			if math.Float64bits(a[i].Features[j]) != math.Float64bits(b[i].Features[j]) {
				return false
			}
		}
	}
	return true
}

// TestAdvancePeriodRecyclesIntoIdenticalPools replays every node's
// stream with plain Collect and checks that the instance's recycled
// pools and its OldData references match, sample for sample, through
// periods that alternate between retrained and stale models.
func TestAdvancePeriodRecyclesIntoIdenticalPools(t *testing.T) {
	const seed, boot, pool = 8, 300, 400
	inst, err := NewInstance(VideoSurveillance(), InstanceConfig{Seed: seed, BootstrapSamples: boot, PoolSamples: pool})
	if err != nil {
		t.Fatal(err)
	}
	type replay struct {
		stream    *synthdata.Stream
		old, pool *synthdata.Dataset
	}
	refs := make([]replay, len(inst.Nodes()))
	for i, ni := range inst.Nodes() {
		s, err := synthdata.NewStream(ni.Node.Task, seed+int64(i)*7919)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = replay{stream: s, old: synthdata.Collect(s, boot)}
		refs[i].pool = synthdata.Collect(s, pool)
	}
	for p := 0; p < 6; p++ {
		for i, ni := range inst.Nodes() {
			if (p+i)%3 != 0 {
				ni.NoteTrained()
				refs[i].old = refs[i].pool
			}
		}
		inst.AdvancePeriod(0)
		for i, ni := range inst.Nodes() {
			r := &refs[i]
			r.pool = synthdata.Collect(r.stream, pool)
			r.stream.AdvancePeriod()
			if !sameSamples(ni.Pool.Samples, r.pool.Samples) {
				t.Fatalf("period %d node %s: recycled pool differs from a fresh draw", p+1, ni.Node.Name)
			}
			if !sameSamples(ni.OldData.Samples, r.old.Samples) {
				t.Fatalf("period %d node %s: OldData was overwritten", p+1, ni.Node.Name)
			}
		}
	}
}

// TestAdvancePeriodKeepsAssignedDatasets checks that datasets a caller
// assigns to Pool or OldData are never recycled, whichever way they
// leave the node.
func TestAdvancePeriodKeepsAssignedDatasets(t *testing.T) {
	inst, err := NewInstance(VideoSurveillance(), InstanceConfig{Seed: 6, PoolSamples: 200})
	if err != nil {
		t.Fatal(err)
	}
	ni := inst.ByName["vehicle-type"]
	side, err := synthdata.NewStream(ni.Node.Task, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Collected datasets own recyclable storage, so they are the ones
	// a wrong ownership check would overwrite.
	pool, old := synthdata.Collect(side, 200), synthdata.Collect(side, 200)
	poolCopy := append([]synthdata.Sample(nil), pool.Samples...)
	oldCopy := append([]synthdata.Sample(nil), old.Samples...)
	for i := range poolCopy {
		poolCopy[i].Features = append([]float64(nil), pool.Samples[i].Features...)
		oldCopy[i].Features = append([]float64(nil), old.Samples[i].Features...)
	}
	check := func(step string) {
		t.Helper()
		if !sameSamples(pool.Samples, poolCopy) || !sameSamples(old.Samples, oldCopy) {
			t.Fatalf("%s: an assigned dataset was overwritten", step)
		}
	}

	ni.Pool, ni.OldData = pool, old
	inst.AdvancePeriod(0) // stale model: the assigned pool leaves
	check("untrained")
	ni.Pool = pool
	ni.NoteTrained()
	inst.AdvancePeriod(0) // retrained: the assigned pool becomes OldData
	if ni.OldData != pool {
		t.Fatal("retrained node did not adopt the assigned pool")
	}
	ni.NoteTrained()
	inst.AdvancePeriod(0) // retrained again: the assigned pool leaves as OldData
	check("trained")
	ni.OldData = old
	ni.Pool = old // one dataset in both places
	inst.AdvancePeriod(0)
	ni.NoteTrained()
	inst.AdvancePeriod(0)
	inst.AdvancePeriod(0)
	check("shared")

	// A collected pool the caller also makes the reference leaves the
	// pool but stays on the node, so it must not be recycled either.
	ni.OldData = ni.Pool
	ref := append([]synthdata.Sample(nil), ni.OldData.Samples...)
	for i := range ref {
		ref[i].Features = append([]float64(nil), ref[i].Features...)
	}
	inst.AdvancePeriod(0)
	if !sameSamples(ni.OldData.Samples, ref) {
		t.Fatal("a collected pool still held as OldData was recycled")
	}

	// A collected reference the caller takes out and later assigns
	// back is the caller's dataset from then on.
	taken := ni.OldData
	ni.OldData = old
	inst.AdvancePeriod(0)
	ni.Pool = taken
	inst.AdvancePeriod(0) // stale model: the assigned pool leaves
	if !sameSamples(taken.Samples, ref) {
		t.Fatal("a collected dataset assigned back by the caller was recycled")
	}
}

// advanceBytes returns the heap bytes and allocations one steady-state
// AdvancePeriod costs on an instance with the given pool size, with
// the first node retrained every period and the others stale, so both
// ways a dataset leaves a node are exercised.
func advanceBytes(t *testing.T, poolSamples int) (bytes uint64, allocs float64) {
	inst, err := NewInstance(VideoSurveillance(), InstanceConfig{Seed: 1, PoolSamples: poolSamples})
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		inst.Nodes()[0].NoteTrained()
		inst.AdvancePeriod(0)
	}
	step()
	step()
	runtime.GC() // start the collector's workers before counting
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs, testing.AllocsPerRun(runs, step)
}

// TestAdvancePeriodCostIndependentOfPoolSize guards pool recycling:
// once warm, AdvancePeriod draws every pool into recycled storage, so
// an 8000-sample pool costs the same allocations — and no more bytes —
// than a 1000-sample one.
func TestAdvancePeriodCostIndependentOfPoolSize(t *testing.T) {
	smallBytes, smallAllocs := advanceBytes(t, 1000)
	largeBytes, largeAllocs := advanceBytes(t, 8000)
	if smallAllocs != largeAllocs {
		t.Fatalf("AdvancePeriod allocates %v times at 1000 samples but %v at 8000", smallAllocs, largeAllocs)
	}
	// 7000 more samples per node would cost over 600 KB if drawn fresh.
	if largeBytes > smallBytes+1024 {
		t.Fatalf("AdvancePeriod allocates %d B at 1000 samples but %d B at 8000", smallBytes, largeBytes)
	}
}

// BenchmarkAdvancePeriod advances a warm instance with 8000-sample
// pools, one node retrained per period.
func BenchmarkAdvancePeriod(b *testing.B) {
	inst, err := NewInstance(VideoSurveillance(), InstanceConfig{Seed: 1, BootstrapSamples: 2000, PoolSamples: 8000})
	if err != nil {
		b.Fatal(err)
	}
	inst.Nodes()[0].NoteTrained()
	inst.AdvancePeriod(0)
	inst.AdvancePeriod(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Nodes()[0].NoteTrained()
		inst.AdvancePeriod(0)
	}
}

func TestDriftAccumulatesAccuracyLoss(t *testing.T) {
	// After several periods without retraining, the strongly drifting
	// vehicle-type node must lose accuracy while the drift-free
	// detector holds — Observation 2 in miniature.
	inst, _ := NewInstance(VideoSurveillance(), InstanceConfig{Seed: 5})
	for p := 0; p < 12; p++ {
		inst.AdvancePeriod(0)
	}
	veh := inst.ByName["vehicle-type"]
	det := inst.ByName["object-detection"]
	vehAcc := veh.State.Accuracy(veh.LiveDist())
	detAcc := det.State.Accuracy(det.LiveDist())
	if vehAcc >= veh.InitialAccuracy-0.01 {
		t.Fatalf("vehicle accuracy %v did not drop from %v after 12 drifting periods",
			vehAcc, veh.InitialAccuracy)
	}
	if detAcc < det.InitialAccuracy-1e-6 {
		t.Fatalf("drift-free detector lost accuracy: %v < %v", detAcc, det.InitialAccuracy)
	}
}
