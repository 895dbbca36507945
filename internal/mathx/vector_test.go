package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm(t *testing.T) {
	if got := Norm([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := Norm(nil); got != 0 {
		t.Fatalf("Norm(nil) = %v, want 0", got)
	}
	// Robust to values that would overflow naive sum of squares.
	big := math.MaxFloat64 / 2
	if got := Norm([]float64{big, big}); math.IsInf(got, 1) {
		t.Fatalf("Norm overflowed: %v", got)
	}
}

func TestAddSubScaleAXPY(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	if got := Add(a, b); got[0] != 4 || got[1] != 7 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); got[0] != 2 || got[1] != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Scale(a, 3); got[0] != 3 || got[1] != 6 {
		t.Fatalf("Scale = %v", got)
	}
	dst := Clone(a)
	AXPY(dst, 2, b)
	if dst[0] != 7 || dst[1] != 12 {
		t.Fatalf("AXPY = %v", dst)
	}
	// Inputs must be untouched.
	if a[0] != 1 || b[0] != 3 {
		t.Fatal("inputs mutated")
	}
}

func TestMean(t *testing.T) {
	m := Mean([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m[0] != 3 || m[1] != 4 {
		t.Fatalf("Mean = %v", m)
	}
}

func TestCosine(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{0, 1}
	if got := CosineSimilarity(a, b); got != 0 {
		t.Fatalf("orthogonal similarity = %v", got)
	}
	if got := CosineDistance(a, a); got != 0 {
		t.Fatalf("self distance = %v", got)
	}
	if got := CosineDistance(a, Scale(a, -1)); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("opposite distance = %v, want 2", got)
	}
	if got := CosineSimilarity(a, []float64{0, 0}); got != 0 {
		t.Fatalf("zero-vector similarity = %v, want 0", got)
	}
}

// Property: cosine similarity is scale invariant and bounded.
func TestCosineSimilarityProperties(t *testing.T) {
	f := func(ax, ay, bx, by float64, k uint8) bool {
		// Skip magnitudes whose inner product overflows float64 — the
		// dot product itself is ±Inf there, not a property failure.
		for _, v := range []float64{ax, ay, bx, by} {
			if math.IsNaN(v) || math.Abs(v) > 1e150 {
				return true
			}
		}
		a := []float64{ax, ay}
		b := []float64{bx, by}
		c := CosineSimilarity(a, b)
		if c < -1 || c > 1 {
			return false
		}
		scale := float64(k%7) + 1
		c2 := CosineSimilarity(Scale(a, scale), b)
		return almostEqual(c, c2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: ‖a+b‖ ≤ ‖a‖+‖b‖ (triangle inequality).
func TestNormTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(16)
		a := make([]float64, n)
		b := make([]float64, n)
		for j := range a {
			a[j] = rng.NormFloat64() * 100
			b[j] = rng.NormFloat64() * 100
		}
		if Norm(Add(a, b)) > Norm(a)+Norm(b)+1e-9 {
			t.Fatalf("triangle inequality violated for %v, %v", a, b)
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp broken")
	}
}

// CosineDistanceTo with a precomputed norm must be bit-identical to
// CosineDistance, zero vectors included.
func TestCosineDistanceToMatchesCosineDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := []float64{3, -1, 2, 0.5}
	vs := [][]float64{{0, 0, 0, 0}, {3, -1, 2, 0.5}, {-3, 1, -2, -0.5}}
	for i := 0; i < 200; i++ {
		vs = append(vs, []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
	}
	for _, b := range [][]float64{ref, {0, 0, 0, 0}} {
		nb := Norm(b)
		for _, a := range vs {
			if got, want := CosineDistanceTo(a, b, nb), CosineDistance(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("CosineDistanceTo(%v, %v) = %v, CosineDistance = %v", a, b, got, want)
			}
		}
	}
}
