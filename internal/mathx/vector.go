// Package mathx provides the numerical primitives used by the AdaInf
// simulator: dense vector operations, principal component analysis,
// cosine distance, Jensen–Shannon divergence, descriptive statistics,
// empirical CDFs, and the least-squares fits behind the scheduler's
// latency-scaling regressions.
//
// Everything is implemented on float64 slices with no external
// dependencies. The routines favour clarity and numerical robustness
// over raw speed; the vectors involved are small (tens to a few hundred
// dimensions).
package mathx

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It panics if the lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mathx: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func Norm(v []float64) float64 {
	// Scaled accumulation avoids overflow/underflow for extreme values.
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Add returns a new vector a+b. It panics if the lengths differ.
func Add(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mathx: Add length mismatch %d != %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Sub returns a new vector a−b. It panics if the lengths differ.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mathx: Sub length mismatch %d != %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Scale returns a new vector k·v.
func Scale(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] * k
	}
	return out
}

// AXPY performs dst += k·v in place. It panics if the lengths differ.
func AXPY(dst []float64, k float64, v []float64) {
	if len(dst) != len(v) {
		panic(fmt.Sprintf("mathx: AXPY length mismatch %d != %d", len(dst), len(v)))
	}
	for i := range dst {
		dst[i] += k * v[i]
	}
}

// Mean returns the element-wise mean of the rows. It panics on an empty
// input or ragged rows.
func Mean(rows [][]float64) []float64 {
	if len(rows) == 0 {
		panic("mathx: Mean of zero rows")
	}
	n := len(rows[0])
	out := make([]float64, n)
	for _, r := range rows {
		if len(r) != n {
			panic("mathx: Mean over ragged rows")
		}
		for i, x := range r {
			out[i] += x
		}
	}
	inv := 1 / float64(len(rows))
	for i := range out {
		out[i] *= inv
	}
	return out
}

// CosineSimilarity returns the cosine of the angle between a and b, in
// [−1, 1]. A zero vector yields similarity 0.
func CosineSimilarity(a, b []float64) float64 {
	return cosineSimilarity(a, b, Norm(b))
}

// cosineSimilarity is CosineSimilarity with b's norm supplied as nb.
func cosineSimilarity(a, b []float64, nb float64) float64 {
	na := Norm(a)
	if na == 0 || nb == 0 {
		return 0
	}
	c := Dot(a, b) / (na * nb)
	// Clamp tiny numerical excursions outside [-1, 1].
	return math.Max(-1, math.Min(1, c))
}

// CosineDistance returns 1 − CosineSimilarity(a, b), in [0, 2]. AdaInf
// uses it to rank new training samples by divergence from the old
// training data's mean feature vector (§3.2).
func CosineDistance(a, b []float64) float64 {
	return 1 - CosineSimilarity(a, b)
}

// CosineDistanceTo is CosineDistance(a, b) with b's norm precomputed as
// normB = Norm(b): the same float operations, bit for bit, minus the
// per-call norm of a reference vector that many samples are scored
// against.
func CosineDistanceTo(a, b []float64, normB float64) float64 {
	return 1 - cosineSimilarity(a, b, normB)
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
