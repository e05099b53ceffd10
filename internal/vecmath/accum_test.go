package vecmath

import (
	"math/rand"
	"testing"
)

// TestAccumulatorMatchesSparseDot drives the posting-kernel contract:
// feeding a query's support in ascending dimension order through
// ScatterMulAdd must reproduce Sparse.Dot bit-for-bit for every stored
// vector.
func TestAccumulatorMatchesSparseDot(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const dim, n = 200, 40
	vecs := make([]*Sparse, n)
	for i := range vecs {
		v := NewVector(dim)
		for j := 0; j < 30; j++ {
			v[r.Intn(dim)] = r.NormFloat64()
		}
		vecs[i] = DenseToSparse(v)
	}
	// Build posting lists per dimension, ids ascending by construction.
	ids := make([][]int32, dim)
	ws := make([][]float64, dim)
	for i, v := range vecs {
		v.ForEach(func(d int, x float64) {
			ids[d] = append(ids[d], int32(i))
			ws[d] = append(ws[d], x)
		})
	}
	var acc Accumulator
	for q := 0; q < 10; q++ {
		qv := NewVector(dim)
		for j := 0; j < 25; j++ {
			qv[r.Intn(dim)] = r.NormFloat64()
		}
		query := DenseToSparse(qv)
		acc.Reset(n)
		qi, qx := query.Support(), query.Values()
		for k := range qi {
			acc.ScatterMulAdd(qx[k], ids[qi[k]], ws[qi[k]])
		}
		for i, v := range vecs {
			if got, want := acc.Get(i), query.Dot(v); got != want {
				t.Fatalf("query %d vec %d: accumulated dot %v, Sparse.Dot %v", q, i, got, want)
			}
		}
	}
}

// TestAccumulatorReset checks the clear semantics: values from before a
// Reset read as exact zero, shrink and regrow keep the invariant, and
// Len follows Reset.
func TestAccumulatorReset(t *testing.T) {
	var a Accumulator
	a.Reset(4)
	a.ScatterMulAdd(2, []int32{1, 3}, []float64{5, 7})
	if a.Get(1) != 10 || a.Get(3) != 14 || a.Get(0) != 0 {
		t.Fatalf("after scatter: %v %v %v", a.Get(1), a.Get(3), a.Get(0))
	}
	a.Reset(4)
	for i := 0; i < 4; i++ {
		if a.Get(i) != 0 {
			t.Fatalf("stale value at %d after Reset: %v", i, a.Get(i))
		}
	}
	if a.Len() != 4 {
		t.Fatalf("Len = %d", a.Len())
	}
	a.Reset(2)
	if a.Len() != 2 {
		t.Fatalf("Len after shrink = %d", a.Len())
	}
	a.Reset(8) // grow reallocates
	for i := 0; i < 8; i++ {
		if a.Get(i) != 0 {
			t.Fatalf("stale value at %d after grow: %v", i, a.Get(i))
		}
	}
}

// TestAccumulatorMismatchedPostingsPanics pins the parallel-array guard.
func TestAccumulatorMismatchedPostingsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched posting lengths should panic")
		}
	}()
	var a Accumulator
	a.Reset(1)
	a.ScatterMulAdd(1, []int32{0}, []float64{1, 2})
}

// Len returns the candidate count of the last Reset.
func (a *Accumulator) Len() int { return len(a.acc) }
