package vecmath

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// randSparseDense builds a dense vector of dimension dim with ~nnz
// non-zeros at random positions.
func randSparseDense(r *rand.Rand, dim, nnz int) Vector {
	v := NewVector(dim)
	for j := 0; j < nnz; j++ {
		v[r.Intn(dim)] = r.NormFloat64()
	}
	return v
}

func TestDenseToSparseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	v := randSparseDense(r, 500, 40)
	s := DenseToSparse(v)
	if s.Dim() != 500 {
		t.Fatalf("dim = %d", s.Dim())
	}
	back := s.Dense()
	if !v.Equal(back, 0) {
		t.Fatal("round trip changed the vector")
	}
	nnz := 0
	for i, x := range v {
		if x != 0 {
			nnz++
		}
		if s.Get(i) != x {
			t.Fatalf("Get(%d) = %v, want %v", i, s.Get(i), x)
		}
	}
	if s.NNZ() != nnz {
		t.Fatalf("NNZ = %d, want %d", s.NNZ(), nnz)
	}
}

func TestMapToSparse(t *testing.T) {
	m := map[int]float64{3: 1.5, 7: -2}
	s, err := MapToSparse(m, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != 2 || s.Get(3) != 1.5 || s.Get(7) != -2 {
		t.Fatalf("MapToSparse wrong: %+v", s)
	}
	m[99] = 1
	if _, err := MapToSparse(m, 10); err == nil {
		t.Error("out-of-range support should fail")
	}
}

// denseDot is the dense dot product of two same-length vectors.
func denseDot(x, y Vector) float64 {
	d, err := x.Dot(y)
	if err != nil {
		panic(err)
	}
	return d
}

// squaredEuclidean is the dense subtract-square loop.
func squaredEuclidean(x, y Vector) float64 {
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

// The bit-identity contract the SVM gram build and DB cosine path rely on.
func TestSparseDotBitIdenticalToDense(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		x := randSparseDense(r, 700, 60)
		y := randSparseDense(r, 700, 60)
		sx, sy := DenseToSparse(x), DenseToSparse(y)
		if got, want := sx.Dot(sy), denseDot(x, y); got != want {
			t.Fatalf("trial %d: sparse dot %v != dense dot %v", trial, got, want)
		}
		if got, want := sx.DotDense(y), denseDot(x, y); got != want {
			t.Fatalf("trial %d: DotDense %v != dense dot %v", trial, got, want)
		}
		wantCos, err := Cosine(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if got := sx.Cosine(sy); got != wantCos {
			t.Fatalf("trial %d: sparse cosine %v != dense %v", trial, got, wantCos)
		}
		if got, want := sx.Norm2(), Norm2Of(x); got != want {
			t.Fatalf("trial %d: cached norm2 %v != %v", trial, got, want)
		}
	}
}

func TestSparseSquaredDistanceApproximatesDense(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		x := randSparseDense(r, 400, 30)
		y := randSparseDense(r, 400, 30)
		sx, sy := DenseToSparse(x), DenseToSparse(y)
		want := squaredEuclidean(x, y)
		if got := sx.SquaredDistance(sy); math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: sparse d2 %v vs dense %v", trial, got, want)
		}
		if got := sx.SquaredDistanceDense(y, Norm2Of(y)); math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: sparse-dense d2 %v vs dense %v", trial, got, want)
		}
		if got, want := sx.Euclidean(sy), math.Sqrt(want); math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: sparse euclid %v vs dense %v", trial, got, want)
		}
	}
	// Identical vectors: clamped exactly to zero.
	v := randSparseDense(r, 100, 10)
	if d := DenseToSparse(v).SquaredDistance(DenseToSparse(v)); d != 0 {
		t.Errorf("self distance = %v, want 0", d)
	}
}

func TestSparseZeroVector(t *testing.T) {
	z := DenseToSparse(NewVector(10))
	if z.NNZ() != 0 || z.Norm2() != 0 || z.L2() != 0 {
		t.Error("zero vector sparse form wrong")
	}
	v := DenseToSparse(Vector{1, 0, 2, 0, 0, 0, 0, 0, 0, 0})
	if z.Dot(v) != 0 || z.Cosine(v) != 0 {
		t.Error("zero-vector products should be 0")
	}
}

func TestSparseDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot dimension mismatch should panic")
		}
	}()
	DenseToSparse(Vector{1}).Dot(DenseToSparse(Vector{1, 2}))
}

// BenchmarkVecmathSparseVsDense measures the O(nnz) vs O(dim) gap at the
// paper's scale: 3815-dim signatures with ~150 active kernel functions.
func BenchmarkVecmathSparseVsDense(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const dim, nnz = 3815, 150
	x := randSparseDense(r, dim, nnz)
	y := randSparseDense(r, dim, nnz)
	sx, sy := DenseToSparse(x), DenseToSparse(y)
	b.Run("dense-dot", func(b *testing.B) {
		b.ReportAllocs()
		var s float64
		for i := 0; i < b.N; i++ {
			s += denseDot(x, y)
		}
		_ = s
	})
	b.Run("sparse-dot", func(b *testing.B) {
		b.ReportAllocs()
		var s float64
		for i := 0; i < b.N; i++ {
			s += sx.Dot(sy)
		}
		_ = s
	})
	b.Run("dense-sqeuclidean", func(b *testing.B) {
		b.ReportAllocs()
		var s float64
		for i := 0; i < b.N; i++ {
			s += squaredEuclidean(x, y)
		}
		_ = s
	})
	b.Run("sparse-sqeuclidean", func(b *testing.B) {
		b.ReportAllocs()
		var s float64
		for i := 0; i < b.N; i++ {
			s += sx.SquaredDistance(sy)
		}
		_ = s
	})
}

func TestSparseFromSorted(t *testing.T) {
	s, err := SparseFromSorted(10, []int32{1, 4, 9}, []float64{0.5, -2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != 3 || s.Dim() != 10 {
		t.Fatalf("nnz=%d dim=%d", s.NNZ(), s.Dim())
	}
	want := DenseToSparse(s.Dense())
	if s.Norm2() != want.Norm2() {
		t.Errorf("norm2 = %v, want %v", s.Norm2(), want.Norm2())
	}
	for _, bad := range []struct {
		idx []int32
		val []float64
	}{
		{[]int32{1}, []float64{1, 2}},     // length mismatch
		{[]int32{4, 1}, []float64{1, 2}},  // not ascending
		{[]int32{1, 1}, []float64{1, 2}},  // duplicate
		{[]int32{1, 10}, []float64{1, 2}}, // out of range
		{[]int32{-1}, []float64{1}},       // negative
		{[]int32{3}, []float64{0}},        // explicit zero
	} {
		if _, err := SparseFromSorted(10, bad.idx, bad.val); err == nil {
			t.Errorf("SparseFromSorted(%v, %v) should fail", bad.idx, bad.val)
		}
	}
	empty, err := SparseFromSorted(5, nil, nil)
	if err != nil || empty.NNZ() != 0 || empty.Dim() != 5 {
		t.Fatalf("empty sparse: %v %d %d", err, empty.NNZ(), empty.Dim())
	}
}

// TestSparseScaleNormalizeMatchDense: mutating ops must leave the vector
// indistinguishable from extracting the equivalently mutated dense form,
// cached norm included.
func TestSparseScaleNormalizeMatchDense(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		v := randSparseDense(r, 300, 40)
		s := DenseToSparse(v).Scale(2.5)
		w := v.Clone().Scale(2.5)
		ref := DenseToSparse(w)
		if !s.Dense().Equal(w, 0) || s.Norm2() != ref.Norm2() {
			t.Fatal("Scale diverges from dense")
		}
		n := DenseToSparse(v).Normalize()
		dn := v.Clone().Normalize()
		refN := DenseToSparse(dn)
		if !n.Dense().Equal(dn, 0) || n.Norm2() != refN.Norm2() {
			t.Fatal("Normalize diverges from dense")
		}
	}
	zero := DenseToSparse(NewVector(5))
	if zero.Normalize().NNZ() != 0 {
		t.Error("zero vector should survive Normalize unchanged")
	}
}

func TestSparseAxpyMatchesDenseAdd(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 50; trial++ {
		v := randSparseDense(r, 200, 30)
		dst := randSparseDense(r, 200, 30)
		want := dst.Clone()
		for i := range want {
			want[i] += 1.5 * v[i]
		}
		DenseToSparse(v).Axpy(1.5, dst)
		if !dst.Equal(want, 0) {
			t.Fatal("Axpy diverges from dense accumulate")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	DenseToSparse(NewVector(3)).Axpy(1, NewVector(4))
}

func TestSparseCloneAndForEach(t *testing.T) {
	s, err := SparseFromSorted(6, []int32{0, 3, 5}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clone().Scale(10)
	if s.Get(3) != 2 {
		t.Error("Clone should not alias the original")
	}
	if c.Get(3) != 20 {
		t.Error("Clone lost values")
	}
	var idxs []int
	var sum float64
	s.ForEach(func(i int, x float64) {
		idxs = append(idxs, i)
		sum += x
	})
	if len(idxs) != 3 || idxs[0] != 0 || idxs[1] != 3 || idxs[2] != 5 || sum != 6 {
		t.Errorf("ForEach visited %v (sum %v)", idxs, sum)
	}
}

// sparseOn builds a Sparse over the given ascending support with weights
// drawn by w.
func sparseOn(t testing.TB, dim int, support []int32, w func() float64) *Sparse {
	t.Helper()
	val := make([]float64, len(support))
	for k := range val {
		val[k] = w()
	}
	s, err := SparseFromSorted(dim, append([]int32(nil), support...), val)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGatherDotBitIdenticalToMerge is the kernel equivalence the indexed
// query path rests on, with Sparse.Dot as the oracle: scatter the query
// once, and every stored vector's DotDense against it equals the
// two-pointer merge dot bit for bit — for disjoint, nested, identical
// and empty supports, negative and subnormal weights, and products that
// round to ±0 — and the un-scatter leaves the pooled vector all-zero.
func TestGatherDotBitIdenticalToMerge(t *testing.T) {
	const dim = 300
	r := rand.New(rand.NewSource(17))
	weights := map[string]func() float64{
		"normal":    func() float64 { return r.NormFloat64() },
		"negative":  func() float64 { return -1e-3 - r.Float64() },
		"subnormal": func() float64 { return float64(1+r.Intn(1000)) * 5e-324 * float64(1-2*r.Intn(2)) },
		// Magnitudes from 1e-200 to 1e150 in both signs: products
		// underflow to ±0 or subnormals, sums cancel and absorb.
		"wide": func() float64 {
			return math.Pow(10, float64(r.Intn(351)-200)) * float64(1-2*r.Intn(2))
		},
	}
	pick := func(n int) []int32 {
		perm := r.Perm(dim)[:n]
		sort.Ints(perm)
		out := make([]int32, n)
		for k, i := range perm {
			out[k] = int32(i)
		}
		return out
	}
	qd := NewVector(dim) // the pooled vector: all-zero between queries
	for name, w := range weights {
		for trial := 0; trial < 40; trial++ {
			base := pick(1 + r.Intn(80))
			half := base[:len(base)/2]
			inBase := make(map[int32]bool, len(base))
			for _, i := range base {
				inBase[i] = true
			}
			var disjoint []int32
			for i := int32(0); i < dim && len(disjoint) < 40; i++ {
				if !inBase[i] {
					disjoint = append(disjoint, i)
				}
			}
			q := sparseOn(t, dim, base, w)
			stored := map[string]*Sparse{
				"identical": sparseOn(t, dim, base, w),
				"nested":    sparseOn(t, dim, half, w),
				"superset":  sparseOn(t, dim, pick(dim/2), w),
				"disjoint":  sparseOn(t, dim, disjoint, w),
				"random":    sparseOn(t, dim, pick(1+r.Intn(80)), w),
				"empty":     sparseOn(t, dim, nil, w),
				"self":      q,
			}
			q.Scatter(qd)
			for shape, d := range stored {
				got, want := d.DotDense(qd), q.Dot(d)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s/%s trial %d: gather %v (%#x) != merge %v (%#x)", name, shape, trial,
						got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			q.Unscatter(qd)
			for i, x := range qd {
				if math.Float64bits(x) != 0 {
					t.Fatalf("%s trial %d: un-scatter left qd[%d] = %v", name, trial, i, x)
				}
			}
			// An empty query scatters nothing and every dot is +0.
			e := sparseOn(t, dim, nil, w)
			e.Scatter(qd)
			if got := stored["random"].DotDense(qd); math.Float64bits(got) != 0 {
				t.Fatalf("%s trial %d: dot against the empty query = %v", name, trial, got)
			}
			e.Unscatter(qd)
		}
	}
}

func TestScatterDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Scatter dimension mismatch should panic")
		}
	}()
	DenseToSparse(Vector{1}).Scatter(NewVector(2))
}

var dotSink float64

// BenchmarkDotGatherVsMerge is the per-candidate arithmetic the indexed
// query path pays: the two-pointer merge dot against the gather dot from
// a scattered query, stored vector and query equally wide, in the
// paper's 3815-function space.
func BenchmarkDotGatherVsMerge(b *testing.B) {
	const dim = 3815
	for _, nnz := range []int{12, 200, 1000} {
		r := rand.New(rand.NewSource(int64(nnz)))
		q := DenseToSparse(randSparseDense(r, dim, nnz))
		stored := make([]*Sparse, 512)
		for i := range stored {
			stored[i] = DenseToSparse(randSparseDense(r, dim, nnz))
		}
		b.Run(fmt.Sprintf("nnz=%d/merge", nnz), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dotSink += q.Dot(stored[i%len(stored)])
			}
		})
		b.Run(fmt.Sprintf("nnz=%d/gather", nnz), func(b *testing.B) {
			qd := NewVector(dim)
			q.Scatter(qd)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dotSink += stored[i%len(stored)].DotDense(qd)
			}
		})
	}
}

// MapToSparse converts an index → value map (decoded JSON weights) into
// the array form, sorting the support and dropping explicit zeros so the
// result honors the minimal-support invariant.
func MapToSparse(m map[int]float64, dim int) (*Sparse, error) {
	support := make([]int, 0, len(m))
	for i := range m {
		support = append(support, i)
	}
	sort.Ints(support)
	s := &Sparse{dim: dim, idx: make([]int32, 0, len(support)), val: make([]float64, 0, len(support))}
	for _, i := range support {
		if i < 0 || i >= dim {
			return nil, fmt.Errorf("vecmath: sparse index %d outside dimension %d", i, dim)
		}
		x := m[i]
		if x == 0 {
			continue
		}
		s.idx = append(s.idx, int32(i))
		s.val = append(s.val, x)
		s.norm2 += x * x
	}
	return s, nil
}

// Clone returns a deep copy of s.
func (s *Sparse) Clone() *Sparse {
	out := &Sparse{dim: s.dim, idx: make([]int32, len(s.idx)), val: make([]float64, len(s.val)), norm2: s.norm2}
	copy(out.idx, s.idx)
	copy(out.val, s.val)
	return out
}

// Cosine returns the cosine similarity with t, clamped into [-1, 1]. Both
// the dot product and the cached norms accumulate in ascending index
// order, so the result is bit-identical to the dense Cosine.
func (s *Sparse) Cosine(t *Sparse) float64 {
	if s.norm2 == 0 || t.norm2 == 0 {
		return 0
	}
	c := s.Dot(t) / (math.Sqrt(s.norm2) * math.Sqrt(t.norm2))
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// Euclidean returns the L2 distance to t (via the norm identity).
func (s *Sparse) Euclidean(t *Sparse) float64 { return math.Sqrt(s.SquaredDistance(t)) }

// SquaredDistance returns ||s - t||^2 via the cached norms:
// ||s||^2 - 2 s·t + ||t||^2, clamped at zero against cancellation noise.
// This costs O(nnz) but is NOT bit-identical to the dense subtract-square
// loop; callers that need exact dense agreement must use the dense path.
func (s *Sparse) SquaredDistance(t *Sparse) float64 {
	d2 := s.norm2 - 2*s.Dot(t) + t.norm2
	if d2 < 0 {
		return 0
	}
	return d2
}

// Scale multiplies every stored value by a in place and returns s. The
// cached norm is re-accumulated in index order so it stays bit-identical
// to a fresh extraction of the scaled dense vector. Scaling by zero
// leaves an all-zero support; callers that rely on minimal supports
// should avoid it (signatures never scale by zero).
func (s *Sparse) Scale(a float64) *Sparse {
	s.norm2 = 0
	for k := range s.val {
		s.val[k] *= a
		s.norm2 += s.val[k] * s.val[k]
	}
	return s
}
