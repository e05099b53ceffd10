package vecmath

import (
	"fmt"
	"math"
	"sort"
)

// Sparse is the canonical signature representation: parallel sorted
// index/value arrays plus a cached squared L2 norm. Fmeter signatures
// live in a ~3815-dim space but any one monitoring interval touches only
// a few hundred kernel functions, so kernel evaluations, similarity
// scans, and K-means assignment steps cost O(nnz) instead of O(dim) in
// this form. Dense vectors are the derived view (Dense); the few callers
// that need per-component arithmetic materialize one explicitly.
//
// Mutating methods (Scale, Normalize) recompute the cached norm by
// re-accumulating in index order, so a mutated Sparse is
// indistinguishable from one freshly extracted from the equivalent dense
// vector. Sharing discipline: values flow through aliased *Sparse in
// read-mostly pipelines; mutate only vectors you own (Clone first when in
// doubt).
//
// The accumulation order of Dot and DotDense is ascending index order —
// exactly the order the dense loops visit the same non-zero terms — so
// sparse dot products are bit-identical to their dense counterparts
// (skipped terms contribute an exact +0 to the sum).
type Sparse struct {
	dim   int
	idx   []int32
	val   []float64
	norm2 float64
}

// DenseToSparse extracts the non-zero entries of v. The cached squared
// norm is accumulated in index order, matching the dense Norm(2) loop.
func DenseToSparse(v Vector) *Sparse {
	nnz := 0
	for _, x := range v {
		if x != 0 {
			nnz++
		}
	}
	s := &Sparse{dim: len(v), idx: make([]int32, 0, nnz), val: make([]float64, 0, nnz)}
	for i, x := range v {
		if x != 0 {
			s.idx = append(s.idx, int32(i))
			s.val = append(s.val, x)
			s.norm2 += x * x
		}
	}
	return s
}

// SparseFromSorted builds a Sparse directly from parallel index/value
// slices, taking ownership of both. Indices must be strictly ascending
// and inside [0, dim); values must be non-zero (zeros would bloat the
// support and break nnz-based reasoning). The cached norm accumulates in
// index order, exactly as DenseToSparse would for the equivalent dense
// vector. This is the allocation-free path for producers that already
// hold sorted non-zeros — tf-idf transformation, dimension compaction,
// snapshot loading.
func SparseFromSorted(dim int, idx []int32, val []float64) (*Sparse, error) {
	if len(idx) != len(val) {
		return nil, fmt.Errorf("vecmath: %d indices but %d values", len(idx), len(val))
	}
	s := &Sparse{dim: dim, idx: idx, val: val}
	prev := int32(-1)
	for k, i := range idx {
		if i <= prev || int(i) >= dim {
			return nil, fmt.Errorf("vecmath: sparse index %d at position %d not strictly ascending in [0, %d)", i, k, dim)
		}
		if val[k] == 0 {
			return nil, fmt.Errorf("vecmath: explicit zero at sparse index %d", i)
		}
		prev = i
		s.norm2 += val[k] * val[k]
	}
	return s, nil
}

// SparseFromSortedTrusted is SparseFromSorted for decoders that have
// already enforced the invariants inline — strictly ascending in-range
// indices, no explicit zeros — and accumulated the squared norm in
// index order (so the cached norm is bit-identical to SparseFromSorted
// computing it). It takes ownership of both slices and validates
// nothing; callers that cannot prove the invariants must use
// SparseFromSorted.
func SparseFromSortedTrusted(dim int, idx []int32, val []float64, norm2 float64) *Sparse {
	return &Sparse{dim: dim, idx: idx, val: val, norm2: norm2}
}

// Dim returns the ambient dimension.
func (s *Sparse) Dim() int { return s.dim }

// NNZ returns the number of stored non-zeros.
func (s *Sparse) NNZ() int { return len(s.idx) }

// Norm2 returns the cached squared Euclidean norm.
func (s *Sparse) Norm2() float64 { return s.norm2 }

// L2 returns the Euclidean norm.
func (s *Sparse) L2() float64 { return math.Sqrt(s.norm2) }

// Dense materializes s as a dense vector.
func (s *Sparse) Dense() Vector {
	out := NewVector(s.dim)
	for k, i := range s.idx {
		out[i] = s.val[k]
	}
	return out
}

// Get returns the value at dimension i (zero when absent), by binary
// search over the sorted support.
//
//fmeter:noalloc
func (s *Sparse) Get(i int) float64 {
	//fmeter:alloc-ok sort.Search never retains the predicate, so escape analysis keeps the closure on the stack
	k := sort.Search(len(s.idx), func(k int) bool { return s.idx[k] >= int32(i) })
	if k < len(s.idx) && s.idx[k] == int32(i) {
		return s.val[k]
	}
	return 0
}

// Dot returns s·t by a two-pointer merge over the sorted supports,
// accumulating in ascending index order. The result is bit-identical to
// the dense Dot of the same vectors.
//
//fmeter:noalloc
func (s *Sparse) Dot(t *Sparse) float64 {
	if s.dim != t.dim {
		//fmeter:alloc-ok the panic path aborts the query; only misuse allocates
		panic(fmt.Sprintf("vecmath: sparse Dot dimension mismatch %d vs %d", s.dim, t.dim))
	}
	var sum float64
	a, b := 0, len(s.idx)
	c, d := 0, len(t.idx)
	for a < b && c < d {
		ia, ic := s.idx[a], t.idx[c]
		switch {
		case ia == ic:
			sum += s.val[a] * t.val[c]
			a++
			c++
		case ia < ic:
			a++
		default:
			c++
		}
	}
	return sum
}

// DotDense returns s·v by gathering v at s's support, accumulating in
// ascending index order; bit-identical to the dense dot. It is the
// per-candidate kernel of every indexed query, so val is resliced to
// idx's length once: the compiler then proves val[k] in range and the
// loop keeps only the gather's own bounds check.
//
//fmeter:noalloc
func (s *Sparse) DotDense(v Vector) float64 {
	if s.dim != len(v) {
		//fmeter:alloc-ok the panic path aborts the query; only misuse allocates
		panic(fmt.Sprintf("vecmath: sparse DotDense dimension mismatch %d vs %d", s.dim, len(v)))
	}
	val := s.val[:len(s.idx)]
	var sum float64
	for k, i := range s.idx {
		sum += val[k] * v[i]
	}
	return sum
}

// Scatter writes s's non-zeros into dst, which must be all-zero and of
// s's dimension, making dst the dense view of s without the O(dim)
// clear Dense pays — the per-query half of the gather dot: for any
// t with finite weights, t.DotDense(dst) equals s.Dot(t) bit for bit.
// Both sum the same products in the same ascending order; the gather
// adds an exact ±0 for every index of t that s lacks, which leaves a
// running sum unchanged (and a sum that starts at +0 is never -0).
// Unscatter undoes it.
//
//fmeter:noalloc
func (s *Sparse) Scatter(dst Vector) {
	if s.dim != len(dst) {
		//fmeter:alloc-ok the panic path aborts the query; only misuse allocates
		panic(fmt.Sprintf("vecmath: sparse Scatter dimension mismatch %d vs %d", s.dim, len(dst)))
	}
	for k, i := range s.idx {
		dst[i] = s.val[k]
	}
}

// Unscatter zeroes dst over s's support — after a Scatter of the same s
// it restores the all-zero vector in O(nnz).
//
//fmeter:noalloc
func (s *Sparse) Unscatter(dst Vector) {
	for _, i := range s.idx {
		dst[i] = 0
	}
}

// SquaredDistanceDense returns ||s - v||^2 where v's squared norm vNorm2
// was precomputed by the caller (K-means recomputes centroid norms once
// per Lloyd iteration, then scores every point against them in O(nnz)).
//
//fmeter:noalloc
func (s *Sparse) SquaredDistanceDense(v Vector, vNorm2 float64) float64 {
	d2 := s.norm2 - 2*s.DotDense(v) + vNorm2
	if d2 < 0 {
		return 0
	}
	return d2
}

// Support returns the sorted non-zero indices backing s. The slice is
// the canonical storage, not a copy — callers must treat it as
// read-only. It exists for closure-free hot loops (the inverted-index
// posting walk); everything else should prefer ForEach.
func (s *Sparse) Support() []int32 { return s.idx }

// Values returns the stored values parallel to Support, again aliasing
// the canonical storage; read-only for the same reason.
func (s *Sparse) Values() []float64 { return s.val }

// ForEach calls fn for every stored non-zero in ascending index order.
func (s *Sparse) ForEach(fn func(i int, x float64)) {
	for k, i := range s.idx {
		fn(int(i), s.val[k])
	}
}

// ForEachUnion calls fn for every index in the support union of s and t,
// in ascending index order, with both values at that index (zero when
// absent from one support). It panics on dimension mismatch, like the
// other pre-validated merge ops.
func (s *Sparse) ForEachUnion(t *Sparse, fn func(i int, x, y float64)) {
	if s.dim != t.dim {
		panic(fmt.Sprintf("vecmath: sparse ForEachUnion dimension mismatch %d vs %d", s.dim, t.dim))
	}
	a, b := 0, len(s.idx)
	c, d := 0, len(t.idx)
	for a < b || c < d {
		switch {
		case c >= d || (a < b && s.idx[a] < t.idx[c]):
			fn(int(s.idx[a]), s.val[a], 0)
			a++
		case a >= b || t.idx[c] < s.idx[a]:
			fn(int(t.idx[c]), 0, t.val[c])
			c++
		default: // equal indices
			fn(int(s.idx[a]), s.val[a], t.val[c])
			a++
			c++
		}
	}
}

// Normalize scales s in place to unit L2 norm and returns s, exactly like
// the dense Vector.Normalize: every value is divided by the norm (the
// same operation the dense loop applies to the non-zero components; the
// zero components stay zero either way). The zero vector is unchanged.
func (s *Sparse) Normalize() *Sparse {
	n := math.Sqrt(s.norm2)
	if n == 0 {
		return s
	}
	s.norm2 = 0
	for k := range s.val {
		s.val[k] /= n
		s.norm2 += s.val[k] * s.val[k]
	}
	return s
}

// Axpy accumulates a*s into the dense vector dst (dst += a*s), the
// sparse-to-dense accumulate that centroid updates and mean signatures
// need. Only the support is touched, and since the skipped components
// would contribute an exact +0, the result is bit-identical to adding the
// materialized dense form.
func (s *Sparse) Axpy(a float64, dst Vector) {
	if s.dim != len(dst) {
		panic(fmt.Sprintf("vecmath: sparse Axpy dimension mismatch %d vs %d", s.dim, len(dst)))
	}
	for k, i := range s.idx {
		dst[i] += a * s.val[k]
	}
}

// Norm2Of returns the squared L2 norm of a dense vector, accumulated in
// index order (the shared helper for norm-cached distance computations).
func Norm2Of(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}
