package vecmath

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDot(t *testing.T) {
	tests := []struct {
		name string
		v, w Vector
		want float64
	}{
		{"orthogonal", Vector{1, 0}, Vector{0, 1}, 0},
		{"parallel", Vector{1, 2, 3}, Vector{2, 4, 6}, 28},
		{"negative", Vector{1, -1}, Vector{1, 1}, 0},
		{"empty", Vector{}, Vector{}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tt.v.Dot(tt.w)
			if err != nil {
				t.Fatalf("Dot: %v", err)
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Dot = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDotDimensionMismatch(t *testing.T) {
	_, err := Vector{1}.Dot(Vector{1, 2})
	if !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("want ErrDimensionMismatch, got %v", err)
	}
}

func TestNorms(t *testing.T) {
	v := Vector{3, -4}
	if got := v.Norm(1); !almostEqual(got, 7, 1e-12) {
		t.Errorf("L1 = %v, want 7", got)
	}
	if got := v.Norm(2); !almostEqual(got, 5, 1e-12) {
		t.Errorf("L2 = %v, want 5", got)
	}
	if got := v.Norm(math.Inf(1)); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Linf = %v, want 4", got)
	}
	if got := v.Norm(3); !almostEqual(got, math.Pow(27+64, 1.0/3), 1e-12) {
		t.Errorf("L3 = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	v := Vector{3, 4}
	v.Normalize()
	if !almostEqual(v.L2(), 1, 1e-12) {
		t.Errorf("normalized L2 = %v, want 1", v.L2())
	}
	if !v.Equal(Vector{0.6, 0.8}, 1e-12) {
		t.Errorf("normalized = %v", v)
	}
}

func TestNormalizeZeroVector(t *testing.T) {
	v := Vector{0, 0, 0}
	v.Normalize()
	if !v.IsZero() {
		t.Errorf("zero vector changed by Normalize: %v", v)
	}
}

func TestAddSubScale(t *testing.T) {
	v := Vector{1, 2}
	if err := v.Add(Vector{3, 4}); err != nil {
		t.Fatal(err)
	}
	if !v.Equal(Vector{4, 6}, 0) {
		t.Errorf("Add = %v", v)
	}
	if err := v.Sub(Vector{1, 1}); err != nil {
		t.Fatal(err)
	}
	if !v.Equal(Vector{3, 5}, 0) {
		t.Errorf("Sub = %v", v)
	}
	v.Scale(2)
	if !v.Equal(Vector{6, 10}, 0) {
		t.Errorf("Scale = %v", v)
	}
	if err := v.Add(Vector{1}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Add mismatch err = %v", err)
	}
	if err := v.Sub(Vector{1}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Sub mismatch err = %v", err)
	}
}

func TestMinkowski(t *testing.T) {
	x := Vector{0, 0}
	y := Vector{3, 4}
	tests := []struct {
		p    float64
		want float64
	}{
		{1, 7},
		{2, 5},
		{math.Inf(1), 4},
		{3, math.Pow(27+64, 1.0/3)},
	}
	for _, tt := range tests {
		got, err := Minkowski(x, y, tt.p)
		if err != nil {
			t.Fatalf("Minkowski(p=%v): %v", tt.p, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Minkowski(p=%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestMinkowskiInvalidOrder(t *testing.T) {
	if _, err := Minkowski(Vector{1}, Vector{2}, 0.5); err == nil {
		t.Fatal("want error for p < 1")
	}
}

func TestCosine(t *testing.T) {
	tests := []struct {
		name string
		x, y Vector
		want float64
	}{
		{"identical direction", Vector{1, 1}, Vector{2, 2}, 1},
		{"orthogonal", Vector{1, 0}, Vector{0, 1}, 0},
		{"opposite", Vector{1, 0}, Vector{-1, 0}, -1},
		{"zero vector", Vector{0, 0}, Vector{1, 1}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Cosine(tt.x, tt.y)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Cosine = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMean(t *testing.T) {
	m, err := Mean([]Vector{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(Vector{2, 3}, 1e-12) {
		t.Errorf("Mean = %v", m)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("want error for empty mean")
	}
	if _, err := Mean([]Vector{{1}, {1, 2}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("mismatch err = %v", err)
	}
}

// fromMap builds the one sparse type from an index → value map.
func fromMap(t *testing.T, m map[int]float64, dim int) *Sparse {
	t.Helper()
	s, err := MapToSparse(m, dim)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSparseBasics(t *testing.T) {
	s := fromMap(t, map[int]float64{3: 3, 7: 1, 8: 0}, 10)
	if got := s.Get(3); got != 3 {
		t.Errorf("Get(3) = %v", got)
	}
	if got := s.Get(4); got != 0 {
		t.Errorf("Get of an absent index = %v", got)
	}
	if s.NNZ() != 2 { // the explicit zero is dropped
		t.Errorf("NNZ = %d", s.NNZ())
	}
	if got := s.Norm2(); got != 10 {
		t.Errorf("Norm2 = %v", got)
	}
}

func TestSparseDot(t *testing.T) {
	a := fromMap(t, map[int]float64{0: 1, 2: 3}, 6)
	b := fromMap(t, map[int]float64{2: 2, 5: 10}, 6)
	if got := a.Dot(b); got != 6 {
		t.Errorf("sparse Dot = %v, want 6", got)
	}
	if got := b.Dot(a); got != 6 {
		t.Errorf("sparse Dot not symmetric: %v", got)
	}
}

func TestSparseDense(t *testing.T) {
	m := map[int]float64{1: 5, 3: 7}
	if d := fromMap(t, m, 4).Dense(); !d.Equal(Vector{0, 5, 0, 7}, 0) {
		t.Errorf("Dense = %v", d)
	}
	if _, err := MapToSparse(m, 2); err == nil {
		t.Error("want error when support exceeds dimension")
	}
}

func TestSparseSupportSorted(t *testing.T) {
	got := fromMap(t, map[int]float64{9: 1, 2: 1, 5: 1}, 10).Support()
	want := []int32{2, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Support = %v, want %v", got, want)
		}
	}
}

func TestSparseClone(t *testing.T) {
	m := map[int]float64{1: 2}
	s := fromMap(t, m, 4)
	m[1] = 99
	if s.Get(1) != 2 {
		t.Error("MapToSparse result aliases its source map")
	}
}

func randVector(r *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

// Property: cosine similarity is always within [-1, 1].
func TestPropertyCosineBounded(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		x := randVector(rr, 1+rr.Intn(50))
		y := randVector(rr, len(x))
		c, err := Cosine(x, y)
		return err == nil && c >= -1 && c <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Error(err)
	}
}

// Property: Minkowski distance satisfies the triangle inequality for p >= 1.
func TestPropertyTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(20)
		x, y, z := randVector(rr, n), randVector(rr, n), randVector(rr, n)
		for _, p := range []float64{1, 2, 3, math.Inf(1)} {
			dxz, _ := Minkowski(x, z, p)
			dxy, _ := Minkowski(x, y, p)
			dyz, _ := Minkowski(y, z, p)
			if dxz > dxy+dyz+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: distance is symmetric and d(x, x) = 0.
func TestPropertyDistanceAxioms(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(20)
		x, y := randVector(rr, n), randVector(rr, n)
		dxy, _ := Euclidean(x, y)
		dyx, _ := Euclidean(y, x)
		dxx, _ := Euclidean(x, x)
		return almostEqual(dxy, dyx, 1e-12) && dxx == 0 && dxy >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: normalization is idempotent and preserves direction.
func TestPropertyNormalizeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		v := randVector(rr, 1+rr.Intn(30))
		if v.IsZero() {
			return true
		}
		n1 := v.Normalized()
		n2 := n1.Normalized()
		c, _ := Cosine(v, n1)
		return n1.Equal(n2, 1e-12) && almostEqual(c, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Cauchy-Schwarz |x.y| <= ||x|| ||y||.
func TestPropertyCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(30)
		x, y := randVector(rr, n), randVector(rr, n)
		dot := denseDot(x, y)
		return math.Abs(dot) <= x.L2()*y.L2()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: sparse Dot agrees with dense Dot on the materialized vectors.
func TestPropertySparseDenseDotAgree(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		dim := 10 + rr.Intn(40)
		ma, mb := map[int]float64{}, map[int]float64{}
		for i := 0; i < rr.Intn(20); i++ {
			ma[rr.Intn(dim)] = rr.NormFloat64()
			mb[rr.Intn(dim)] = rr.NormFloat64()
		}
		a, err1 := MapToSparse(ma, dim)
		b, err2 := MapToSparse(mb, dim)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(a.Dot(b), denseDot(a.Dense(), b.Dense()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDenseDot(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randVector(r, 3800), randVector(r, 3800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = x.Dot(y)
	}
}

func BenchmarkEuclidean3800(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randVector(r, 3800), randVector(r, 3800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Euclidean(x, y)
	}
}

// Dot returns the inner product of v and w.
func (v Vector) Dot(w Vector) (float64, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrDimensionMismatch, len(v), len(w))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s, nil
}

// Add accumulates w into v in place.
func (v Vector) Add(w Vector) error {
	if len(v) != len(w) {
		return fmt.Errorf("%w: %d vs %d", ErrDimensionMismatch, len(v), len(w))
	}
	for i := range v {
		v[i] += w[i]
	}
	return nil
}

// Sub subtracts w from v in place.
func (v Vector) Sub(w Vector) error {
	if len(v) != len(w) {
		return fmt.Errorf("%w: %d vs %d", ErrDimensionMismatch, len(v), len(w))
	}
	for i := range v {
		v[i] -= w[i]
	}
	return nil
}

// IsZero reports whether every component of v is exactly zero.
func (v Vector) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Mean returns the component-wise mean of vs. All vectors must share a
// dimension; an empty input returns an error.
func Mean(vs []Vector) (Vector, error) {
	if len(vs) == 0 {
		return nil, errors.New("vecmath: mean of empty vector set")
	}
	dim := len(vs[0])
	out := NewVector(dim)
	for _, v := range vs {
		if len(v) != dim {
			return nil, fmt.Errorf("%w: %d vs %d", ErrDimensionMismatch, len(v), dim)
		}
		for i, x := range v {
			out[i] += x
		}
	}
	inv := 1 / float64(len(vs))
	for i := range out {
		out[i] *= inv
	}
	return out, nil
}
