package svm

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/vecmath"
)

// sparseOf converts a dense training set to canonical sparse form.
func sparseOf(x []vecmath.Vector) []*vecmath.Sparse {
	out := make([]*vecmath.Sparse, len(x))
	for i := range x {
		out[i] = vecmath.DenseToSparse(x[i])
	}
	return out
}

func TestTrainValidation(t *testing.T) {
	x := sparseOf([]vecmath.Vector{{0, 1}, {1, 0}})
	y := []float64{1, -1}
	for _, tc := range []struct {
		name string
		x    []*vecmath.Sparse
		y    []float64
		c    float64
		want string
	}{
		{"empty set", nil, nil, 1, "empty training set"},
		{"label length mismatch", x, y[:1], 1, "2 examples but 1 labels"},
		{"zero C", x, y, 0, "C=0 must be"},
		{"negative C", x, y, -1, "C=-1 must be"},
		{"NaN C", x, y, math.NaN(), "C=NaN must be"},
		{"infinite C", x, y, math.Inf(1), "C=+Inf must be"},
		{"non ±1 label", x, []float64{1, 2}, 1, "label 2 at 1"},
		{"single class", x, []float64{1, 1}, 1, "needs both classes"},
		{"inconsistent dimensions", sparseOf([]vecmath.Vector{{0, 1}, {1, 0, 0}}), y, 1, "example 1 has dimension 3, want 2"},
	} {
		_, err := Train(tc.x, tc.y, Config{C: tc.c})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestTrainSparseValidation: a bad example — nil, or carrying a weight
// whose square is not finite — is an error, not a panic or a NaN model.
func TestTrainSparseValidation(t *testing.T) {
	x := sparseOf([]vecmath.Vector{{0, 1}, {1, 0}})
	y := []float64{1, -1}
	for _, tc := range []struct {
		name string
		x    []*vecmath.Sparse
		want string
	}{
		{"nil example", []*vecmath.Sparse{x[0], nil}, "example 1 is nil"},
		{"NaN weight", sparseOf([]vecmath.Vector{{0, 1}, {math.NaN(), 0}}), "example 1 has a non-finite weight"},
		{"infinite weight", sparseOf([]vecmath.Vector{{math.Inf(-1), 1}, {1, 0}}), "example 0 has a non-finite weight"},
		{"overflowing squared norm", sparseOf([]vecmath.Vector{{0, 1}, {1e200, 0}}), "example 1 has a non-finite weight"},
	} {
		_, err := Train(tc.x, y, Config{C: 1})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestKernels pins the one kernel: SVM^light's default polynomial
// (x·y + 1)³ as a function of the dot product.
func TestKernels(t *testing.T) {
	x := vecmath.DenseToSparse(vecmath.Vector{1, 2})
	y := vecmath.DenseToSparse(vecmath.Vector{3, 4})
	if got := kernel(x.Dot(y)); got != 1728 {
		t.Errorf("kernel(x·y) = %v, want (11+1)^3", got)
	}
	if got := kernel(0); got != 1 {
		t.Errorf("kernel(0) = %v, want 1", got)
	}
	if got := kernel(-1); got != 0 {
		t.Errorf("kernel(-1) = %v, want 0", got)
	}
}

func TestLinearlySeparable2D(t *testing.T) {
	// Two clouds separated by x0 + x1 = 0.
	r := rand.New(rand.NewSource(1))
	var x []vecmath.Vector
	var y []float64
	for i := 0; i < 60; i++ {
		sign := 1.0
		if i%2 == 0 {
			sign = -1
		}
		x = append(x, vecmath.Vector{sign*2 + 0.5*r.NormFloat64(), sign*2 + 0.5*r.NormFloat64()})
		y = append(y, sign)
	}
	sx := sparseOf(x)
	m, err := Train(sx, y, Config{C: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range sx {
		if predict(m, sx[i]) != y[i] {
			errs++
		}
	}
	if errs > 1 {
		t.Errorf("%d training errors on separable data", errs)
	}
	if m.NumSV() == 0 || m.NumSV() > len(x) {
		t.Errorf("NumSV = %d", m.NumSV())
	}
}

// predict labels one query through PredictBatch.
func predict(m *Model, q *vecmath.Sparse) float64 {
	return m.PredictBatch([]*vecmath.Sparse{q}, -1)[0]
}

func TestXORNeedsNonlinearKernel(t *testing.T) {
	// XOR: not linearly separable; the cubic polynomial kernel solves it.
	x := sparseOf([]vecmath.Vector{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y := []float64{-1, 1, 1, -1}
	m, err := Train(x, y, Config{C: 100, Seed: 3, MaxPasses: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if predict(m, x[i]) != y[i] {
			t.Errorf("xor example %d misclassified", i)
		}
	}
}

func TestSoftMarginToleratesOutliers(t *testing.T) {
	// Separable clouds plus one mislabeled point; small C should still
	// produce a reasonable boundary rather than memorizing the outlier.
	r := rand.New(rand.NewSource(5))
	var x []vecmath.Vector
	var y []float64
	for i := 0; i < 40; i++ {
		sign := 1.0
		if i%2 == 0 {
			sign = -1
		}
		x = append(x, vecmath.Vector{sign * (1 + r.Float64()), sign * (1 + r.Float64())})
		y = append(y, sign)
	}
	x = append(x, vecmath.Vector{2, 2}) // deep in +1 territory
	y = append(y, -1)                   // mislabeled
	sx := sparseOf(x)
	m, err := Train(sx, y, Config{C: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := 0; i < 40; i++ {
		if predict(m, sx[i]) != y[i] {
			errs++
		}
	}
	if errs > 2 {
		t.Errorf("%d errors on the clean points; outlier dominated", errs)
	}
}

func TestDecisionConsistentWithPredict(t *testing.T) {
	x := sparseOf([]vecmath.Vector{{-1, 0}, {-2, 1}, {1, 0}, {2, -1}})
	y := []float64{-1, -1, 1, 1}
	m, err := Train(x, y, Config{C: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range sparseOf([]vecmath.Vector{{3, 0}, {-3, 0}, {0.5, 0.5}}) {
		d := m.Decision(q)
		p := predict(m, q)
		if (d >= 0) != (p == 1) {
			t.Errorf("Decision %v inconsistent with Predict %v", d, p)
		}
	}
}

func TestHighDimensionalSparseSignatures(t *testing.T) {
	// Signatures live in ~3800 dims with small support. Verify the SVM
	// separates two synthetic "workloads" that differ on a few dims.
	const dim = 500
	r := rand.New(rand.NewSource(9))
	mk := func(hot []int) vecmath.Vector {
		v := vecmath.NewVector(dim)
		for _, h := range hot {
			v[h] = 0.5 + 0.1*r.NormFloat64()
		}
		for i := 0; i < 20; i++ {
			v[r.Intn(dim)] += 0.05 * r.Float64()
		}
		return v.Normalize()
	}
	var x []vecmath.Vector
	var y []float64
	for i := 0; i < 50; i++ {
		x = append(x, mk([]int{3, 70, 111}))
		y = append(y, 1)
		x = append(x, mk([]int{9, 200, 412}))
		y = append(y, -1)
	}
	sx := sparseOf(x)
	m, err := Train(sx, y, Config{C: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	errs := 0
	for i := range sx {
		if predict(m, sx[i]) != y[i] {
			errs++
		}
	}
	if errs != 0 {
		t.Errorf("%d errors on well-separated high-dim data", errs)
	}
}

func TestTrainDeterministicGivenSeed(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var x []vecmath.Vector
	var y []float64
	for i := 0; i < 30; i++ {
		s := 1.0
		if i%2 == 0 {
			s = -1
		}
		x = append(x, vecmath.Vector{s + 0.3*r.NormFloat64(), s + 0.3*r.NormFloat64()})
		y = append(y, s)
	}
	sx := sparseOf(x)
	m1, err := Train(sx, y, Config{C: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(sx, y, Config{C: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	q := vecmath.DenseToSparse(vecmath.Vector{0.2, -0.1})
	if m1.Decision(q) != m2.Decision(q) {
		t.Error("training not deterministic for fixed seed")
	}
}

func BenchmarkTrain200x100(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var x []vecmath.Vector
	var y []float64
	for i := 0; i < 200; i++ {
		s := 1.0
		if i%2 == 0 {
			s = -1
		}
		v := vecmath.NewVector(100)
		for j := range v {
			v[j] = s*0.1 + 0.3*r.NormFloat64()
		}
		x = append(x, v)
		y = append(y, s)
	}
	sx := sparseOf(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(sx, y, Config{C: 1, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPredictBatchMatchesSequential: batched prediction is a pure
// fan-out — identical to per-query calls at every worker count.
func TestPredictBatchMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	var x []vecmath.Vector
	var y []float64
	for i := 0; i < 60; i++ {
		v := vecmath.NewVector(80)
		sign := 1.0
		hot := 5
		if i%2 == 0 {
			sign, hot = -1, 60
		}
		v[hot] = 1
		v[r.Intn(80)] += 0.3 * r.Float64()
		x = append(x, v.Normalize())
		y = append(y, sign)
	}
	sx := sparseOf(x)
	m, err := Train(sx[:40], y[:40], Config{C: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	queries := sx[40:]
	wantDec := make([]float64, len(queries))
	wantPred := make([]float64, len(queries))
	for i, q := range queries {
		wantDec[i] = m.Decision(q)
		wantPred[i] = predict(m, q)
	}
	for _, workers := range []int{-1, 1, 2, 0} {
		dec := m.DecisionBatch(queries, workers)
		pred := m.PredictBatch(queries, workers)
		for i := range queries {
			if dec[i] != wantDec[i] || pred[i] != wantPred[i] {
				t.Fatalf("workers=%d query %d: batch (%v, %v) vs sequential (%v, %v)",
					workers, i, dec[i], pred[i], wantDec[i], wantPred[i])
			}
		}
	}
	if got := m.DecisionBatch(nil, 0); len(got) != 0 {
		t.Error("empty batch should return empty slice")
	}
}
