// Package svm implements a soft-margin support vector machine trained with
// sequential minimal optimization (SMO). It is the supervised learner of
// the paper's §4.2.1 evaluation, standing in for SVM^light (Joachims):
// Vapnik's SVM with SVM^light's default polynomial kernel and the
// training-error/margin trade-off exposed as the C parameter, which the
// paper tunes on the validation folds. Examples and queries are canonical
// sparse signatures; every kernel evaluation is one sparse dot.
package svm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/vecmath"
)

// kernel is the paper's SVM kernel (not to be confused with the operating
// system kernel whose functions Fmeter counts — the paper makes the same
// disclaimer): SVM^light's default polynomial (γ·x·y + c)^d with d = 3,
// γ = 1, c = 1 ("we simply set the SVM's kernel parameter to the default
// polynomial function"), given dot = x·y. The multiplication order is
// fixed, (b·b)·b, so a gram entry has the same bits however it is reached.
func kernel(dot float64) float64 {
	b := dot + 1
	return (b * b) * b
}

// Config controls training.
type Config struct {
	// C is the soft-margin trade-off between training error and margin.
	C float64
	// Tol is the KKT violation tolerance (default 1e-3).
	Tol float64
	// MaxPasses is the number of consecutive full passes without an
	// update before SMO declares convergence (default 5).
	MaxPasses int
	// MaxIter caps total passes as a safety valve (default 1000).
	MaxIter int
	// Seed drives the SMO partner-selection randomness.
	Seed int64
	// Workers bounds the fan-out of the kernel-matrix build (0 = one per
	// CPU, <0 = sequential). The gram matrix is identical at any worker
	// count: each row is an independent pure computation.
	Workers int
}

func (c *Config) fillDefaults() {
	if c.Tol == 0 {
		c.Tol = 1e-3
	}
	if c.MaxPasses == 0 {
		c.MaxPasses = 5
	}
	if c.MaxIter == 0 {
		c.MaxIter = 1000
	}
}

// Model is a trained SVM.
type Model struct {
	svs    []*vecmath.Sparse // support vectors
	svCoef []float64         // alpha_i * y_i for each support vector
	b      float64
}

// validateTraining checks the training contract: a non-empty set, ±1
// labels with both classes present, a positive finite C, and non-nil
// examples of one dimension with finite weights. Every error names the
// offending index.
func validateTraining(x []*vecmath.Sparse, y []float64, c float64) error {
	if len(x) == 0 {
		return errors.New("svm: empty training set")
	}
	if len(x) != len(y) {
		return fmt.Errorf("svm: %d examples but %d labels", len(x), len(y))
	}
	if !(c > 0) || math.IsInf(c, 1) {
		return fmt.Errorf("svm: C=%v must be positive and finite", c)
	}
	var hasPos, hasNeg bool
	for i, yy := range y {
		switch yy {
		case 1:
			hasPos = true
		case -1:
			hasNeg = true
		default:
			return fmt.Errorf("svm: label %v at %d; want +1 or -1", yy, i)
		}
	}
	if !hasPos || !hasNeg {
		return errors.New("svm: training set needs both classes")
	}
	for i, s := range x {
		switch { // x[0] is non-nil past i = 0
		case s == nil:
			return fmt.Errorf("svm: example %d is nil", i)
		case s.Dim() != x[0].Dim():
			return fmt.Errorf("svm: example %d has dimension %d, want %d", i, s.Dim(), x[0].Dim())
		case math.IsNaN(s.Norm2()) || math.IsInf(s.Norm2(), 0):
			return fmt.Errorf("svm: example %d has a non-finite weight (squared norm %v)", i, s.Norm2())
		}
	}
	return nil
}

// Train fits a binary SVM on canonical sparse signatures x with labels y
// in {+1, -1} using SMO (Platt 1998, in the simplified variant with
// random second-choice heuristics and a full kernel cache).
func Train(x []*vecmath.Sparse, y []float64, cfg Config) (*Model, error) {
	if err := validateTraining(x, y, cfg.C); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	n := len(y)
	// Full kernel matrix cache: the paper's corpora are a few hundred
	// signatures, so O(n^2) memory is the right trade. Rows are filled in
	// parallel (each goroutine writes only its own rows), each entry one
	// sparse dot, so the matrix is identical at any worker count.
	kmat := make([][]float64, n)
	for i := range kmat {
		kmat[i] = make([]float64, n)
	}
	_ = parallel.For(cfg.Workers, n, func(i int) error {
		for j := i; j < n; j++ {
			kmat[i][j] = kernel(x[i].Dot(x[j]))
		}
		return nil
	})
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			kmat[i][j] = kmat[j][i]
		}
	}

	alpha := make([]float64, n)
	b := 0.0
	rng := rand.New(rand.NewSource(cfg.Seed))

	// decision(i) - y_i using current alphas.
	errFor := func(i int) float64 {
		s := -b
		for j := 0; j < n; j++ {
			if alpha[j] != 0 {
				s += alpha[j] * y[j] * kmat[i][j]
			}
		}
		return s - y[i]
	}

	passes, iter := 0, 0
	for passes < cfg.MaxPasses && iter < cfg.MaxIter {
		changed := 0
		for i := 0; i < n; i++ {
			ei := errFor(i)
			if !((y[i]*ei < -cfg.Tol && alpha[i] < cfg.C) || (y[i]*ei > cfg.Tol && alpha[i] > 0)) {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := errFor(j)

			ai, aj := alpha[i], alpha[j]
			var lo, hi float64
			if y[i] != y[j] {
				lo = math.Max(0, aj-ai)
				hi = math.Min(cfg.C, cfg.C+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-cfg.C)
				hi = math.Min(cfg.C, ai+aj)
			}
			if lo == hi {
				continue
			}
			eta := 2*kmat[i][j] - kmat[i][i] - kmat[j][j]
			if eta >= 0 {
				continue
			}
			ajNew := aj - y[j]*(ei-ej)/eta
			if ajNew > hi {
				ajNew = hi
			} else if ajNew < lo {
				ajNew = lo
			}
			if math.Abs(ajNew-aj) < 1e-7 {
				continue
			}
			aiNew := ai + y[i]*y[j]*(aj-ajNew)
			alpha[i], alpha[j] = aiNew, ajNew

			b1 := b + ei + y[i]*(aiNew-ai)*kmat[i][i] + y[j]*(ajNew-aj)*kmat[i][j]
			b2 := b + ej + y[i]*(aiNew-ai)*kmat[i][j] + y[j]*(ajNew-aj)*kmat[j][j]
			switch {
			case aiNew > 0 && aiNew < cfg.C:
				b = b1
			case ajNew > 0 && ajNew < cfg.C:
				b = b2
			default:
				b = (b1 + b2) / 2
			}
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
		iter++
	}

	m := &Model{b: b}
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-10 {
			m.svs = append(m.svs, x[i])
			m.svCoef = append(m.svCoef, alpha[i]*y[i])
		}
	}
	if len(m.svCoef) == 0 {
		return nil, errors.New("svm: optimization produced no support vectors")
	}
	return m, nil
}

// Decision returns the signed distance-like score Σ α_i y_i K(sv_i, q) - b
// of a query in canonical sparse form, in O(Σ nnz) over the support
// vectors.
func (m *Model) Decision(q *vecmath.Sparse) float64 {
	s := -m.b
	for i, sv := range m.svs {
		s += m.svCoef[i] * kernel(sv.Dot(q))
	}
	return s
}

// DecisionBatch scores a batch of sparse queries, fanning the per-query
// kernel-row computations out over the worker pool (parallel.Workers
// semantics). Each query's score is an independent pure computation, so
// the result is bit-identical at any worker count, and equals calling
// Decision per query.
func (m *Model) DecisionBatch(qs []*vecmath.Sparse, workers int) []float64 {
	out := make([]float64, len(qs))
	parallel.Chunks(workers, len(qs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = m.Decision(qs[i])
		}
	})
	return out
}

// PredictBatch labels a batch of sparse queries (+1/-1), batching like
// DecisionBatch.
func (m *Model) PredictBatch(qs []*vecmath.Sparse, workers int) []float64 {
	out := m.DecisionBatch(qs, workers)
	for i, s := range out {
		if s >= 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// NumSV returns the number of support vectors.
func (m *Model) NumSV() int { return len(m.svCoef) }
