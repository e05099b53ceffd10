// Package vecmath provides dense and sparse vector primitives used to
// represent Fmeter signatures in the vector space model (Salton et al.).
//
// Signatures are points in an N-dimensional space whose orthonormal basis is
// induced by the set of distinct core-kernel functions. The package supplies
// the operations the paper relies on: dot products, Lp (Minkowski) norms and
// distances, cosine similarity, and L2 normalization into the unit ball.
package vecmath

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when an operation is applied to two
// vectors of different dimensionality.
var ErrDimensionMismatch = errors.New("vecmath: dimension mismatch")

// Vector is a dense vector of float64 components.
type Vector []float64

// NewVector returns a zero vector of dimension n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dim returns the dimensionality of v.
func (v Vector) Dim() int { return len(v) }

// Norm returns the Lp norm of v. p must be >= 1; p = math.Inf(1) yields the
// Chebyshev (max) norm.
func (v Vector) Norm(p float64) float64 {
	switch {
	case math.IsInf(p, 1):
		var m float64
		for _, x := range v {
			if a := math.Abs(x); a > m {
				m = a
			}
		}
		return m
	case p == 2:
		var s float64
		for _, x := range v {
			s += x * x
		}
		return math.Sqrt(s)
	case p == 1:
		var s float64
		for _, x := range v {
			s += math.Abs(x)
		}
		return s
	default:
		var s float64
		for _, x := range v {
			s += math.Pow(math.Abs(x), p)
		}
		return math.Pow(s, 1/p)
	}
}

// L2 returns the Euclidean norm of v.
func (v Vector) L2() float64 { return v.Norm(2) }

// Normalize scales v in place to unit L2 norm and returns v. The zero vector
// is left unchanged (there is no direction to preserve).
func (v Vector) Normalize() Vector {
	n := v.L2()
	if n == 0 {
		return v
	}
	for i := range v {
		v[i] /= n
	}
	return v
}

// Normalized returns a unit-L2-norm copy of v.
func (v Vector) Normalized() Vector { return v.Clone().Normalize() }

// Scale multiplies every component of v by a in place and returns v.
func (v Vector) Scale(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// Equal reports whether v and w are component-wise equal within eps.
func (v Vector) Equal(w Vector, eps float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > eps {
			return false
		}
	}
	return true
}

// Minkowski returns the Lp-induced distance between x and y,
// d_p(x,y) = (sum |x_i - y_i|^p)^(1/p), as defined in §2.1 of the paper.
func Minkowski(x, y Vector, p float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrDimensionMismatch, len(x), len(y))
	}
	switch {
	case math.IsInf(p, 1):
		var m float64
		for i := range x {
			if a := math.Abs(x[i] - y[i]); a > m {
				m = a
			}
		}
		return m, nil
	case p == 2:
		var s float64
		for i := range x {
			d := x[i] - y[i]
			s += d * d
		}
		return math.Sqrt(s), nil
	case p == 1:
		var s float64
		for i := range x {
			s += math.Abs(x[i] - y[i])
		}
		return s, nil
	case p < 1:
		return 0, fmt.Errorf("vecmath: Minkowski order p=%v must be >= 1", p)
	default:
		var s float64
		for i := range x {
			s += math.Pow(math.Abs(x[i]-y[i]), p)
		}
		return math.Pow(s, 1/p), nil
	}
}

// Euclidean returns the L2 distance between x and y. It is the default
// metric used throughout the paper's evaluation.
func Euclidean(x, y Vector) (float64, error) { return Minkowski(x, y, 2) }

// Cosine returns the cosine similarity cos(theta) = x.y / (||x|| ||y||)
// between x and y. Identical directions yield 1, orthogonal vectors yield 0.
// If either vector is zero the similarity is defined as 0 (no direction).
func Cosine(x, y Vector) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrDimensionMismatch, len(x), len(y))
	}
	var dot, nx, ny float64
	for i := range x {
		dot += x[i] * y[i]
		nx += x[i] * x[i]
		ny += y[i] * y[i]
	}
	if nx == 0 || ny == 0 {
		return 0, nil
	}
	c := dot / (math.Sqrt(nx) * math.Sqrt(ny))
	// Clamp numerical noise so downstream acos never sees |c| > 1.
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c, nil
}
