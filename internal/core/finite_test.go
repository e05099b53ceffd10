package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/vecmath"
)

// hostileWeights are the weights no entry point may let through: the
// gather dot multiplies every stored weight by the query's value at that
// dimension, 0 where the query lacks it, and only a finite weight times 0
// is the exact 0 the merge dot's skipped term stands for. 1e200 is
// finite, but its square is not: it is caught by the same O(1) test of
// the cached squared norm.
var hostileWeights = map[string]float64{
	"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1), "1e200": 1e200,
}

// hostileSparse is a well-formed sparse vector holding one hostile weight
// among ordinary ones.
func hostileSparse(t *testing.T, dim int, w float64) *vecmath.Sparse {
	t.Helper()
	s, err := vecmath.SparseFromSorted(dim, []int32{1, 4, 7}, []float64{0.5, w, -0.25})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// requireNonFinite asserts err is the typed non-finite rejection for param.
func requireNonFinite(t testing.TB, ctx, param string, err error) {
	t.Helper()
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Param != param {
		t.Fatalf("%s: err = %v, want a %s *ConfigError", ctx, err, param)
	}
}

// TestNonFiniteWeightsRejected drives every entry point with NaN, ±Inf
// and finite-but-overflowing weights: stores reject the signature (a
// batch whole, leaving the store as it was), queries reject the query,
// and snapshot loads reject the file with a typed *SnapshotError — a
// finite cached norm is an invariant of everything a DB holds or scores.
func TestNonFiniteWeightsRejected(t *testing.T) {
	const dim = 10
	good := SignatureFromDense("good", "l", vecmath.Vector{0, 1, 0, 0, 2, 0, 0, 3, 0, 0})
	for name, w := range hostileWeights {
		bad := Signature{DocID: "bad", Label: "l", W: hostileSparse(t, dim, w)}
		db, err := newTestDB(dim, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Add(good); err != nil {
			t.Fatal(err)
		}
		requireNonFinite(t, name+" Add", "signature", db.Add(bad))
		requireNonFinite(t, name+" AddAll", "signature", db.AddAll([]Signature{good, bad}))
		if db.Len() != 1 {
			t.Fatalf("%s: store holds %d signatures after rejected adds, want 1", name, db.Len())
		}

		for _, metric := range []Metric{CosineMetric(), EuclideanMetric()} {
			ctx := name + " " + metric.Name
			for entry, ask := range queryEntries {
				requireNonFinite(t, ctx+" "+entry, "query", ask(db, bad.W, 1, metric))
			}
			_, err = db.TopKBatch([]*vecmath.Sparse{good.W, bad.W}, 1, metric)
			requireNonFinite(t, ctx+" TopKBatch after a good query", "query", err)
			// The rejected query left the pooled dense vector clean.
			if hits, err := db.TopKSparse(good.W, 1, metric); err != nil || hits[0].Signature.DocID != "good" {
				t.Fatalf("%s: query after rejection = %v, %v", ctx, hits, err)
			}
		}

		// A snapshot can only hold such a signature if something other
		// than this package wrote it; plant one behind Add's back and
		// every loader must refuse the file.
		db.mu.Lock()
		db.addLocked(bad)
		db.publishLocked()
		db.mu.Unlock()
		var se *SnapshotError
		for _, sealed := range []bool{false, true} {
			if sealed {
				db.Seal()
			}
			dir := t.TempDir()
			if err := db.SaveDir(dir); err != nil {
				t.Fatal(err)
			}
			_, err := LoadDir(dir)
			if requireNonFinite(t, name+" LoadDir", "signature", err); !errors.As(err, &se) || se.Path == "" {
				t.Fatalf("%s LoadDir (sealed=%v): err = %v, want *SnapshotError naming the file", name, sealed, err)
			}
		}
	}
}
