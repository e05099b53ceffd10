package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/vecmath"
)

// TestIndexBasics pins the Index unit contract: construction validation,
// posting-list growth, local-id assignment, and exact dots.
func TestIndexBasics(t *testing.T) {
	if _, err := NewIndex(0); err == nil {
		t.Fatal("NewIndex(0) should fail")
	}
	ix, err := NewIndex(6)
	if err != nil {
		t.Fatal(err)
	}
	a := vecmath.DenseToSparse(vecmath.Vector{1, 0, 2, 0, 0, 0})
	b := vecmath.DenseToSparse(vecmath.Vector{0, 0, 3, 0, 4, 0})
	if id := ix.Add(a); id != 0 {
		t.Fatalf("first id = %d", id)
	}
	if id := ix.Add(b); id != 1 {
		t.Fatalf("second id = %d", id)
	}
	if ix.Len() != 2 || ix.Dim() != 6 {
		t.Fatalf("Len=%d Dim=%d", ix.Len(), ix.Dim())
	}
	if ix.Postings(2) != 2 || ix.Postings(0) != 1 || ix.Postings(1) != 0 {
		t.Fatalf("postings: %d %d %d", ix.Postings(2), ix.Postings(0), ix.Postings(1))
	}
	q := vecmath.DenseToSparse(vecmath.Vector{5, 0, 1, 0, 1, 0})
	var acc vecmath.Accumulator
	ix.Dots(q, &acc)
	if got, want := acc.Get(0), q.Dot(a); got != want {
		t.Fatalf("dot a = %v, want %v", got, want)
	}
	if got, want := acc.Get(1), q.Dot(b); got != want {
		t.Fatalf("dot b = %v, want %v", got, want)
	}
}

// TestIndexDimensionPanics pins the pre-validated-op discipline: Add and
// Dots panic on mis-sized vectors (the DB validates before reaching the
// index).
func TestIndexDimensionPanics(t *testing.T) {
	ix, err := NewIndex(4)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s with wrong dimension should panic", name)
			}
		}()
		fn()
	}
	bad := vecmath.DenseToSparse(vecmath.Vector{1, 2})
	mustPanic("Add", func() { ix.Add(bad) })
	var acc vecmath.Accumulator
	mustPanic("Dots", func() { ix.Dots(bad, &acc) })
}

// bruteTopK is the naive retrieval oracle every sweep holds the store's
// answers to: it scores each signature of sigs against q with the sparse
// dot (Sparse.Dot's merge walk, no index, no gather) and the metric's
// cached-norm formula, stable-sorts by (score, insertion index) and
// keeps the first k.
func bruteTopK(sigs []Signature, q *vecmath.Sparse, k int, m Metric) []SearchResult {
	out := make([]SearchResult, len(sigs))
	for i, s := range sigs {
		score := dotScore(q.Dot(s.W), q.Norm2(), s.W.Norm2(), m.kind == metricKindCosine)
		out[i] = SearchResult{Signature: s, Score: score}
	}
	slices.SortStableFunc(out, func(a, b SearchResult) int {
		switch {
		case a.Score == b.Score:
			return 0
		case (a.Score > b.Score) == m.HigherIsCloser:
			return -1
		}
		return 1
	})
	return out[:min(k, len(out))]
}

// bruteResults is bruteTopK over db's current signatures.
func bruteResults(db *DB, q *vecmath.Sparse, k int, m Metric) []SearchResult {
	return bruteTopK(db.All(), q, k, m)
}

// bruteLabel is the oracle's majority label: the store's vote over
// bruteResults.
func bruteLabel(db *DB, q *vecmath.Sparse, k int, m Metric) string {
	return voteLabel(bruteResults(db, q, k, m), map[string]int{})
}

// sameResults asserts bit-for-bit equality of two result lists: same
// documents in the same order with `==`-equal scores.
func sameResults(t *testing.T, tag string, got, want []SearchResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i].Signature.DocID != want[i].Signature.DocID || got[i].Score != want[i].Score {
			t.Fatalf("%s: hit %d = (%s, %v), want (%s, %v)",
				tag, i, got[i].Signature.DocID, got[i].Score, want[i].Signature.DocID, want[i].Score)
		}
	}
}

// TestTopKIndexedMatchesScan is the randomized equivalence property the
// index is built on: over random corpora (seeds 1..5) walked in 1, 2,
// 3 and 7 lanes, the indexed TopK must be bit-identical to the
// brute-force oracle (bruteTopK) for both metrics — and every
// configuration must match the sequential store.
func TestTopKIndexedMatchesScan(t *testing.T) {
	metrics := []Metric{CosineMetric(), EuclideanMetric()}
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		dim := 80 + r.Intn(120)
		n := 60 + r.Intn(200)
		nnz := 5 + r.Intn(25)
		sigs := randSigs(r, n, dim, nnz)
		// Duplicate a few signatures so equal scores exercise the
		// insertion-index tie-break on both paths.
		for d := 0; d < 3; d++ {
			dup := sigs[r.Intn(len(sigs))]
			dup.DocID = fmt.Sprintf("dup-%d", d)
			sigs = append(sigs, dup)
		}
		query := randSigs(r, 1, dim, nnz)[0].W
		k := 1 + r.Intn(n)

		ref, err := NewDB(dim)
		if err != nil {
			t.Fatal(err)
		}
		ref.SetWorkers(-1)
		if err := ref.AddAll(sigs); err != nil {
			t.Fatal(err)
		}

		for _, workers := range []int{1, 2, 3, 7} {
			db, err := newTestDB(dim, workers)
			if err != nil {
				t.Fatal(err)
			}
			db.setSegmentSize(16)
			if err := db.AddAll(sigs); err != nil {
				t.Fatal(err)
			}
			for _, m := range metrics {
				tag := fmt.Sprintf("seed=%d workers=%d %s k=%d", seed, workers, m.Name, k)
				indexed, err := db.TopKSparse(query, k, m)
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, tag+" indexed-vs-oracle", indexed, bruteTopK(sigs, query, k, m))
				seq, err := ref.TopKSparse(query, k, m)
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, tag+" vs-sequential-ref", indexed, seq)
			}
		}
	}
}

// TestTopKBatchMatchesPerQuery checks that the batched path is a pure
// fan-out: TopKBatch output is bit-identical to per-query TopKSparse at
// several worker counts, and ClassifyBatch to per-query ClassifySparse;
// a batch's PruneStats equal the direct query's. Batch sizes straddle
// the point where the fan-out flips from lanes to queries (fewer queries
// than min(workers, lanes) = 4: a lone query, 2, workers-1; then
// workers+1 and a long batch), over a store of one walk unit and one of
// many.
func TestTopKBatchMatchesPerQuery(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const dim, n, nnz, k = 150, 220, 20, 7
	sigs := randSigs(r, n, dim, nnz)
	queries := make([]*vecmath.Sparse, 40)
	for i := range queries {
		queries[i] = randSigs(r, 1, dim, nnz)[0].W
	}
	for _, segSize := range []int{SegmentSize, 32} {
		db, err := NewDB(dim)
		if err != nil {
			t.Fatal(err)
		}
		db.setSegmentSize(segSize)
		db.setPruneFloor(1)
		if err := db.AddAll(sigs); err != nil {
			t.Fatal(err)
		}
		for _, m := range []Metric{EuclideanMetric(), CosineMetric()} {
			for _, workers := range []int{-1, 1, 4} {
				db.SetWorkers(workers)
				for _, size := range []int{1, 2, 3, 5, len(queries)} {
					batchQ := queries[:size]
					batch := make([][]SearchResult, size)
					stats := make([]PruneStats, size)
					if err := db.Query(context.Background(), &Query{Queries: batchQ, K: k, Metric: m, Hits: batch, Stats: stats}); err != nil {
						t.Fatal(err)
					}
					labels, err := db.ClassifyBatch(batchQ, k, m)
					if err != nil {
						t.Fatal(err)
					}
					for qi, q := range batchQ {
						want, st, err := db.TopKSparseStats(q, k, m)
						if err != nil {
							t.Fatal(err)
						}
						tag := fmt.Sprintf("segsize=%d workers=%d batch=%d %s q=%d", segSize, workers, size, m.Name, qi)
						sameResults(t, tag, batch[qi], want)
						if stats[qi] != st {
							t.Fatalf("%s: batch stats %+v, direct %+v", tag, stats[qi], st)
						}
						wantLabel, err := db.ClassifySparse(q, k, m)
						if err != nil {
							t.Fatal(err)
						}
						if labels[qi] != wantLabel {
							t.Fatalf("ClassifyBatch[%d] of %d = %q, want %q", qi, size, labels[qi], wantLabel)
						}
					}
				}
			}
		}
	}
}

// TestTopKBatchIntoReuses checks the zero-alloc contract's mechanics:
// result slices with warm capacity are reused in place.
func TestTopKBatchIntoReuses(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	const dim, n, nnz, k = 100, 80, 15, 5
	db, err := newTestDB(dim, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll(randSigs(r, n, dim, nnz)); err != nil {
		t.Fatal(err)
	}
	queries := []*vecmath.Sparse{randSigs(r, 1, dim, nnz)[0].W, randSigs(r, 1, dim, nnz)[0].W}
	out := make([][]SearchResult, len(queries))
	q := Query{Queries: queries, K: k, Metric: EuclideanMetric(), Hits: out}
	if err := db.Query(context.Background(), &q); err != nil {
		t.Fatal(err)
	}
	first := make([][]SearchResult, len(out))
	copy(first, out)
	if err := db.Query(context.Background(), &q); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if len(out[i]) != k {
			t.Fatalf("query %d: %d hits, want %d", i, len(out[i]), k)
		}
		if &out[i][0] != &first[i][0] {
			t.Fatalf("query %d: result slice was reallocated despite warm capacity", i)
		}
	}
	var cfgErr *ConfigError
	q.Hits = make([][]SearchResult, 1)
	if err := db.Query(context.Background(), &q); !errors.As(err, &cfgErr) || cfgErr.Param != "out" {
		t.Fatalf("one hit slot for two queries: err = %v, want an out *ConfigError", err)
	}
}

// TestIndexMaintenance covers the incremental-maintenance corners: Add
// after a query, interleaved AddAll batches, and re-queries — with the
// indexed results checked against the oracle after every mutation.
func TestIndexMaintenance(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const dim, nnz, k = 90, 12, 9
	db, err := newTestDB(dim, 3)
	if err != nil {
		t.Fatal(err)
	}
	query := randSigs(r, 1, dim, nnz)[0].W
	metrics := []Metric{EuclideanMetric(), CosineMetric()}
	check := func(stage string) {
		for _, m := range metrics {
			got, err := db.TopKSparse(query, k, m)
			if err != nil {
				t.Fatalf("%s %s: %v", stage, m.Name, err)
			}
			sameResults(t, stage+" "+m.Name, got, bruteResults(db, query, k, m))
		}
	}
	if err := db.AddAll(randSigs(r, 20, dim, nnz)); err != nil {
		t.Fatal(err)
	}
	check("after first AddAll")
	// Single Add between queries must appear in the next result set.
	probe := query.Dense()
	nearest := SignatureFromDense("planted-nearest", "planted", probe)
	if err := db.Add(nearest); err != nil {
		t.Fatal(err)
	}
	check("after planted Add")
	got, err := db.TopKSparse(query, 1, EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Signature.DocID != "planted-nearest" {
		t.Fatalf("freshly added exact match not retrieved: got %s", got[0].Signature.DocID)
	}
	// Interleave more AddAll batches with queries.
	for round := 0; round < 3; round++ {
		if err := db.AddAll(randSigs(r, 15, dim, nnz)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after interleaved AddAll %d", round))
	}
}

// TestIndexedTypedErrors asserts the single and batch entries fail with
// the same typed errors: *DimensionError before any scoring work,
// ErrEmptyDB on an empty store, and the vecmath validation error for
// duplicate-dimension queries.
func TestIndexedTypedErrors(t *testing.T) {
	db, err := newTestDB(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	var dimErr *DimensionError
	short := vecmath.DenseToSparse(vecmath.Vector{1, 2})
	ok := vecmath.DenseToSparse(vecmath.Vector{1, 0, 0, 2, 0, 0, 0, 3})

	// Empty DB: both entry points, both metrics.
	for _, m := range []Metric{EuclideanMetric(), CosineMetric()} {
		if _, err := db.TopKSparse(ok, 1, m); !errors.Is(err, ErrEmptyDB) {
			t.Fatalf("%s empty-db error = %v, want ErrEmptyDB", m.Name, err)
		}
		if _, err := db.TopKBatch([]*vecmath.Sparse{ok}, 1, m); !errors.Is(err, ErrEmptyDB) {
			t.Fatalf("%s batch empty-db error = %v, want ErrEmptyDB", m.Name, err)
		}
	}

	// Dimension mismatch: typed, and batch errors name the query index.
	if err := db.AddAll(randSigs(rand.New(rand.NewSource(1)), 6, 8, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.TopKSparse(short, 1, EuclideanMetric()); !errors.As(err, &dimErr) {
		t.Fatalf("TopKSparse wrong-dim error = %v, want *DimensionError", err)
	}
	if _, err := db.TopKBatch([]*vecmath.Sparse{ok, short}, 1, EuclideanMetric()); !errors.As(err, &dimErr) {
		t.Fatalf("TopKBatch wrong-dim error = %v, want *DimensionError", err)
	} else if dimErr.What != "query 1" || dimErr.Got != 2 || dimErr.Want != 8 {
		t.Fatalf("TopKBatch DimensionError = %+v", dimErr)
	}
	if _, err := db.TopKBatch([]*vecmath.Sparse{ok, nil}, 1, EuclideanMetric()); err == nil {
		t.Fatal("nil query should fail")
	}
	if _, err := db.TopKBatch([]*vecmath.Sparse{ok}, 0, EuclideanMetric()); err == nil {
		t.Fatal("k=0 should fail")
	}

	// Duplicate dimensions cannot enter the index: the canonical sparse
	// constructor rejects them before any DB call.
	if _, err := vecmath.SparseFromSorted(8, []int32{2, 2}, []float64{1, 1}); err == nil {
		t.Fatal("duplicate-dimension sparse should fail construction")
	}

	// Empty query is valid (it scores everything at dot 0) and matches
	// the oracle.
	empty, err := vecmath.SparseFromSorted(8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Metric{EuclideanMetric(), CosineMetric()} {
		got, err := db.TopKSparse(empty, 3, m)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "empty query "+m.Name, got, bruteResults(db, empty, 3, m))
	}
}

// TestTopKConcurrentReaders hammers a quiescent DB with concurrent
// single and batched queries; under -race this pins the scratch-pool
// guard (each reader checks out its own scratch).
func TestTopKConcurrentReaders(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const dim, n, nnz, k = 200, 300, 25, 10
	db, err := newTestDB(dim, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll(randSigs(r, n, dim, nnz)); err != nil {
		t.Fatal(err)
	}
	queries := make([]*vecmath.Sparse, 16)
	for i := range queries {
		queries[i] = randSigs(r, 1, dim, nnz)[0].W
	}
	want, err := db.TopKBatch(queries, k, EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if w%2 == 0 {
					got, err := db.TopKBatch(queries, k, EuclideanMetric())
					if err != nil {
						t.Error(err)
						return
					}
					for qi := range got {
						if got[qi][0].Score != want[qi][0].Score {
							t.Errorf("concurrent batch diverged on query %d", qi)
							return
						}
					}
				} else {
					q := queries[i%len(queries)]
					got, err := db.TopKSparse(q, k, EuclideanMetric())
					if err != nil {
						t.Error(err)
						return
					}
					if got[0].Score != want[i%len(queries)][0].Score {
						t.Errorf("concurrent single query diverged")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestIndexSurvivesSnapshotRoundTrip checks the persistence story: a
// reloaded DB, and the same store rebuilt and queried in another lane
// count, answer indexed queries bit-identically.
func TestIndexSurvivesSnapshotRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	const dim, n, nnz, k = 120, 90, 14, 8
	db, err := newTestDB(dim, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll(randSigs(r, n, dim, nnz)); err != nil {
		t.Fatal(err)
	}
	query := randSigs(r, 1, dim, nnz)[0].W
	want, err := db.TopKSparse(query, k, EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	restored := rebuild(t, loaded, 5)
	sameStore(t, "rebuilt", restored, db)
	for tag, d := range map[string]*DB{"post-reload": loaded, "post-rebuild": restored} {
		got, err := d.TopKSparse(query, k, EuclideanMetric())
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, tag+" indexed", got, want)
		sameResults(t, tag+" oracle", got, bruteResults(d, query, k, EuclideanMetric()))
	}
}
