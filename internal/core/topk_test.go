package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/vecmath"
)

// randSigs builds n sparse random signatures of the given dimension.
func randSigs(r *rand.Rand, n, dim, nnz int) []Signature {
	out := make([]Signature, n)
	for i := range out {
		v := vecmath.NewVector(dim)
		for j := 0; j < nnz; j++ {
			v[r.Intn(dim)] = r.Float64()
		}
		out[i] = SignatureFromDense(fmt.Sprintf("d%d", i), fmt.Sprintf("l%d", i%3), v)
	}
	return out
}

// sortTopK is the reference implementation: score everything (through
// the same sparse path the DB uses), stable sort, truncate.
func sortTopK(sigs []Signature, query *vecmath.Sparse, k int, metric Metric) []SearchResult {
	results := make([]SearchResult, 0, len(sigs))
	for _, s := range sigs {
		var score float64
		if metric.SparseScore != nil {
			score = metric.SparseScore(query, s.W)
		} else {
			var err error
			score, err = metric.Score(query.Dense(), s.Dense())
			if err != nil {
				panic(err)
			}
		}
		results = append(results, SearchResult{Signature: s, Score: score})
	}
	sort.SliceStable(results, func(i, j int) bool {
		if metric.HigherIsCloser {
			return results[i].Score > results[j].Score
		}
		return results[i].Score < results[j].Score
	})
	if k > len(results) {
		k = len(results)
	}
	return results[:k]
}

// TestTopKShardedMatchesSort checks the heap + shard-merge machinery
// against the stable-sort reference at several shard and worker counts,
// including duplicate signatures so equal scores exercise the
// insertion-order tie-break across shard boundaries.
func TestTopKShardedMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const dim = 120
	sigs := randSigs(r, 300, dim, 25)
	dup := sigs[42]
	dup.DocID = "dup-of-42"
	sigs = append(sigs, dup)
	dup2 := sigs[7]
	dup2.DocID = "dup-of-7"
	sigs = append(sigs, dup2)
	query := randSigs(r, 1, dim, 25)[0].W

	for _, shards := range []int{1, 2, 3, 7} {
		for _, workers := range []int{-1, 0, 2} {
			db, err := NewShardedDB(dim, shards)
			if err != nil {
				t.Fatal(err)
			}
			db.SetWorkers(workers)
			if err := db.AddAll(sigs); err != nil {
				t.Fatal(err)
			}
			for _, metric := range []Metric{EuclideanMetric(), CosineMetric(), MinkowskiMetric(1), MinkowskiMetric(3)} {
				for _, k := range []int{1, 2, 10, 100, len(sigs), len(sigs) + 5} {
					got, err := db.TopKSparse(query, k, metric)
					if err != nil {
						t.Fatal(err)
					}
					want := sortTopK(sigs, query, k, metric)
					if len(got) != len(want) {
						t.Fatalf("shards=%d %s k=%d: len %d vs %d", shards, metric.Name, k, len(got), len(want))
					}
					for i := range got {
						if got[i].Signature.DocID != want[i].Signature.DocID || got[i].Score != want[i].Score {
							t.Fatalf("shards=%d workers=%d %s k=%d: hit %d = (%s, %v), want (%s, %v)",
								shards, workers, metric.Name, k, i, got[i].Signature.DocID, got[i].Score,
								want[i].Signature.DocID, want[i].Score)
						}
					}
				}
			}
		}
	}
}

// TestTopKDenseQueryMatchesSparseQuery checks that the dense-query entry
// point is a pure wrapper over the sparse path.
func TestTopKDenseQueryMatchesSparseQuery(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	const dim = 400
	sigs := randSigs(r, 200, dim, 30)
	db, err := NewShardedDB(dim, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll(sigs); err != nil {
		t.Fatal(err)
	}
	qd := randSigs(r, 1, dim, 30)[0].Dense()
	for _, metric := range []Metric{CosineMetric(), EuclideanMetric(), MinkowskiMetric(2.5)} {
		d, err := db.TopK(qd, 10, metric)
		if err != nil {
			t.Fatal(err)
		}
		s, err := db.TopKSparse(vecmath.DenseToSparse(qd), 10, metric)
		if err != nil {
			t.Fatal(err)
		}
		for i := range d {
			if d[i].Signature.DocID != s[i].Signature.DocID || d[i].Score != s[i].Score {
				t.Fatalf("%s: hit %d differs: (%s, %v) vs (%s, %v)", metric.Name, i,
					d[i].Signature.DocID, d[i].Score, s[i].Signature.DocID, s[i].Score)
			}
		}
	}
}

// TestTopKDenseFallbackMetric drives a metric with no sparse path through
// the dense-materializing fallback scan.
func TestTopKDenseFallbackMetric(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const dim = 60
	sigs := randSigs(r, 50, dim, 10)
	db, err := NewShardedDB(dim, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll(sigs); err != nil {
		t.Fatal(err)
	}
	custom := Metric{
		Name:           "dot",
		Score:          func(x, y vecmath.Vector) (float64, error) { return x.Dot(y) },
		HigherIsCloser: true,
	}
	query := randSigs(r, 1, dim, 10)[0].W
	got, err := db.TopKSparse(query, 5, custom)
	if err != nil {
		t.Fatal(err)
	}
	want := sortTopK(sigs, query, 5, custom)
	for i := range got {
		if got[i].Signature.DocID != want[i].Signature.DocID {
			t.Fatalf("hit %d = %s, want %s", i, got[i].Signature.DocID, want[i].Signature.DocID)
		}
	}
}

// TestDBTypedErrors pins the typed validation errors: dimension
// mismatches surface as *DimensionError before any scan work, and empty
// databases as ErrEmptyDB.
func TestDBTypedErrors(t *testing.T) {
	db, err := NewShardedDB(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var dimErr *DimensionError
	if _, err := db.TopK(vecmath.Vector{1, 2}, 3, EuclideanMetric()); !errors.As(err, &dimErr) {
		t.Fatalf("TopK wrong-dim error = %v, want *DimensionError", err)
	} else if dimErr.Got != 2 || dimErr.Want != 4 {
		t.Fatalf("DimensionError = %+v", dimErr)
	}
	if _, err := db.TopKSparse(vecmath.DenseToSparse(vecmath.Vector{1}), 1, EuclideanMetric()); !errors.As(err, &dimErr) {
		t.Fatalf("TopKSparse wrong-dim error = %v, want *DimensionError", err)
	}
	if err := db.Add(SignatureFromDense("bad", "", vecmath.Vector{1, 2, 3})); !errors.As(err, &dimErr) {
		t.Fatalf("Add wrong-dim error = %v, want *DimensionError", err)
	}
	if err := db.Add(Signature{DocID: "nil"}); err == nil {
		t.Error("Add with nil weights should fail")
	}
	q := vecmath.Vector{1, 2, 3, 4}
	if _, err := db.TopK(q, 1, EuclideanMetric()); !errors.Is(err, ErrEmptyDB) {
		t.Fatalf("empty-db error = %v, want ErrEmptyDB", err)
	}
	if err := db.AddAll(randSigs(rand.New(rand.NewSource(1)), 3, 4, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.TopK(q, 0, EuclideanMetric()); err == nil {
		t.Error("k=0 should fail")
	}
	// AddAll surfaces the offending signature's typed error.
	bad := []Signature{SignatureFromDense("ok", "", q), SignatureFromDense("short", "", vecmath.Vector{1})}
	if err := db.AddAll(bad); !errors.As(err, &dimErr) {
		t.Fatalf("AddAll error = %v, want *DimensionError", err)
	}
}

// BenchmarkDBTopK pins the bounded-heap scan at paper scale on a single
// shard (the PR-1 baseline shape).
func BenchmarkDBTopK(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const dim, nnz, n, k = 3815, 150, 2000, 10
	sigs := randSigs(r, n, dim, nnz)
	query := randSigs(r, 1, dim, nnz)[0].W
	metric := EuclideanMetric()
	b.Run("sort-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sortTopK(sigs, query, k, metric)
		}
	})
	db, _ := NewDB(dim)
	if err := db.AddAll(sigs); err != nil {
		b.Fatal(err)
	}
	b.Run("heap-sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.TopKSparse(query, k, metric); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDBTopKSharded measures the exhaustive sharded scan at paper
// scale: per-shard bounded heaps merged through the global heap, one
// worker per CPU. The index is disabled — this is the scan baseline the
// indexed benchmarks are compared against.
func BenchmarkDBTopKSharded(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const dim, nnz, n, k = 3815, 150, 2000, 10
	sigs := randSigs(r, n, dim, nnz)
	query := randSigs(r, 1, dim, nnz)[0].W
	metric := EuclideanMetric()
	for _, shards := range []int{1, 4} {
		db, err := NewShardedDB(dim, shards)
		if err != nil {
			b.Fatal(err)
		}
		db.SetIndexed(false)
		if err := db.AddAll(sigs); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.TopKSparse(query, k, metric); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDBTopKIndexed measures inverted-index retrieval on the same
// corpus shape as BenchmarkDBTopKSharded: score accumulation touches
// only the posting lists in the query's ~150-dim support instead of
// merge-walking all 2000 stored signatures.
func BenchmarkDBTopKIndexed(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const dim, nnz, n, k = 3815, 150, 2000, 10
	sigs := randSigs(r, n, dim, nnz)
	query := randSigs(r, 1, dim, nnz)[0].W
	for _, shards := range []int{1, 4} {
		db, err := NewShardedDB(dim, shards)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.AddAll(sigs); err != nil {
			b.Fatal(err)
		}
		for _, metric := range []Metric{EuclideanMetric(), CosineMetric()} {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, metric.Name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := db.TopKSparse(query, k, metric); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDBTopKCompressed measures indexed retrieval over sealed
// (block-compressed) segments on the BenchmarkDBTopKIndexed corpus
// shape — the decode-and-gather tax relative to the flat active-segment
// layout, bought with the ~4-5x smaller resident index. Results are
// bit-identical to the flat path.
func BenchmarkDBTopKCompressed(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const dim, nnz, n, k = 3815, 150, 2000, 10
	sigs := randSigs(r, n, dim, nnz)
	query := randSigs(r, 1, dim, nnz)[0].W
	for _, shards := range []int{1, 4} {
		db, err := NewShardedDB(dim, shards)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.AddAll(sigs); err != nil {
			b.Fatal(err)
		}
		flatBytes := db.IndexBytes()
		db.Seal()
		b.Logf("shards=%d: index bytes flat %d -> sealed %d (%.2fx)",
			shards, flatBytes, db.IndexBytes(), float64(flatBytes)/float64(db.IndexBytes()))
		for _, metric := range []Metric{EuclideanMetric(), CosineMetric()} {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, metric.Name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := db.TopKSparse(query, k, metric); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// peakedSigs builds n unit signatures in the shape tf-idf gives kernel
// signatures (bench/gen.go's `peaked` generator, in weights): a class is
// classSize consecutive signatures sharing 50 heavy functions, on top of
// a pool of 200 ubiquitous functions (dims 0..199) each signature
// touches with probability 0.75 at about a thousandth of the weight.
func peakedSigs(r *rand.Rand, dim, n, classSize int) []Signature {
	out := make([]Signature, n)
	for i := range out {
		class := i / classSize
		cr := rand.New(rand.NewSource(1_000_003 * int64(class+1)))
		v := vecmath.NewVector(dim)
		for c := 0; c < 50; {
			if d := 200 + cr.Intn(dim-200); v[d] == 0 {
				v[d] = 0.5 + 0.5*r.Float64()
				c++
			}
		}
		for d := 0; d < 200; d++ {
			if r.Float64() < 0.75 {
				v[d] = 2e-4 + 8e-4*r.Float64()
			}
		}
		out[i] = SignatureFromDense(fmt.Sprintf("s%d", i), fmt.Sprintf("c%d", class), v)
	}
	Normalize(out)
	return out
}

// benchScoreArms times one query three ways over a sealed store: TopK
// as the DB routes it, and every unit forced down each whole-unit arm —
// the posting walk (dots + offer) and the dense scan (gather dots).
func benchScoreArms(b *testing.B, db *DB, q *vecmath.Sparse) {
	const k = 10
	b.Run("topk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.TopKSparse(q, k, CosineMetric()); err != nil {
				b.Fatal(err)
			}
		}
	})
	v := db.pinView()
	defer db.unpinView(v)
	var h topkHeap
	var acc vecmath.Accumulator
	qd := q.Dense()
	arm := func(scan bool) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for si := range v.shards {
					vs := &v.shards[si]
					h.reset(true)
					for _, sg := range vs.segs {
						if scan {
							offerCanonical(&h, k, vs, sg, qd, true, q.Norm2(), nil)
						} else {
							sg.blocks.dots(q, &acc)
							offerCosine(&h, k, vs, sg, &acc, q.Norm2(), nil)
						}
					}
				}
			}
		}
	}
	b.Run("walk", arm(false))
	b.Run("scan", arm(true))
}

// BenchmarkTopKFlat is the source of scanWalkRatio: queries pruning
// cannot help, scored whole by the posting walk and by the dense scan.
// Pool-only queries over 24 000 peaked 200-nnz signatures walk
// 0.75·pool/200 of a unit's non-zeros — 1/8 at pool=33, 1/4 at pool=66,
// and 3/4 at pool=200, what a real kernel signature's ubiquitous
// functions look like; a 12-nnz query over 2000 12-nnz rows (the
// wire_small store) walks 1/160 and must keep the walk. The walk and
// scan arms run on one goroutine; topk fans the shards out.
func BenchmarkTopKFlat(b *testing.B) {
	const dim = 3815
	sealed := func(sigs []Signature) *DB {
		db, err := NewShardedDB(dim, 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.AddAll(sigs); err != nil {
			b.Fatal(err)
		}
		db.Seal()
		return db
	}
	r := rand.New(rand.NewSource(1))
	peaked := sealed(peakedSigs(r, dim, 24000, 2000))
	for _, pool := range []int{12, 25, 33, 40, 50, 66, 100, 200} {
		v := vecmath.NewVector(dim)
		for d := 0; d < pool; d++ {
			v[d] = 2e-4 + 8e-4*r.Float64()
		}
		b.Run(fmt.Sprintf("peaked/pool=%d", pool), func(b *testing.B) { benchScoreArms(b, peaked, vecmath.DenseToSparse(v)) })
	}
	tiny := sealed(randSigs(r, 2000, dim, 12))
	b.Run("tiny/nnz=12", func(b *testing.B) { benchScoreArms(b, tiny, randSigs(r, 1, dim, 12)[0].W) })
}

// TestClassifyBatchInto checks the allocation-free labeling entry
// point: labels match ClassifyBatch exactly, the caller-owned slice is
// reused, and validation errors mirror the batch query path.
func TestClassifyBatchInto(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	const dim, n, nnz, k = 120, 150, 15, 5
	db, err := NewShardedDB(dim, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll(randSigs(r, n, dim, nnz)); err != nil {
		t.Fatal(err)
	}
	queries := make([]*vecmath.Sparse, 12)
	for i := range queries {
		queries[i] = randSigs(r, 1, dim, nnz)[0].W
	}
	for _, workers := range []int{-1, 0, 3} {
		db.SetWorkers(workers)
		want, err := db.ClassifyBatch(queries, k, EuclideanMetric())
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(queries))
		if err := db.ClassifyBatchInto(queries, k, EuclideanMetric(), out); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("workers=%d: Into[%d] = %q, want %q", workers, i, out[i], want[i])
			}
			if single, err := db.ClassifySparse(queries[i], k, EuclideanMetric()); err != nil || single != want[i] {
				t.Fatalf("workers=%d: ClassifySparse[%d] = %q (%v), want %q", workers, i, single, err, want[i])
			}
		}
	}
	if err := db.ClassifyBatchInto(queries, k, EuclideanMetric(), make([]string, 1)); err == nil {
		t.Fatal("mismatched out length should fail")
	}
	var dimErr *DimensionError
	bad := []*vecmath.Sparse{queries[0], vecmath.DenseToSparse(vecmath.Vector{1})}
	if err := db.ClassifyBatchInto(bad, k, EuclideanMetric(), make([]string, 2)); !errors.As(err, &dimErr) {
		t.Fatalf("wrong-dim error = %v, want *DimensionError", err)
	} else if dimErr.What != "query 1" {
		t.Fatalf("DimensionError = %+v", dimErr)
	}
}

// BenchmarkDBClassifyBatch proves the vote-counting satellite: with
// hits and vote counts in pooled scratch and a caller-owned label
// slice, the sequential steady state of the k-NN labeling path runs at
// 0 allocs/op.
func BenchmarkDBClassifyBatch(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const dim, nnz, n, k, batch = 3815, 150, 2000, 10, 64
	sigs := randSigs(r, n, dim, nnz)
	queries := make([]*vecmath.Sparse, batch)
	for i := range queries {
		queries[i] = randSigs(r, 1, dim, nnz)[0].W
	}
	metric := EuclideanMetric()
	db, err := NewShardedDB(dim, 4)
	if err != nil {
		b.Fatal(err)
	}
	if err := db.AddAll(sigs); err != nil {
		b.Fatal(err)
	}
	out := make([]string, len(queries))
	for _, workers := range []int{-1, 0} {
		name := "workers=seq"
		if workers == 0 {
			name = "workers=all"
		}
		db.SetWorkers(workers)
		if err := db.ClassifyBatchInto(queries, k, metric, out); err != nil {
			b.Fatal(err) // warm the scratch pool
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := db.ClassifyBatchInto(queries, k, metric, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	db.SetWorkers(0)
}

// BenchmarkDBTopKBatch measures the batched query path with reused
// result buffers: sequential workers pin the steady-state 0 allocs/op
// contract, parallel workers show the fan-out speedup (allocation there
// is the worker pool's bookkeeping, amortized over the batch).
func BenchmarkDBTopKBatch(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const dim, nnz, n, k, batch = 3815, 150, 2000, 10, 64
	sigs := randSigs(r, n, dim, nnz)
	queries := make([]*vecmath.Sparse, batch)
	for i := range queries {
		queries[i] = randSigs(r, 1, dim, nnz)[0].W
	}
	metric := EuclideanMetric()
	db, err := NewShardedDB(dim, 4)
	if err != nil {
		b.Fatal(err)
	}
	if err := db.AddAll(sigs); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{-1, 0} {
		name := "workers=seq"
		if workers == 0 {
			name = "workers=all"
		}
		db.SetWorkers(workers)
		out := make([][]SearchResult, len(queries))
		if err := db.TopKBatchInto(queries, k, metric, out); err != nil {
			b.Fatal(err) // warm the result capacity and scratch pool
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := db.TopKBatchInto(queries, k, metric, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	db.SetWorkers(0)
}
