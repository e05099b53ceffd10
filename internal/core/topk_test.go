package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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

// TestTopKShardedMatchesSort checks the heap + lane-merge machinery
// against the stable-sort oracle (bruteTopK) at several lane counts, including
// duplicate signatures so equal scores exercise the insertion-order
// tie-break across lane boundaries.
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

	for _, workers := range []int{-1, 0, 1, 2, 3, 7} {
		for _, segSize := range []int{SegmentSize, 40} {
			db, err := newTestDB(dim, workers)
			if err != nil {
				t.Fatal(err)
			}
			db.setSegmentSize(segSize)
			if err := db.AddAll(sigs); err != nil {
				t.Fatal(err)
			}
			for _, metric := range []Metric{EuclideanMetric(), CosineMetric()} {
				for _, k := range []int{1, 2, 10, 100, len(sigs), len(sigs) + 5} {
					got, err := db.TopKSparse(query, k, metric)
					if err != nil {
						t.Fatal(err)
					}
					want := bruteTopK(sigs, query, k, metric)
					if len(got) != len(want) {
						t.Fatalf("workers=%d segsize=%d %s k=%d: len %d vs %d", workers, segSize, metric.Name, k, len(got), len(want))
					}
					for i := range got {
						if got[i].Signature.DocID != want[i].Signature.DocID || got[i].Score != want[i].Score {
							t.Fatalf("workers=%d segsize=%d %s k=%d: hit %d = (%s, %v), want (%s, %v)",
								workers, segSize, metric.Name, k, i, got[i].Signature.DocID, got[i].Score,
								want[i].Signature.DocID, want[i].Score)
						}
					}
				}
			}
		}
	}
}

// queryEntries is every way into the query path — DB.Query with each
// output form and the five shorthands over it — asking one query, so the
// typed-error tests hold all of them to the same contract.
var queryEntries = map[string]func(db *DB, q *vecmath.Sparse, k int, m Metric) error{
	"Query{Hits}": func(db *DB, q *vecmath.Sparse, k int, m Metric) error {
		return db.Query(context.Background(), &Query{Queries: []*vecmath.Sparse{q}, K: k, Metric: m, Hits: make([][]SearchResult, 1)})
	},
	"Query{Labels,Stats}": func(db *DB, q *vecmath.Sparse, k int, m Metric) error {
		return db.Query(context.Background(), &Query{Queries: []*vecmath.Sparse{q}, K: k, Metric: m, Labels: make([]string, 1), Stats: make([]PruneStats, 1)})
	},
	"TopKSparse": func(db *DB, q *vecmath.Sparse, k int, m Metric) error {
		_, err := db.TopKSparse(q, k, m)
		return err
	},
	"TopKSparseStats": func(db *DB, q *vecmath.Sparse, k int, m Metric) error {
		_, _, err := db.TopKSparseStats(q, k, m)
		return err
	},
	"ClassifySparse": func(db *DB, q *vecmath.Sparse, k int, m Metric) error {
		_, err := db.ClassifySparse(q, k, m)
		return err
	},
	"TopKBatch": func(db *DB, q *vecmath.Sparse, k int, m Metric) error {
		_, err := db.TopKBatch([]*vecmath.Sparse{q}, k, m)
		return err
	},
	"ClassifyBatch": func(db *DB, q *vecmath.Sparse, k int, m Metric) error {
		_, err := db.ClassifyBatch([]*vecmath.Sparse{q}, k, m)
		return err
	},
}

// TestDBTypedErrors pins the typed validation errors through every
// query entry: nil queries and k < 1 as *ConfigError, dimension
// mismatches as *DimensionError before any scan work, empty databases
// as ErrEmptyDB, a closed one as the "database" *ConfigError, and a
// metric other than the two built-ins — the zero Metric, a built-in
// rebuilt from its public fields, a built-in with its ordering flipped
// — as the "metric" *ConfigError, on an empty store and a filled one.
func TestDBTypedErrors(t *testing.T) {
	db, err := newTestDB(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var dimErr *DimensionError
	var cfgErr *ConfigError
	q := vecmath.DenseToSparse(vecmath.Vector{1, 2, 3, 4})
	badMetrics := []Metric{{}}
	for _, m := range []Metric{CosineMetric(), EuclideanMetric()} {
		badMetrics = append(badMetrics, Metric{Name: m.Name, Score: m.Score, HigherIsCloser: m.HigherIsCloser})
		m.HigherIsCloser = !m.HigherIsCloser
		badMetrics = append(badMetrics, m)
	}
	rejectsMetrics := func(entry string, ask func(db *DB, q *vecmath.Sparse, k int, m Metric) error) {
		t.Helper()
		for _, m := range badMetrics {
			if err := ask(db, q, 3, m); !errors.As(err, &cfgErr) || cfgErr.Param != "metric" {
				t.Fatalf("%s, %d rows, metric %+v: err = %v, want a metric *ConfigError", entry, db.Len(), m, err)
			}
		}
	}
	for entry, ask := range queryEntries {
		rejectsMetrics(entry, ask)
		if err := ask(db, vecmath.DenseToSparse(vecmath.Vector{1, 2}), 3, EuclideanMetric()); !errors.As(err, &dimErr) {
			t.Fatalf("%s wrong-dim error = %v, want *DimensionError", entry, err)
		} else if dimErr.What != "query 0" || dimErr.Got != 2 || dimErr.Want != 4 {
			t.Fatalf("%s: DimensionError = %+v", entry, dimErr)
		}
		if err := ask(db, nil, 3, EuclideanMetric()); !errors.As(err, &cfgErr) || cfgErr.Param != "query" {
			t.Fatalf("%s nil-query error = %v, want a query *ConfigError", entry, err)
		}
		if err := ask(db, q, 1, EuclideanMetric()); !errors.Is(err, ErrEmptyDB) {
			t.Fatalf("%s empty-db error = %v, want ErrEmptyDB", entry, err)
		}
	}
	if err := db.Add(SignatureFromDense("bad", "", vecmath.Vector{1, 2, 3})); !errors.As(err, &dimErr) {
		t.Fatalf("Add wrong-dim error = %v, want *DimensionError", err)
	}
	if err := db.Add(Signature{DocID: "nil"}); err == nil {
		t.Error("Add with nil weights should fail")
	}
	if err := db.AddAll(randSigs(rand.New(rand.NewSource(1)), 3, 4, 2)); err != nil {
		t.Fatal(err)
	}
	for entry, ask := range queryEntries {
		if err := ask(db, q, 0, EuclideanMetric()); !errors.As(err, &cfgErr) || cfgErr.Param != "k" {
			t.Fatalf("%s k=0 error = %v, want a k *ConfigError", entry, err)
		}
		rejectsMetrics(entry, ask)
	}
	// AddAll surfaces the offending signature's typed error.
	bad := []Signature{{DocID: "ok", W: q}, SignatureFromDense("short", "", vecmath.Vector{1})}
	if err := db.AddAll(bad); !errors.As(err, &dimErr) {
		t.Fatalf("AddAll error = %v, want *DimensionError", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for entry, ask := range queryEntries {
		if err := ask(db, q, 1, EuclideanMetric()); !errors.As(err, &cfgErr) || cfgErr.Param != "database" {
			t.Fatalf("%s closed-db error = %v, want a database *ConfigError", entry, err)
		}
	}
}

// BenchmarkDBTopK pins the bounded-heap scan at paper scale on a default
// store (the first baseline shape).
func BenchmarkDBTopK(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const dim, nnz, n, k = 3815, 150, 2000, 10
	sigs := randSigs(r, n, dim, nnz)
	query := randSigs(r, 1, dim, nnz)[0].W
	metric := EuclideanMetric()
	b.Run("sort-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bruteTopK(sigs, query, k, metric)
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

// BenchmarkDBTopKIndexed measures inverted-index retrieval at paper
// scale, walked in one lane and in four: score accumulation touches
// only the posting lists in the query's ~150-dim support instead of
// merge-walking all 2000 stored signatures (BenchmarkDBTopK's
// sort-reference arm).
func BenchmarkDBTopKIndexed(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	const dim, nnz, n, k = 3815, 150, 2000, 10
	sigs := randSigs(r, n, dim, nnz)
	query := randSigs(r, 1, dim, nnz)[0].W
	for _, workers := range []int{1, 4} {
		db, err := newTestDB(dim, workers)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.AddAll(sigs); err != nil {
			b.Fatal(err)
		}
		for _, metric := range []Metric{EuclideanMetric(), CosineMetric()} {
			b.Run(fmt.Sprintf("workers=%d/%s", workers, metric.Name), func(b *testing.B) {
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
	for _, workers := range []int{1, 4} {
		db, err := newTestDB(dim, workers)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.AddAll(sigs); err != nil {
			b.Fatal(err)
		}
		flatBytes := db.IndexBytes()
		db.Seal()
		b.Logf("workers=%d: index bytes flat %d -> sealed %d (%.2fx)",
			workers, flatBytes, db.IndexBytes(), float64(flatBytes)/float64(db.IndexBytes()))
		for _, metric := range []Metric{EuclideanMetric(), CosineMetric()} {
			b.Run(fmt.Sprintf("workers=%d/%s", workers, metric.Name), func(b *testing.B) {
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

// benchScoreArms times one query three ways over a sealed store whose
// runs are built: TopK as the DB routes it, and every unit forced down
// each whole-unit arm — the posting walk (dots + offer) and the dense
// scan (gather dots).
func benchScoreArms(b *testing.B, db *DB, q *vecmath.Sparse) {
	const k = 10
	b.Run("topk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.TopKSparse(q, k, CosineMetric()); err != nil {
				b.Fatal(err)
			}
		}
	})
	v := db.cur.Load()
	var h topkHeap
	var acc vecmath.Accumulator
	var ps pruneScratch
	qd := q.Dense()
	arm := func(scan bool) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h.reset(true)
				for ui := range v.segs {
					sg := v.unit(ui)
					if scan {
						offerCanonical(&h, k, v, sg, qd, true, q.Norm2(), nil, 0, 1)
					} else {
						ps.beginStamps(sg.start, sg.blocks.n, nil, 0, 1)
						sg.blocks.dots(q, &acc, &ps)
						offerWalk(&h, k, v, sg, &acc, &ps, true, q.Norm2())
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
// wire_small store) walks 1/160 and must keep the walk. The class arm
// is the query pruning is for — kernel_large's, in process — timed
// against the same two whole-unit arms. The walk and scan arms run on
// one goroutine; topk fans the lanes out.
func BenchmarkTopKFlat(b *testing.B) {
	const dim = 3815
	sealed := func(sigs []Signature) *DB {
		db, err := newTestDB(dim, 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.AddAll(sigs); err != nil {
			b.Fatal(err)
		}
		db.Seal()
		db.IndexBytes() // builds the recorded runs, so no arm times the build
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
	// The kernel_large query: a fresh member of one of the 12 classes,
	// which topk takes down the pruned walk.
	class := peakedSigs(r, dim, 6, 1)[5].W
	b.Run("peaked/class", func(b *testing.B) { benchScoreArms(b, peaked, class) })
}

// TestClassifyBatchInto checks the label form of Query: labels match
// ClassifyBatch and ClassifySparse exactly at every worker count, the
// caller-owned slots are reused, and the request-shape errors are typed.
func TestClassifyBatchInto(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	const dim, n, nnz, k = 120, 150, 15, 5
	db, err := newTestDB(dim, 3)
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
	ctx := context.Background()
	q := Query{Queries: queries, K: k, Metric: EuclideanMetric(), Labels: make([]string, len(queries)), Stats: make([]PruneStats, len(queries))}
	for _, workers := range []int{-1, 0, 3} {
		db.SetWorkers(workers)
		want, err := db.ClassifyBatch(queries, k, EuclideanMetric())
		if err != nil {
			t.Fatal(err)
		}
		clear(q.Labels)
		if err := db.Query(ctx, &q); err != nil {
			t.Fatal(err)
		}
		for i, got := range q.Labels {
			if got != want[i] {
				t.Fatalf("workers=%d: Labels[%d] = %q, want %q", workers, i, got, want[i])
			}
			if single, err := db.ClassifySparse(queries[i], k, EuclideanMetric()); err != nil || single != want[i] {
				t.Fatalf("workers=%d: ClassifySparse[%d] = %q (%v), want %q", workers, i, single, err, want[i])
			}
			if q.Stats[i].Segments == 0 {
				t.Fatalf("workers=%d: Stats[%d] not filled: %+v", workers, i, q.Stats[i])
			}
		}
	}
	var cfgErr *ConfigError
	for name, shape := range map[string]Query{
		"one label slot for 12 queries": {Queries: queries, K: k, Metric: q.Metric, Labels: make([]string, 1)},
		"neither Hits nor Labels":       {Queries: queries, K: k, Metric: q.Metric},
		"both Hits and Labels":          {Queries: queries, K: k, Metric: q.Metric, Hits: make([][]SearchResult, 6), Labels: make([]string, 6)},
	} {
		if err := db.Query(ctx, &shape); !errors.As(err, &cfgErr) || cfgErr.Param != "out" {
			t.Fatalf("%s: err = %v, want an out *ConfigError", name, err)
		}
	}
	misStats := Query{Queries: queries, K: k, Metric: q.Metric, Labels: q.Labels, Stats: make([]PruneStats, 1)}
	if err := db.Query(ctx, &misStats); !errors.As(err, &cfgErr) || cfgErr.Param != "stats" {
		t.Fatalf("one stats slot for 12 queries: err = %v, want a stats *ConfigError", err)
	}
	var dimErr *DimensionError
	bad := Query{Queries: []*vecmath.Sparse{queries[0], vecmath.DenseToSparse(vecmath.Vector{1})}, K: k, Metric: q.Metric, Labels: make([]string, 2)}
	if err := db.Query(ctx, &bad); !errors.As(err, &dimErr) {
		t.Fatalf("wrong-dim error = %v, want *DimensionError", err)
	} else if dimErr.What != "query 1" {
		t.Fatalf("DimensionError = %+v", dimErr)
	}
}

// slotCtx is a context that ends once a watched hit slot is written:
// its Err reports context.Canceled from then on.
type slotCtx struct {
	context.Context
	slot *[]SearchResult
}

func (c slotCtx) Err() error {
	if len(*c.slot) > 0 {
		return context.Canceled
	}
	return nil
}

// TestQueryCancelled pins where a request stops once its context ends:
// at the next query boundary, with the context's error, the later slots
// untouched. The context ends as soon as query 0 has answered.
func TestQueryCancelled(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	const dim, nnz = 40, 6
	db, err := newTestDB(dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll(randSigs(r, 20, dim, nnz)); err != nil {
		t.Fatal(err)
	}
	db.SetWorkers(-1)
	untouched := []SearchResult{{Score: -1}}
	qs := randSigs(r, 3, dim, nnz)
	q := Query{Queries: []*vecmath.Sparse{qs[0].W, qs[1].W, qs[2].W}, K: 3, Metric: EuclideanMetric(),
		Hits: [][]SearchResult{nil, untouched, untouched}}
	ctx := slotCtx{Context: context.Background(), slot: &q.Hits[0]}
	if err := db.Query(ctx, &q); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(q.Hits[0]) != 3 {
		t.Fatalf("query 0, already running when the context ended, left %d hits, want 3", len(q.Hits[0]))
	}
	for i := 1; i < 3; i++ {
		if len(q.Hits[i]) != 1 || q.Hits[i][0].Score != -1 {
			t.Fatalf("slot %d was written after the context ended: %+v", i, q.Hits[i])
		}
	}
	// An already-ended context runs nothing, on the parallel branch too.
	db.SetWorkers(2)
	q.Hits[0] = untouched
	if err := db.Query(ctx, &q); !errors.Is(err, context.Canceled) || len(q.Hits[0]) != 1 {
		t.Fatalf("ended context, parallel queries: err = %v, slot 0 = %+v", err, q.Hits[0])
	}
}

// batchFixture is a store of n random signatures queried in four lanes
// and one request's worth of queries against it.
func batchFixture(tb testing.TB, n, dim, nnz, batch int) (*DB, []*vecmath.Sparse) {
	r := rand.New(rand.NewSource(1))
	sigs := randSigs(r, n, dim, nnz)
	queries := make([]*vecmath.Sparse, batch)
	for i := range queries {
		queries[i] = randSigs(r, 1, dim, nnz)[0].W
	}
	db, err := newTestDB(dim, 4)
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.AddAll(sigs); err != nil {
		tb.Fatal(err)
	}
	return db, queries
}

// TestQueryAllocs is the allocation contract as a test instead of a
// benchmark readout: with warm scratch and warm result capacity a
// sequential request allocates nothing, hits or labels, and the
// lone-query shorthand on a sequential store allocates its result slice
// and nothing else.
func TestQueryAllocs(t *testing.T) {
	db, queries := batchFixture(t, 600, 400, 30, 16)
	db.SetWorkers(-1)
	ctx := context.Background()
	for name, q := range map[string]*Query{
		"Hits":   {Queries: queries, K: 10, Metric: EuclideanMetric(), Hits: make([][]SearchResult, len(queries))},
		"Labels": {Queries: queries, K: 10, Metric: EuclideanMetric(), Labels: make([]string, len(queries))},
	} {
		ask := func() {
			if err := db.Query(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		ask() // warm the scratch pool and the result capacity
		if allocs := testing.AllocsPerRun(5, ask); allocs != 0 {
			t.Errorf("Query{%s}, sequential: %v allocs per request, want 0", name, allocs)
		}
	}
	one, err := newTestDB(db.Dim(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := one.AddAll(db.All()); err != nil {
		t.Fatal(err)
	}
	lone := func() {
		if _, err := one.TopKSparse(queries[0], 10, EuclideanMetric()); err != nil {
			t.Fatal(err)
		}
	}
	lone()
	if allocs := testing.AllocsPerRun(20, lone); allocs > 1 {
		t.Errorf("TopKSparse, sequential: %v allocs per query, want <= 1 (the result slice)", allocs)
	}
}

// benchQuery times one warm request at sequential and all-core workers:
// sequential pins the steady-state 0 allocs/op contract, parallel shows
// the fan-out speedup (allocation there is the worker pool's
// bookkeeping, amortized over the request).
func benchQuery(b *testing.B, db *DB, q *Query) {
	ctx := context.Background()
	for _, workers := range []int{-1, 0} {
		name := "workers=seq"
		if workers == 0 {
			name = "workers=all"
		}
		db.SetWorkers(workers)
		if err := db.Query(ctx, q); err != nil {
			b.Fatal(err) // warm the result capacity and scratch pool
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := db.Query(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDBClassifyBatch measures k-NN labeling with hits and vote
// counts in pooled scratch and caller-owned label slots.
func BenchmarkDBClassifyBatch(b *testing.B) {
	db, queries := batchFixture(b, 2000, 3815, 150, 64)
	benchQuery(b, db, &Query{Queries: queries, K: 10, Metric: EuclideanMetric(), Labels: make([]string, len(queries))})
}

// BenchmarkDBTopKBatch measures retrieval into reused hit slots.
func BenchmarkDBTopKBatch(b *testing.B) {
	db, queries := batchFixture(b, 2000, 3815, 150, 64)
	benchQuery(b, db, &Query{Queries: queries, K: 10, Metric: EuclideanMetric(), Hits: make([][]SearchResult, len(queries))})
}

// newTestDB is NewDB with its queries walked in parallel.Workers(workers)
// lanes however few rows it holds — the axis the sweeps run their
// oracles across.
func newTestDB(dim, workers int) (*DB, error) {
	db, err := NewDB(dim)
	if err != nil {
		return nil, err
	}
	db.setLaneFloor(1)
	db.SetWorkers(workers)
	return db, nil
}

// setLaneFloor overrides the fewest rows a query lane is given (0
// restores laneMinRows), so small fixtures walk several lanes. Test-only:
// the floor is not a knob.
func (db *DB) setLaneFloor(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.laneFloor = n
	db.publishLocked()
}
