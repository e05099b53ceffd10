package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/vecmath"
)

// stressN scales iteration counts: the default keeps `go test` quick,
// FMETER_STRESS=1 (the `make stress` entry point) elevates everything.
func stressN(normal, stressed int) int {
	if os.Getenv("FMETER_STRESS") != "" {
		return stressed
	}
	return normal
}

// refResults precomputes, for every store prefix length n in [0, N],
// the serialized-execution answer of each query: TopK hits and the
// classify label a quiescent DB holding exactly sigs[:n] returns, from
// the brute-force oracle (bruteTopK) — the bit-identical-at-any-layout
// guarantee (property-swept elsewhere) makes it a valid reference for
// every lane count, sealing, and loaded-prefix combination the
// concurrent sweep runs.
type refResults struct {
	hits   [][][]SearchResult // [n][qi]
	labels [][]string         // [n][qi]
}

func buildRef(t *testing.T, sigs []Signature, queries []*vecmath.Sparse, k int, metric Metric) *refResults {
	t.Helper()
	ref := &refResults{
		hits:   make([][][]SearchResult, len(sigs)+1),
		labels: make([][]string, len(sigs)+1),
	}
	for n := 0; n <= len(sigs); n++ {
		ref.hits[n] = make([][]SearchResult, len(queries))
		ref.labels[n] = make([]string, len(queries))
		if n == 0 {
			continue
		}
		for qi, q := range queries {
			ref.hits[n][qi] = bruteTopK(sigs[:n], q, k, metric)
			ref.labels[n][qi] = voteLabel(ref.hits[n][qi], map[string]int{})
		}
	}
	return ref
}

// sameHits reports bit-identity: same hit sequence, same DocIDs, same
// score bits.
func sameHits(a, b []SearchResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Signature.DocID != b[i].Signature.DocID ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestConcurrentInterleavingSweep is the serialized-equivalence
// property sweep: goroutines interleave Add/AddAll/Seal/SaveDir/
// config flips with TopK/TopKBatch/Classify*/Stats queries
// under every layout axis (lanes × segment size × run length ×
// fresh/loaded prefix), and every query result must be
// bit-identical to a serialized execution against the store prefix its
// view froze. Run lengths are far below the segment sizes (and
// one combo never rolls a segment by size), so readers hold views
// across run builds as well as seals. Run under -race this is the
// epoch-view safety proof: no torn reads, no result a quiescent DB
// could not produce.
func TestConcurrentInterleavingSweep(t *testing.T) {
	const dim, nnz, k = 48, 10, 7
	nSigs := stressN(300, 1200)
	readerIters := stressN(400, 4000)
	r := rand.New(rand.NewSource(11))
	sigs := randSigs(r, nSigs, dim, nnz)
	queryRows := randSigs(r, 4, dim, nnz)
	queries := make([]*vecmath.Sparse, len(queryRows))
	for i := range queryRows {
		queries[i] = queryRows[i].W
	}

	// The leading count of a case name is its worker count, the lanes a
	// query walks (names kept from when the axis was a shard count, so
	// the case ids stay stable); the early prefixes have fewer walk units
	// than lanes. The "mapped" cases start from a loaded prefix (named
	// when a loaded store's postings were memory-mapped). The "tiered"
	// names are kept from when those cases merged segments after every
	// seal; a store has one layout now, so they differ from the others
	// in segment size and run length only.
	combos := []struct {
		name    string
		workers int
		segSize int
		runLen  int
		loaded  bool
		metric  Metric
	}{
		{"1shard-seq-cosine", 1, 64, 8, false, CosineMetric()},
		{"3shard-par-tiered-cosine", 3, 32, 5, false, CosineMetric()},
		{"2shard-par-euclidean", 2, 48, 7, false, EuclideanMetric()},
		{"2shard-par-longruns-euclidean", 2, SegmentSize, 6, false, EuclideanMetric()},
		{"2shard-mapped-euclidean", 2, 48, 16, true, EuclideanMetric()},
		{"3shard-mapped-tiered-cosine", 3, 32, 3, true, CosineMetric()},
	}
	for _, cb := range combos {
		cb := cb
		t.Run(cb.name, func(t *testing.T) {
			ref := buildRef(t, sigs, queries, k, cb.metric)

			var db *DB
			dir := t.TempDir()
			start := 0
			if cb.loaded {
				// Start from a sealed prefix saved and loaded back and
				// stream the rest: the writer mutates a loaded store
				// (appending to its reloaded tail, re-saving into its
				// directory) under the readers.
				seed, err := NewDB(dim)
				if err != nil {
					t.Fatal(err)
				}
				seed.setSegmentSize(cb.segSize)
				start = nSigs / 2
				if err := seed.AddAll(sigs[:start]); err != nil {
					t.Fatal(err)
				}
				seed.Seal()
				if err := seed.SaveDir(dir); err != nil {
					t.Fatal(err)
				}
				if err := seed.Close(); err != nil {
					t.Fatal(err)
				}
				if db, err = loadDir(dir, cb.segSize); err != nil {
					t.Fatal(err)
				}
			} else {
				var err error
				if db, err = NewDB(dim); err != nil {
					t.Fatal(err)
				}
				db.setSegmentSize(cb.segSize)
			}
			defer db.Close()
			db.SetWorkers(cb.workers)
			db.setRunLen(cb.runLen)
			db.setPruneFloor(1)

			done := make(chan struct{})
			var wg sync.WaitGroup

			// Writer: stream the remaining signatures with seals,
			// incremental saves, and query-config flips
			// interleaved — every mutation publishes a fresh view the
			// readers race to load.
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				for i := start; i < nSigs; {
					switch {
					case i%41 == 0 && i+5 <= nSigs:
						if err := db.AddAll(sigs[i : i+5]); err != nil {
							t.Errorf("AddAll at %d: %v", i, err)
							return
						}
						i += 5
					default:
						if err := db.Add(sigs[i]); err != nil {
							t.Errorf("Add at %d: %v", i, err)
							return
						}
						i++
					}
					switch {
					case i%37 == 0:
						db.Seal()
					case i%61 == 0:
						if err := db.SaveDir(dir); err != nil {
							t.Errorf("SaveDir at %d: %v", i, err)
							return
						}
					case i%23 == 0:
						// A query-config publish: the store is below the
						// floor (plain walk), then above it.
						if i%46 == 0 {
							db.setPruneFloor(1)
						} else {
							db.setPruneFloor(math.MaxInt)
						}
					}
				}
			}()

			running := func() bool {
				select {
				case <-done:
					return false
				default:
					return true
				}
			}

			// Reader A: exact serialized-equivalence. Load a view, read
			// the prefix length it froze, and demand the bit-identical
			// reference answer for that exact prefix.
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rr := rand.New(rand.NewSource(seed))
					for it := 0; it < readerIters && running(); it++ {
						qi := rr.Intn(len(queries))
						v := db.cur.Load()
						n := len(v.sigs)
						sc := db.scratch.Get()
						got, err := db.topk(v, sc, queries[qi], k, cb.metric, v.cfg.workers, nil)
						db.scratch.Put(sc)
						if n == 0 {
							if !errors.Is(err, ErrEmptyDB) {
								t.Errorf("empty view: err=%v, want ErrEmptyDB", err)
								return
							}
							continue
						}
						if err != nil {
							t.Errorf("topk at prefix %d: %v", n, err)
							return
						}
						if !sameHits(got, ref.hits[n][qi]) {
							t.Errorf("query %d at view prefix %d diverges from serialized execution", qi, n)
							return
						}
					}
				}(int64(100 + g))
			}

			// Reader B: public batch path. The batch loads one view, so
			// all results must agree with the reference at one single
			// prefix inside the [before, after] Len window.
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([][]SearchResult, len(queries))
				for it := 0; it < readerIters && running(); it++ {
					nLo := db.Len()
					err := db.Query(context.Background(), &Query{Queries: queries, K: k, Metric: cb.metric, Hits: out})
					nHi := db.Len()
					if nLo == 0 && err != nil {
						continue // raced the very first Add; empty view is legal
					}
					if err != nil {
						t.Errorf("Query in [%d, %d]: %v", nLo, nHi, err)
						return
					}
					found := false
					for n := nLo; n <= nHi && !found; n++ {
						ok := n > 0
						for qi := range queries {
							if ok && !sameHits(out[qi], ref.hits[n][qi]) {
								ok = false
							}
						}
						found = ok
					}
					if !found {
						t.Errorf("batch result matches no serialized prefix in [%d, %d]", nLo, nHi)
						return
					}
				}
			}()

			// Reader C: classify + stats paths; labels must match the
			// reference at some prefix in the Len window.
			wg.Add(1)
			go func() {
				defer wg.Done()
				rr := rand.New(rand.NewSource(7))
				for it := 0; it < readerIters && running(); it++ {
					qi := rr.Intn(len(queries))
					nLo := db.Len()
					var label string
					var err error
					if it%2 == 0 {
						label, err = db.ClassifySparse(queries[qi], k, cb.metric)
					} else {
						labels, stats := make([]string, 1), make([]PruneStats, 1)
						err = db.Query(context.Background(), &Query{Queries: queries[qi : qi+1], K: k, Metric: cb.metric, Labels: labels, Stats: stats})
						label = labels[0]
					}
					nHi := db.Len()
					if nLo == 0 && err != nil {
						continue
					}
					if err != nil {
						t.Errorf("classify in [%d, %d]: %v", nLo, nHi, err)
						return
					}
					found := false
					for n := nLo; n <= nHi; n++ {
						if n > 0 && label == ref.labels[n][qi] {
							found = true
							break
						}
					}
					if !found {
						t.Errorf("label %q matches no serialized prefix in [%d, %d]", label, nLo, nHi)
						return
					}
				}
			}()

			wg.Wait()
			if t.Failed() {
				return
			}
			// Quiescent end state: the final view must be the full store,
			// in the one layout.
			if got := db.Len(); got != nSigs {
				t.Fatalf("final Len %d, want %d", got, nSigs)
			}
			checkLayout(t, cb.name, db)
			for qi, q := range queries {
				got, err := db.TopKSparse(q, k, cb.metric)
				if err != nil {
					t.Fatal(err)
				}
				if !sameHits(got, ref.hits[nSigs][qi]) {
					t.Fatalf("final query %d diverges from serialized execution", qi)
				}
			}
		})
	}
}

// TestConcurrentQueryBuiltRuns races the queries that build pending
// posting runs against the writers that record and drop them: an AddAll
// stream publishing new pending runs under readers, a Seal that drops
// the runs a held view's query is building, and a Close while the first
// queries on a view build its runs. Every answer must equal the
// serialized oracle at the prefix its view froze, and no run may be
// encoded twice: the encodes seen are exactly the runs the queries
// built. Run under -race (make stress) this is the proof
// behind the runs' once and atomic publication.
func TestConcurrentQueryBuiltRuns(t *testing.T) {
	const dim, nnz, k, runLen = 48, 10, 7, 6
	nSigs := stressN(240, 960)
	r := rand.New(rand.NewSource(37))
	sigs := randSigs(r, nSigs, dim, nnz)
	queryRows := randSigs(r, 4, dim, nnz)
	queries := make([]*vecmath.Sparse, len(queryRows))
	for i := range queryRows {
		queries[i] = queryRows[i].W
	}
	metric := CosineMetric()
	ref := buildRef(t, sigs, queries, k, metric)

	db, err := newTestDB(dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	db.setRunLen(runLen)
	db.setPruneFloor(1)
	// made collects every run a writer call recorded.
	made := map[*postingRun]bool{}
	record := func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		if sg := db.activeSegment(); sg != nil {
			for _, r := range sg.runs {
				made[r] = true
			}
		}
	}
	// ask answers query qi against view v and checks the oracle.
	ask := func(v *dbView, qi int) error {
		sc := db.scratch.Get()
		got, err := db.topk(v, sc, queries[qi], k, metric, v.cfg.workers, nil)
		db.scratch.Put(sc)
		if err != nil {
			return err
		}
		if !sameHits(got, ref.hits[len(v.sigs)][qi]) {
			return fmt.Errorf("query %d at view prefix %d diverges from serialized execution", qi, len(v.sigs))
		}
		return nil
	}
	before := encodeCount.Load()

	// The stream: AddAll batches up to two runs long publish new pending
	// runs under three readers; every fourth batch ends in a Seal that
	// drops the runs a query on the view before it is building.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rr := rand.New(rand.NewSource(5))
		for i, b := 0, 0; i < 3*nSigs/4; b++ {
			hi := min(i+1+rr.Intn(2*runLen+3), 3*nSigs/4)
			if err := db.AddAll(sigs[i:hi]); err != nil {
				t.Errorf("AddAll [%d, %d): %v", i, hi, err)
				return
			}
			i = hi
			record()
			if b%4 != 3 {
				continue
			}
			v := db.cur.Load()
			built := make(chan error, 1)
			go func() { built <- ask(v, b%len(queries)) }()
			db.Seal()
			record()
			if err := <-built; err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-done:
					return
				default:
				}
				v := db.cur.Load()
				if len(v.sigs) == 0 {
					runtime.Gosched()
					continue
				}
				if err := ask(v, (g+it)%len(queries)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Close under the first queries of a view whose runs are all pending:
	// they finish on the view they loaded, later calls fail typed.
	if err := db.AddAll(sigs[3*nSigs/4:]); err != nil {
		t.Fatal(err)
	}
	record()
	v := db.cur.Load()
	if len(v.runs) == 0 {
		t.Fatal("fixture left no pending run to build under Close")
	}
	errs := make([]error, 2*len(queries))
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = ask(v, g%len(queries))
		}(g)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("query %d on the view loaded before Close: %v", g, err)
		}
	}
	var ce *ConfigError
	if _, err := db.TopKSparse(queries[0], k, metric); !errors.As(err, &ce) {
		t.Fatalf("TopK after Close: %v, want *ConfigError", err)
	}

	built := 0
	for r := range made {
		if r.blocks.Load() != nil {
			built++
		}
	}
	for _, r := range v.runs {
		if r.blocks.Load() == nil {
			t.Fatal("a pending run of a queried view was left unbuilt")
		}
	}
	if got := encodeCount.Load() - before; got != int64(built) {
		t.Fatalf("%d encodes for %d built runs (of %d recorded): some run was encoded twice", got, built, len(made))
	}
}

// TestConcurrentWriters proves mutator-side serialization: concurrent
// Add streams and seals from many goroutines interleave without losing
// a signature, the store keeps the one layout, and the final store
// answers exactly like a serial build over the same multiset.
func TestConcurrentWriters(t *testing.T) {
	const dim, nnz, k, writers = 32, 8, 5, 4
	perWriter := stressN(150, 1000)
	r := rand.New(rand.NewSource(3))
	all := randSigs(r, writers*perWriter, dim, nnz)
	q := randSigs(r, 1, dim, nnz)[0].W

	db, err := NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetWorkers(3)
	db.setSegmentSize(64)
	db.setRunLen(8)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := db.Add(all[w*perWriter+i]); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if i%50 == 0 {
					db.Seal()
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := db.Len(); got != len(all) {
		t.Fatalf("Len %d after concurrent writers, want %d", got, len(all))
	}
	checkLayout(t, "concurrent writers", db)
	// The interleaving permutes insertion order, so scores (not order)
	// must match a reference holding the same multiset: compare the hit
	// score sets against a serial DB built in gid order of this one.
	serial, err := NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.AddAll(db.All()); err != nil {
		t.Fatal(err)
	}
	got, err := db.TopKSparse(q, k, CosineMetric())
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.TopKSparse(q, k, CosineMetric())
	if err != nil {
		t.Fatal(err)
	}
	if !sameHits(got, want) {
		t.Fatal("concurrently built store diverges from serial rebuild in its own insertion order")
	}
}

// TestCloseUnderLoad closes a loaded DB while queries, an Add stream
// and seals are in flight: in-flight calls either complete
// normally (a query with k hits, on the view it loaded) or fail with the
// typed *ConfigError, concurrent and repeated Close calls return nil,
// and every call arriving after Close fails typed. Run under -race.
func TestCloseUnderLoad(t *testing.T) {
	const dim, nnz, k = 32, 8, 5
	nSeed := stressN(400, 1500)
	r := rand.New(rand.NewSource(17))
	sigs := randSigs(r, nSeed+nSeed, dim, nnz)
	q := randSigs(r, 1, dim, nnz)[0].W

	dir := t.TempDir()
	seed, err := NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	seed.setSegmentSize(64)
	if err := seed.AddAll(sigs[:nSeed]); err != nil {
		t.Fatal(err)
	}
	seed.Seal()
	if err := seed.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	db, err := loadDir(dir, 64)
	if err != nil {
		t.Fatal(err)
	}

	var completed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Query load.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				hits, err := db.TopKSparse(q, k, CosineMetric())
				if err != nil {
					var ce *ConfigError
					if !errors.As(err, &ce) {
						t.Errorf("in-flight query failed untyped: %v", err)
					}
					return // closed: every later call fails too
				}
				if len(hits) != k {
					t.Errorf("in-flight query returned %d hits, want %d", len(hits), k)
					return
				}
				completed.Add(1)
			}
		}()
	}
	// Add stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := nSeed; i < len(sigs); i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Add(sigs[i]); err != nil {
				var ce *ConfigError
				if !errors.As(err, &ce) {
					t.Errorf("in-flight Add failed untyped: %v", err)
				}
				return
			}
			if i%100 == 0 {
				db.Seal() // index the reloaded tail under load
			}
		}
	}()

	// Let the load establish, then close under it — concurrently from
	// two goroutines, since Close must also be safe against itself.
	for completed.Load() < 10 {
		runtime.Gosched()
	}
	var errs [2]error
	var cwg sync.WaitGroup
	for c := 0; c < 2; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			errs[c] = db.Close()
		}(c)
	}
	cwg.Wait()
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	for c, err := range errs {
		if err != nil {
			t.Fatalf("Close[%d]: %v", c, err)
		}
	}
	// Late arrivals: every operation on the closed DB fails typed.
	var ce *ConfigError
	if _, err := db.TopKSparse(q, k, CosineMetric()); !errors.As(err, &ce) {
		t.Fatalf("TopK after Close: %v, want *ConfigError", err)
	}
	if err := db.Add(sigs[0]); !errors.As(err, &ce) {
		t.Fatalf("Add after Close: %v, want *ConfigError", err)
	}
	if err := db.SaveDir(dir); !errors.As(err, &ce) {
		t.Fatalf("SaveDir after Close: %v, want *ConfigError", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The previous snapshot must still load: Close never touches disk.
	if _, err := LoadDir(dir); err != nil {
		t.Fatalf("reload after Close: %v", err)
	}
}
