package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/vecmath"
)

// setRunLen overrides the active-segment run length (0 restores
// activeRunLen) so small fixtures straddle run boundaries. Only future
// runs are affected. Test-only: the run length is not a knob.
func (db *DB) setRunLen(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.runLen = n
}

// setSegmentSize overrides the segment length (n < 1 restores
// SegmentSize) so small fixtures hold many segments. The layout is a
// function of the row count, so only an empty store takes it; loadDir
// gives a loaded one its size. Test-only: the segment size is not a
// knob.
func (db *DB) setSegmentSize(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.sigs) > 0 {
		panic("setSegmentSize on a non-empty store")
	}
	db.segSize = n
}

// activeShape returns the active segment's run count and
// unindexed-tail length.
func activeShape(db *DB) (runs, tail int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if sg := db.activeSegment(); sg != nil {
		return len(sg.runs), sg.end - sg.runEnd
	}
	return 0, 0
}

// TestActiveRunsMatchScan is the equivalence property the run-indexed
// ingest tail rests on. Store sizes straddle the run boundary (run-1,
// run, run+1, several runs plus a remainder), built row by row, in one
// AddAll, with a Seal landing mid-run, and across a save/reopen followed
// by appends, queried in one lane and in three; at each, TopK and
// Classify must be bit-identical to the brute-force oracle (bruteTopK),
// with the pruned
// walk forced on (floor 1) and at its default floor — and the active
// segment must hold exactly the runs and tail the row count implies.
func TestActiveRunsMatchScan(t *testing.T) {
	const dim, nnz = 70, 9
	metrics := []Metric{EuclideanMetric(), CosineMetric()}
	for _, run := range []int{4, 16} {
		for _, workers := range []int{1, 3} {
			for _, n := range []int{run - 1, run, run + 1, 3*run + run/2} {
				r := rand.New(rand.NewSource(int64(1000*run + 10*workers + n)))
				sigs := randSigs(r, n, dim, nnz)
				dup := sigs[r.Intn(n)] // an equal score across a run boundary
				dup.DocID = "dup"
				sigs[n-1] = dup
				queries := make([]*vecmath.Sparse, 5)
				for i := range queries {
					queries[i] = randSigs(r, 1, dim, nnz)[0].W
				}
				k := 1 + r.Intn(n)

				for _, mode := range []string{"add", "addall", "seal-mid-run", "reopen-append"} {
					for _, floor := range []int{1, 0} {
						db, err := newTestDB(dim, workers)
						if err != nil {
							t.Fatal(err)
						}
						db.setRunLen(run)
						db.setPruneFloor(floor)
						// sealedAt is how many rows the one run a Seal or a
						// reload left over the prefix covers.
						sealedAt := 0
						switch mode {
						case "add":
							for _, s := range sigs {
								if err := db.Add(s); err != nil {
									t.Fatal(err)
								}
							}
						case "addall":
							if err := db.AddAll(sigs); err != nil {
								t.Fatal(err)
							}
						case "seal-mid-run":
							// Seal with half a run unindexed.
							sealedAt = min(run+run/2, n)
							if err := db.AddAll(sigs[:sealedAt]); err != nil {
								t.Fatal(err)
							}
							db.Seal()
							if err := db.AddAll(sigs[sealedAt:]); err != nil {
								t.Fatal(err)
							}
						case "reopen-append":
							// Save with runs and a tail in place; a reload
							// indexes the tail segment as one run, and appends
							// start new runs after it.
							sealedAt = n / 2
							if err := db.AddAll(sigs[:sealedAt]); err != nil {
								t.Fatal(err)
							}
							dir := filepath.Join(t.TempDir(), "db")
							if err := db.SaveDir(dir); err != nil {
								t.Fatal(err)
							}
							if db, err = LoadDir(dir); err != nil {
								t.Fatal(err)
							}
							db.SetWorkers(workers)
							db.setRunLen(run)
							db.setPruneFloor(floor)
							for _, s := range sigs[sealedAt:] {
								if err := db.Add(s); err != nil {
									t.Fatal(err)
								}
							}
						}
						tag := fmt.Sprintf("run=%d workers=%d n=%d mode=%s floor=%d k=%d", run, workers, n, mode, floor, k)

						runs, tail := activeShape(db)
						active := n - sealedAt
						wantRuns := active / run
						if sealedAt > 0 {
							wantRuns++
						}
						if runs != wantRuns || tail != active%run {
							t.Fatalf("%s: active segment holds %d runs + %d unindexed rows, want %d + %d",
								tag, runs, tail, wantRuns, active%run)
						}
						if got, want := db.ActiveUnindexedRows(), active%run; got != want {
							t.Fatalf("%s: ActiveUnindexedRows %d, want %d", tag, got, want)
						}

						for _, m := range metrics {
							for qi, q := range queries {
								want := bruteTopK(sigs, q, k, m)
								got, err := db.TopKSparse(q, k, m)
								if err != nil {
									t.Fatal(err)
								}
								sameResults(t, fmt.Sprintf("%s %s q=%d", tag, m.Name, qi), got, want)
							}
							gotLabels, err := db.ClassifyBatch(queries, min(k, 5), m)
							if err != nil {
								t.Fatal(err)
							}
							for qi, q := range queries {
								if want := voteLabel(bruteTopK(sigs, q, min(k, 5), m), map[string]int{}); gotLabels[qi] != want {
									t.Fatalf("%s %s: Classify[%d] = %q, want %q", tag, m.Name, qi, gotLabels[qi], want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestActiveRunsSealBytes pins that runs never reach the disk: a store
// whose segments were sealed out of runs (rows added one by one, runs of
// 8, segments of 64, an explicit Seal mid-run at the end) must write a
// snapshot directory byte-identical to the same rows sealed in one step
// with no run ever built.
func TestActiveRunsSealBytes(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	const dim, nnz, n = 120, 14, 300
	sigs := randSigs(r, n, dim, nnz)
	save := func(runLen int, oneByOne bool) map[string][]byte {
		db, err := newTestDB(dim, 2)
		if err != nil {
			t.Fatal(err)
		}
		db.setSegmentSize(64)
		db.setRunLen(runLen)
		if oneByOne {
			for i, s := range sigs {
				if err := db.Add(s); err != nil {
					t.Fatal(err)
				}
				if i == n/2 {
					if runs, _ := activeShape(db); runs == 0 {
						t.Fatal("fixture built no run before the midpoint")
					}
				}
			}
		} else if err := db.AddAll(sigs); err != nil {
			t.Fatal(err)
		}
		db.Seal()
		dir := filepath.Join(t.TempDir(), "db")
		if err := db.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		return dirState(t, dir)
	}
	through, direct := save(8, true), save(n+1, false)
	sameDir(t, "sealed through runs vs in one step", through, direct)
}

// sameDir asserts two snapshot directories hold the same files, byte for
// byte.
func sameDir(t *testing.T, tag string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d files, want %d", tag, len(got), len(want))
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Fatalf("%s: %s differs", tag, name)
		}
	}
}

// storeShape is what a writer leaves behind that queries and saves do
// not show: the segment structure and the posting footprint, runs
// included.
type storeShape struct {
	segments, sealed, unindexed int
	indexBytes, postings        int64
}

// indexPostings returns the posting-entry count of every run a query
// of the published view walks, pending runs built first: one entry per
// stored non-zero weight of every indexed row — everything but the
// active segment's unindexed tail (see ActiveUnindexedRows).
func (db *DB) indexPostings() int64 { return db.sumPostings((*blockPostings).postingCount) }

func shapeOf(db *DB) storeShape {
	return storeShape{db.Segments(), db.SealedSegments(), db.ActiveUnindexedRows(), db.IndexBytes(), db.indexPostings()}
}

// TestAddAllMatchesOneByOne is the exactness property of batched
// ingest: a store fed in AddAll batches — which record the runs and
// seals of many rows in one call, and build none of them — must match a
// store fed one Add at a time, with Seal called at the same rows. At
// every schedule point the segment counts, posting footprint and
// unindexed rows agree; at the end both write byte-identical snapshot
// directories and answer TopK and Classify bit-identically; and every
// call published exactly once. The sweep crosses lane counts, run
// lengths, batch sizes from one row to the whole set, and core counts;
// FMETER_STRESS repeats it on more data.
func TestAddAllMatchesOneByOne(t *testing.T) {
	const dim, nnz, segSize = 60, 8, 64
	procs0 := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs0)
	metrics := []Metric{EuclideanMetric(), CosineMetric()}
	save := func(db *DB) map[string][]byte {
		dir := filepath.Join(t.TempDir(), "db")
		if err := db.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		return dirState(t, dir)
	}
	for trial := 0; trial < 4*stressN(1, 3); trial++ {
		workers := 1 + trial%4
		r := rand.New(rand.NewSource(int64(26 + trial)))
		// Two full segments and a run of 8 plus five rows, sealed
		// mid-run; four more rows, sealed; two more, sealed; then four
		// and a half segments more — several segments filled in one call.
		sealAt := 2*segSize + 8 + 5
		points := []int{sealAt, sealAt + 4, sealAt + 6}
		n := points[2] + 4*segSize + segSize/2
		sigs := randSigs(r, n, dim, nnz)
		queries := make([]*vecmath.Sparse, 4)
		for i := range queries {
			queries[i] = randSigs(r, 1, dim, nnz)[0].W
		}
		for _, run := range []int{8, 0} {
			oneRun := run
			if run == 0 {
				oneRun = activeRunLen
			}
			// feed builds a store one Add at a time, or in AddAll
			// batches of at most batch rows cut at the schedule points,
			// and records its shape after each scheduled call.
			feed := func(batch int, add bool) (*DB, []storeShape) {
				tag := fmt.Sprintf("workers=%d run=%d batch=%d add=%v", workers, run, batch, add)
				db, err := newTestDB(dim, workers)
				if err != nil {
					t.Fatal(err)
				}
				db.setSegmentSize(segSize)
				db.setRunLen(run)
				start, calls := db.Publishes(), uint64(0)
				var shapes []storeShape
				for lo, next := 0, 0; lo < n; calls++ {
					hi := min(lo+batch, n)
					if next < len(points) {
						hi = min(hi, points[next])
					}
					if add {
						err = db.Add(sigs[lo])
					} else {
						err = db.AddAll(sigs[lo:hi])
					}
					if err != nil {
						t.Fatal(err)
					}
					if lo = hi; next < len(points) && lo == points[next] {
						db.Seal()
						next++
						calls++
						shapes = append(shapes, shapeOf(db))
					}
				}
				shapes = append(shapes, shapeOf(db))
				checkLayout(t, tag, db)
				if got := db.Publishes() - start; got != calls {
					t.Fatalf("%s: %d publishes for %d calls", tag, got, calls)
				}
				return db, shapes
			}

			ref, refShapes := feed(1, true)
			refDir := save(ref)
			for _, batch := range []int{1, 7, oneRun, segSize + 3, n} {
				for _, procs := range []int{1, 2, 8} {
					tag := fmt.Sprintf("workers=%d run=%d batch=%d procs=%d", workers, run, batch, procs)
					runtime.GOMAXPROCS(procs)
					db, shapes := feed(batch, false)
					runtime.GOMAXPROCS(procs0)
					if !slices.Equal(shapes, refShapes) {
						t.Fatalf("%s: shapes at the schedule points %+v, one by one %+v", tag, shapes, refShapes)
					}
					sameDir(t, tag, save(db), refDir)
					for _, m := range metrics {
						for qi, q := range queries {
							want, err := ref.TopKSparse(q, 10, m)
							if err != nil {
								t.Fatal(err)
							}
							got, err := db.TopKSparse(q, 10, m)
							if err != nil {
								t.Fatal(err)
							}
							sameResults(t, fmt.Sprintf("%s %s q=%d", tag, m.Name, qi), got, want)
							wantLabel, err := ref.ClassifySparse(q, 5, m)
							if err != nil {
								t.Fatal(err)
							}
							if got, err := db.ClassifySparse(q, 5, m); err != nil || got != wantLabel {
								t.Fatalf("%s %s q=%d: Classify = %q, %v; want %q", tag, m.Name, qi, got, err, wantLabel)
							}
						}
					}
				}
			}
		}
	}
}

// TestOnlyQueriesEncode counts posting encodes (encodeCount): no writer
// encodes — Add one row at a time, AddAll, Seal and LoadDir only record
// row ranges — and the first queries on a view build each of its
// pending runs exactly once between them, however many arrive together;
// a later query builds none, and neither does IndexBytes, which builds
// what is still pending without taking db.mu.
func TestOnlyQueriesEncode(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	const dim, nnz, k = 60, 8, 5
	queries := randSigs(r, 8, dim, nnz)
	// encodes runs f and returns how many encodes it made.
	encodes := func(f func()) int64 {
		before := encodeCount.Load()
		f()
		return encodeCount.Load() - before
	}
	// firstQueries races the eight queries on db's fresh view, checks
	// that a later pass, IndexBytes included, builds nothing, and
	// returns how many encodes the first pass made.
	firstQueries := func(tag string, db *DB) int64 {
		hits := make([][]SearchResult, len(queries))
		var wg sync.WaitGroup
		n := encodes(func() {
			for qi := range queries {
				wg.Add(1)
				go func(qi int) {
					defer wg.Done()
					var err error
					if hits[qi], err = db.TopKSparse(queries[qi].W, k, CosineMetric()); err != nil {
						t.Error(err)
					}
				}(qi)
			}
			wg.Wait()
		})
		later := encodes(func() {
			for qi, q := range queries {
				got, err := db.TopKSparse(q.W, k, CosineMetric())
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, fmt.Sprintf("%s q=%d", tag, qi), hits[qi], got)
			}
			db.IndexBytes()
		})
		if later != 0 {
			t.Errorf("%s: later queries and IndexBytes encoded %d times, want 0", tag, later)
		}
		return n
	}

	// 3.5 segments: three whole-segment runs, and four runs over the
	// half segment.
	sigs := randSigs(r, 3*64+32, dim, nnz)
	var dir string
	for _, oneByOne := range []bool{false, true} {
		tag := fmt.Sprintf("oneByOne=%v", oneByOne)
		db, err := newTestDB(dim, 2)
		if err != nil {
			t.Fatal(err)
		}
		db.setSegmentSize(64)
		db.setRunLen(8)
		if got := encodes(func() {
			if oneByOne {
				for _, s := range sigs {
					if err := db.Add(s); err != nil {
						t.Fatal(err)
					}
				}
			} else if err := db.AddAll(sigs); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: the writer encoded %d times, want 0", tag, got)
		}
		if runs, tail := activeShape(db); runs != 4 || tail != 0 {
			t.Errorf("%s: %d active runs, tail %d; want 4 runs and no tail", tag, runs, tail)
		}
		if got := firstQueries(tag, db); got != 7 {
			t.Errorf("%s: 8 concurrent first queries encoded %d times, want each of the 7 runs once", tag, got)
		}
		if !oneByOne {
			dir = filepath.Join(t.TempDir(), "db")
			if err := db.SaveDir(dir); err != nil {
				t.Fatal(err)
			}
		}
	}

	// LoadDir records the three full segments and the active half one
	// as four runs.
	var db *DB
	if got := encodes(func() {
		var err error
		if db, err = loadDir(dir, 64); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("LoadDir encoded %d times, want 0", got)
	}
	if got := firstQueries("loaded", db); got != 4 {
		t.Errorf("loaded: 8 concurrent first queries encoded %d times, want each of the 4 runs once", got)
	}

	// Chunks of 256 at the default sizes, the end-to-end benchmark's
	// bulk load, ended by Seal: the writers encode nothing, and the
	// first query builds the full segment and the sealed active one.
	const chunk = 256
	sigs = randSigs(r, SegmentSize+3*chunk, dim, nnz)
	db, err := newTestDB(dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodes(func() {
		for c := 1; c*chunk <= len(sigs); c++ {
			if err := db.AddAll(sigs[(c-1)*chunk : c*chunk]); err != nil {
				t.Fatal(err)
			}
		}
		db.Seal()
	}); got != 0 {
		t.Fatalf("chunked load and Seal: %d encodes, want 0", got)
	}
	if got := firstQueries("chunked", db); got != 2 {
		t.Fatalf("chunked: first queries encoded %d times, want 2 (the full segment and the sealed one)", got)
	}

	// IndexBytes builds what the view holds pending without db.mu:
	// held here, it still returns, having built the new run.
	if err := db.AddAll(sigs[:chunk]); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	done := make(chan int64, 1)
	go func() { done <- encodes(func() { db.IndexBytes() }) }()
	select {
	case got := <-done:
		if got != 1 {
			t.Errorf("IndexBytes under a held db.mu encoded %d times, want the 1 pending run", got)
		}
	case <-time.After(time.Minute):
		t.Error("IndexBytes waits for db.mu")
	}
	db.mu.Unlock()
}
