package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

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

// activeShape returns each shard's active-segment run count and
// unindexed-tail length.
func activeShape(db *DB) (runs, tail []int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for si := range db.shards {
		nr, nt := 0, 0
		if sg := db.shards[si].activeSegment(); sg != nil {
			nr, nt = len(sg.runs), sg.end-sg.runEnd
		}
		runs, tail = append(runs, nr), append(tail, nt)
	}
	return runs, tail
}

// TestActiveRunsMatchScan is the equivalence property the run-indexed
// ingest tail rests on. Per-shard sizes straddle the run boundary (run-1,
// run, run+1, several runs plus a remainder), built row by row, in one
// AddAll, with a Seal landing mid-run, and across a save/reopen followed
// by appends; at each, TopK and Classify must be bit-identical to the
// naive scan of a never-indexed single-shard reference, with the pruned
// walk forced on (floor 1) and at its default floor — and the active
// segment must hold exactly the runs and tail the row count implies.
func TestActiveRunsMatchScan(t *testing.T) {
	const dim, nnz = 70, 9
	metrics := []Metric{EuclideanMetric(), CosineMetric()}
	for _, run := range []int{4, 16} {
		for _, shards := range []int{1, 3} {
			for _, perShard := range []int{run - 1, run, run + 1, 3*run + run/2} {
				r := rand.New(rand.NewSource(int64(1000*run + 10*shards + perShard)))
				n := perShard * shards
				sigs := randSigs(r, n, dim, nnz)
				dup := sigs[r.Intn(n)] // an equal score across a run boundary
				dup.DocID = "dup"
				sigs[n-1] = dup
				queries := make([]*vecmath.Sparse, 5)
				for i := range queries {
					queries[i] = randSigs(r, 1, dim, nnz)[0].W
				}
				k := 1 + r.Intn(n)

				ref, err := NewDB(dim)
				if err != nil {
					t.Fatal(err)
				}
				ref.SetWorkers(-1)
				if err := ref.AddAll(sigs); err != nil {
					t.Fatal(err)
				}

				for _, mode := range []string{"add", "addall", "seal-mid-run", "reopen-append"} {
					for _, floor := range []int{1, 0} {
						db, err := NewShardedDB(dim, shards)
						if err != nil {
							t.Fatal(err)
						}
						db.setRunLen(run)
						db.setPruneFloor(floor)
						// sealedAt is how many rows per shard sit in sealed
						// segments when the build ends.
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
							// Seal with half a run unindexed in every shard.
							sealedAt = min(run+run/2, perShard)
							if err := db.AddAll(sigs[:sealedAt*shards]); err != nil {
								t.Fatal(err)
							}
							db.Seal()
							if err := db.AddAll(sigs[sealedAt*shards:]); err != nil {
								t.Fatal(err)
							}
						case "reopen-append":
							// Save with runs and a tail in place; a reload
							// seals everything, and appends start new runs.
							sealedAt = perShard / 2
							if err := db.AddAll(sigs[:sealedAt*shards]); err != nil {
								t.Fatal(err)
							}
							dir := filepath.Join(t.TempDir(), "db")
							if err := db.SaveDir(dir); err != nil {
								t.Fatal(err)
							}
							if db, err = LoadDir(dir); err != nil {
								t.Fatal(err)
							}
							db.setRunLen(run)
							db.setPruneFloor(floor)
							for _, s := range sigs[sealedAt*shards:] {
								if err := db.Add(s); err != nil {
									t.Fatal(err)
								}
							}
						}
						tag := fmt.Sprintf("run=%d shards=%d perShard=%d mode=%s floor=%d k=%d", run, shards, perShard, mode, floor, k)

						runs, tail := activeShape(db)
						active := perShard - sealedAt
						for si := range runs {
							if runs[si] != active/run || tail[si] != active%run {
								t.Fatalf("%s: shard %d holds %d runs + %d unindexed rows, want %d + %d",
									tag, si, runs[si], tail[si], active/run, active%run)
							}
						}
						if got, want := db.ActiveUnindexedRows(), shards*(active%run); got != want {
							t.Fatalf("%s: ActiveUnindexedRows %d, want %d", tag, got, want)
						}

						for _, m := range metrics {
							for qi, q := range queries {
								want := scanResults(t, ref, q, k, m)
								got, err := db.TopKSparse(q, k, m)
								if err != nil {
									t.Fatal(err)
								}
								sameResults(t, fmt.Sprintf("%s %s q=%d", tag, m.Name, qi), got, want)
							}
							wantLabels, err := ref.ClassifyBatch(queries, min(k, 5), scanMetric(m))
							if err != nil {
								t.Fatal(err)
							}
							gotLabels, err := db.ClassifyBatch(queries, min(k, 5), m)
							if err != nil {
								t.Fatal(err)
							}
							for qi := range wantLabels {
								if gotLabels[qi] != wantLabels[qi] {
									t.Fatalf("%s %s: Classify[%d] = %q, want %q", tag, m.Name, qi, gotLabels[qi], wantLabels[qi])
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
		db, err := NewShardedDB(dim, 2)
		if err != nil {
			t.Fatal(err)
		}
		db.SetSegmentSize(64)
		db.setRunLen(runLen)
		if oneByOne {
			for i, s := range sigs {
				if err := db.Add(s); err != nil {
					t.Fatal(err)
				}
				if i == n/2 {
					if runs, _ := activeShape(db); runs[0] == 0 {
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
	if len(through) != len(direct) {
		t.Fatalf("%d files sealed through runs, %d sealed in one step", len(through), len(direct))
	}
	for name, want := range direct {
		if !bytes.Equal(through[name], want) {
			t.Fatalf("%s differs between a store sealed through runs and one sealed in one step", name)
		}
	}
}
