package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/vecmath"
)

// checkLayout asserts the one segment layout: the segments tile the
// rows from row 0, every one but the last holds exactly the segment
// size and the last between one row and that size, and no walk unit of
// the published view holds more rows than a segment. A closed store
// holds no segments and is skipped.
func checkLayout(t *testing.T, tag string, db *DB) {
	t.Helper()
	db.mu.Lock()
	size, n, closed := db.segSizeLocked(), len(db.sigs), db.closed
	var bad []string
	next := 0
	for i, sg := range db.segs {
		if sg.start != next || sg.len() < 1 || sg.len() > size || (i < len(db.segs)-1 && sg.len() != size) {
			bad = append(bad, fmt.Sprintf("segment %d [%d, %d)", i, sg.start, sg.end))
		}
		next = sg.end
	}
	db.mu.Unlock()
	if closed {
		return
	}
	if next != n {
		bad = append(bad, fmt.Sprintf("segments end at row %d of %d", next, n))
	}
	for i, u := range db.cur.Load().segs {
		if u.end-u.start > size {
			bad = append(bad, fmt.Sprintf("walk unit %d [%d, %d)", i, u.start, u.end))
		}
	}
	if len(bad) > 0 {
		t.Fatalf("%s: not the layout of %d rows in segments of %d: %v", tag, n, size, bad)
	}
}

// TestTopKSegmentedMatchesUnsegmented is the equivalence property the
// segment layout rests on: over random corpora, at every segment size
// and lane count, a store fed with explicit Seal calls mid-stream must
// hold the layout its row count implies and answer TopK and
// ClassifyBatch bit-identically to the unsegmented sequential reference
// and TopK to the brute-force oracle (bruteTopK).
func TestTopKSegmentedMatchesUnsegmented(t *testing.T) {
	metrics := []Metric{EuclideanMetric(), CosineMetric()}
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		dim := 60 + r.Intn(100)
		n := 50 + r.Intn(150)
		nnz := 5 + r.Intn(20)
		sigs := randSigs(r, n, dim, nnz)
		// Duplicates exercise the (score, insertion index) tie-break
		// across segment boundaries.
		for d := 0; d < 3; d++ {
			dup := sigs[r.Intn(len(sigs))]
			dup.DocID = fmt.Sprintf("dup-%d", d)
			sigs = append(sigs, dup)
		}
		queries := make([]*vecmath.Sparse, 8)
		for i := range queries {
			queries[i] = randSigs(r, 1, dim, nnz)[0].W
		}
		k := 1 + r.Intn(n)

		// Reference: one giant segment, sequential.
		ref, err := NewDB(dim)
		if err != nil {
			t.Fatal(err)
		}
		ref.SetWorkers(-1)
		if err := ref.AddAll(sigs); err != nil {
			t.Fatal(err)
		}
		if got := ref.Segments(); got != 1 {
			t.Fatalf("reference DB should hold one segment, has %d", got)
		}

		for _, segSize := range []int{1, 3, 16, SegmentSize} {
			for _, workers := range []int{1, 2, 3, 7} {
				db, err := newTestDB(dim, workers)
				if err != nil {
					t.Fatal(err)
				}
				db.setSegmentSize(segSize)
				// Interleave Adds with explicit seals, so indexed
				// prefixes end mid-segment, not only at size multiples.
				for i, s := range sigs {
					if err := db.Add(s); err != nil {
						t.Fatal(err)
					}
					if i%37 == 36 {
						db.Seal()
					}
				}
				tag := fmt.Sprintf("seed=%d segsize=%d workers=%d segs=%d", seed, segSize, workers, db.Segments())
				checkLayout(t, tag, db)
				if got, want := db.Segments(), (len(sigs)+segSize-1)/segSize; got != want {
					t.Fatalf("%s: %d segments, want %d", tag, got, want)
				}
				for _, m := range metrics {
					want, err := ref.TopKSparse(queries[0], k, m)
					if err != nil {
						t.Fatal(err)
					}
					got, err := db.TopKSparse(queries[0], k, m)
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, tag+" "+m.Name+" indexed", got, want)
					sameResults(t, tag+" "+m.Name+" oracle", bruteTopK(sigs, queries[0], k, m), want)
				}
				wantLabels, err := ref.ClassifyBatch(queries, 5, EuclideanMetric())
				if err != nil {
					t.Fatal(err)
				}
				gotLabels, err := db.ClassifyBatch(queries, 5, EuclideanMetric())
				if err != nil {
					t.Fatal(err)
				}
				for qi := range wantLabels {
					if gotLabels[qi] != wantLabels[qi] {
						t.Fatalf("%s: ClassifyBatch[%d] = %q, want %q", tag, qi, gotLabels[qi], wantLabels[qi])
					}
				}
			}
		}
	}
}

// TestSegmentLifecycle pins the segment mechanics: a segment ends when
// it holds the segment size and nowhere else, Seal indexes the active
// segment without ending it, Add after Seal appends to the same
// segment, and SaveDir writes exactly the rows no file holds — a
// segment that filled as one file, the rows the active one gained as
// one more.
func TestSegmentLifecycle(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	const dim, nnz = 40, 6
	db, err := NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	db.setSegmentSize(10)
	dir := t.TempDir()
	// save saves into dir and returns how many segment files it wrote.
	save := func() int {
		t.Helper()
		before := dirState(t, dir)
		if err := db.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		return newSegmentFiles(before, dirState(t, dir))
	}
	shape := func(tag string, segs, sealed, unindexed int) {
		t.Helper()
		checkLayout(t, tag, db)
		if db.Segments() != segs || db.SealedSegments() != sealed || db.ActiveUnindexedRows() != unindexed {
			t.Fatalf("%s: %d segments, %d full, %d unindexed rows; want %d, %d, %d", tag,
				db.Segments(), db.SealedSegments(), db.ActiveUnindexedRows(), segs, sealed, unindexed)
		}
	}
	// 25 signatures at segment size 10: two full segments + one active
	// of 5, all written by the first save.
	if err := db.AddAll(randSigs(r, 25, dim, nnz)); err != nil {
		t.Fatal(err)
	}
	shape("25 rows", 3, 2, 5)
	if got := save(); got != 3 {
		t.Fatalf("first save wrote %d segment files, want 3", got)
	}
	// Seal indexes the 5-row active segment; the next Add appends to it.
	db.Seal()
	shape("Seal", 3, 2, 0)
	if err := db.Add(randSigs(r, 1, dim, nnz)[0]); err != nil {
		t.Fatal(err)
	}
	shape("Seal+Add", 3, 2, 1)
	if got := save(); got != 1 {
		t.Fatalf("save after Seal+Add wrote %d segment files, want one of the added row", got)
	}
	if got := save(); got != 0 {
		t.Fatalf("save of an unchanged store wrote %d segment files", got)
	}
	// Four more fill the active segment; one more opens a fourth.
	if err := db.AddAll(randSigs(r, 4, dim, nnz)); err != nil {
		t.Fatal(err)
	}
	shape("30 rows", 3, 3, 0)
	if err := db.Add(randSigs(r, 1, dim, nnz)[0]); err != nil {
		t.Fatal(err)
	}
	shape("31 rows", 4, 3, 1)
	if got := save(); got != 2 {
		t.Fatalf("save after filling a segment and opening one wrote %d segment files, want 2", got)
	}
}

// newSegmentFiles counts the segment files in after that before lacks:
// the files a save wrote, since a save never rewrites a file in place.
func newSegmentFiles(before, after map[string][]byte) int {
	n := 0
	for name := range after {
		if _, ok := before[name]; !ok && strings.HasPrefix(name, "seg-") {
			n++
		}
	}
	return n
}
