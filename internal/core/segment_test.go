package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vecmath"
)

// TestTopKSegmentedMatchesUnsegmented is the equivalence property the
// segment re-architecture rests on: over random corpora, every
// combination of seal points (segment sizes, explicit Seal calls),
// compactions, and lane counts must answer TopK — indexed and scan —
// and ClassifyBatch bit-identically to the unsegmented sequential
// reference.
func TestTopKSegmentedMatchesUnsegmented(t *testing.T) {
	metrics := []Metric{EuclideanMetric(), CosineMetric(), MinkowskiMetric(1)}
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
				for _, compact := range []bool{false, true} {
					db, err := newTestDB(dim, workers)
					if err != nil {
						t.Fatal(err)
					}
					db.setSegmentSize(segSize)
					// Interleave Adds with explicit seal points so
					// segment boundaries land mid-stream, not only at
					// size multiples.
					for i, s := range sigs {
						if err := db.Add(s); err != nil {
							t.Fatal(err)
						}
						if i%37 == 36 {
							db.Seal()
						}
					}
					if compact {
						db.Seal()
						db.Compact()
					}
					tag := fmt.Sprintf("seed=%d segsize=%d workers=%d compact=%v segs=%d",
						seed, segSize, workers, compact, db.Segments())
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
						sameResults(t, tag+" "+m.Name+" scan", scanResults(t, db, queries[0], k, m), want)
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
}

// TestSegmentLifecycle pins the seal/roll/compact mechanics: size-
// threshold rolling, explicit Seal, Add-after-Seal opening a fresh
// active segment, Compact merging only small sealed runs, and the dirty
// accounting SaveDir's incrementality rests on.
func TestSegmentLifecycle(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	const dim, nnz = 40, 6
	db, err := NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	db.setSegmentSize(10)
	// 25 signatures at segment size 10: two sealed segments + one active
	// of 5.
	if err := db.AddAll(randSigs(r, 25, dim, nnz)); err != nil {
		t.Fatal(err)
	}
	if got := db.Segments(); got != 3 {
		t.Fatalf("after 25 adds at size 10: %d segments, want 3", got)
	}
	if got := db.DirtySegments(); got != 3 {
		t.Fatalf("never-saved DB: %d dirty, want 3", got)
	}
	// Sealing the 5-record active segment then adding again must open a
	// fourth segment.
	db.Seal()
	if err := db.Add(randSigs(r, 1, dim, nnz)[0]); err != nil {
		t.Fatal(err)
	}
	if got := db.Segments(); got != 4 {
		t.Fatalf("after Seal+Add: %d segments, want 4", got)
	}
	// Compact: the three sealed segments (10, 10, 5) are all below the
	// huge threshold once we raise it, so they merge into one; the
	// 1-record active segment stays.
	db.setSegmentSize(100)
	db.Compact()
	if got := db.Segments(); got != 2 {
		t.Fatalf("after Compact: %d segments, want 2 (merged + active)", got)
	}
	// Full-size sealed segments are left alone.
	db2, err := NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	db2.setSegmentSize(5)
	if err := db2.AddAll(randSigs(r, 20, dim, nnz)); err != nil {
		t.Fatal(err)
	}
	before := db2.Segments()
	db2.Compact() // every sealed segment is exactly the threshold: no-op
	if got := db2.Segments(); got != before {
		t.Fatalf("Compact merged full segments: %d -> %d", before, got)
	}
}
