package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/vecmath"
)

// buildPrunedDB assembles a DB in one of the sweep's storage states:
// "sealed" (everything block-compressed), "mixed" (sealed prefix plus
// posting runs and an unindexed tail), or "loaded" (the sealed store
// round-tripped through SaveDir and LoadDir).
func buildPrunedDB(t *testing.T, sigs []Signature, workers, segSize int, layout string) *DB {
	t.Helper()
	db, err := newTestDB(sigs[0].Dim(), workers)
	if err != nil {
		t.Fatal(err)
	}
	// Small fixtures sit under the production store-size floor; lower it
	// so the sweep actually exercises the pruned walk.
	db.setPruneFloor(1)
	db.setSegmentSize(segSize)
	cut := len(sigs)
	if layout == "mixed" {
		cut = len(sigs) * 3 / 4
	}
	if err := db.AddAll(sigs[:cut]); err != nil {
		t.Fatal(err)
	}
	db.Seal()
	if err := db.AddAll(sigs[cut:]); err != nil {
		t.Fatal(err)
	}
	if layout == "loaded" {
		dir := t.TempDir()
		if err := db.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		ldb, err := loadDir(dir, segSize)
		if err != nil {
			t.Fatal(err)
		}
		ldb.setLaneFloor(1)
		ldb.setPruneFloor(1)
		ldb.SetWorkers(workers)
		return ldb
	}
	return db
}

// requireSameHits asserts bit-identical retrieval results (same DocIDs,
// float-equal scores, same order).
func requireSameHits(t *testing.T, ctx string, got, want []SearchResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d hits, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i].Signature.DocID != want[i].Signature.DocID || got[i].Score != want[i].Score {
			t.Fatalf("%s: hit %d = (%s, %v), want (%s, %v)",
				ctx, i, got[i].Signature.DocID, got[i].Score, want[i].Signature.DocID, want[i].Score)
		}
	}
}

// TestPrunedTopKMatchesScan is the exact-mode property sweep: across
// seeds, lane counts, storage layouts, and both
// metrics, the threshold-pruned TopK/TopKBatch/Classify must be
// bit-identical to the brute-force oracle (bruteTopK). Duplicate
// signatures force equal scores through the insertion-order tie-break,
// the adversarial case for any bound-based skip.
func TestPrunedTopKMatchesScan(t *testing.T) {
	const dim, nnz, n, segSize = 150, 18, 400, 48
	metrics := []Metric{CosineMetric(), EuclideanMetric()}
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		sigs := randSigs(r, n, dim, nnz)
		dup := sigs[11]
		dup.DocID = "dup-11"
		sigs = append(sigs, dup)
		queries := make([]*vecmath.Sparse, 4)
		for qi := range queries {
			queries[qi] = randSigs(r, 1, dim, nnz)[0].W
		}
		// One query probes far outside the corpus distribution so heaps
		// fill with poor scores (weak thresholds, little pruning).
		queries[3] = sigs[0].W

		for _, metric := range metrics {
			for _, k := range []int{1, 7, 40} {
				want := make([][]SearchResult, len(queries))
				wantLabel := make([]string, len(queries))
				for qi, q := range queries {
					want[qi] = bruteTopK(sigs, q, k, metric)
					wantLabel[qi] = voteLabel(want[qi], map[string]int{})
				}
				for _, workers := range []int{1, 2, 3, 7} {
					for _, layout := range []string{"sealed", "mixed", "loaded"} {
						ctx := fmt.Sprintf("seed=%d metric=%s k=%d workers=%d layout=%s",
							seed, metric.Name, k, workers, layout)
						db := buildPrunedDB(t, sigs, workers, segSize, layout)
						for qi, q := range queries {
							got, err := db.TopKSparse(q, k, metric)
							if err != nil {
								t.Fatal(err)
							}
							requireSameHits(t, ctx+" TopKSparse", got, want[qi])
						}
						batch, err := db.TopKBatch(queries, k, metric)
						if err != nil {
							t.Fatal(err)
						}
						for qi := range queries {
							requireSameHits(t, ctx+" TopKBatch", batch[qi], want[qi])
						}
						labels, err := db.ClassifyBatch(queries, k, metric)
						if err != nil {
							t.Fatal(err)
						}
						for qi := range queries {
							if labels[qi] != wantLabel[qi] {
								t.Fatalf("%s: ClassifyBatch[%d] = %q, want %q", ctx, qi, labels[qi], wantLabel[qi])
							}
						}
					}
				}
			}
		}
	}
}

// clusterSigs builds batch-clustered signatures in the regime the
// pruned walk targets (and real tf-idf signatures live in): each
// workload class owns a few high-weight dims, every signature shares a
// pool of low-weight common dims, and classes arrive in contiguous
// batches.
func clusterSigs(r *rand.Rand, n, dim, classSize int) []Signature {
	const classDims, commonPool = 12, 30
	out := make([]Signature, n)
	for i := range out {
		class := i / classSize
		cr := rand.New(rand.NewSource(999983*int64(class) + 7))
		v := vecmath.NewVector(dim)
		for j := 0; j < classDims; j++ {
			v[commonPool+cr.Intn(dim-commonPool)] = 0.5 + 0.5*r.Float64()
		}
		for d := 0; d < commonPool; d++ {
			if r.Float64() < 0.7 {
				v[d] = 0.02 + 0.04*r.Float64()
			}
		}
		out[i] = SignatureFromDense(fmt.Sprintf("d%d", i), fmt.Sprintf("c%d", class), v)
	}
	return out
}

// TestPruneStatsCounters checks that the pruned walk actually skips
// work on a sealed store and that the counters expose it coherently
// (TestQueryRouting holds the same fixture's pruned answer against the
// plain walk and the scan). The corpus is batch-clustered (clusterSigs):
// on shapeless uniform data the walk's profitability check correctly
// falls back to the plain kernels, so this is the corpus where the
// counters must light up.
func TestPruneStatsCounters(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	sigs := clusterSigs(r, 3000, 200, 250)
	for _, metric := range []Metric{CosineMetric(), EuclideanMetric()} {
		db, err := newTestDB(200, 2)
		if err != nil {
			t.Fatal(err)
		}
		db.setSegmentSize(256)
		if err := db.AddAll(sigs); err != nil {
			t.Fatal(err)
		}
		db.Seal()
		q := sigs[1234].W // a class-4 member: its class postings dominate
		_, st, err := db.TopKSparseStats(q, 5, metric)
		if err != nil {
			t.Fatal(err)
		}
		if st.Segments == 0 || st.SegmentsPruned == 0 {
			t.Fatalf("%s: no pruned segments: %+v", metric.Name, st)
		}
		if st.BlocksSkipped == 0 && st.DimsSkipped == 0 {
			t.Fatalf("%s: pruning fired but skipped nothing: %+v", metric.Name, st)
		}
		if st.CandidatesScored >= st.Candidates {
			t.Fatalf("%s: rescored %d of %d covered candidates — no saving", metric.Name, st.CandidatesScored, st.Candidates)
		}
		// A pool-only query has postings under every row and nothing to
		// skip: its units are scanned, and counted apart from pruned ones.
		pool := vecmath.NewVector(200)
		for d := 0; d < 30; d++ {
			pool[d] = 0.02 + 0.04*r.Float64()
		}
		if _, stf, err := db.TopKSparseStats(vecmath.DenseToSparse(pool), 5, metric); err != nil {
			t.Fatal(err)
		} else if stf.SegmentsScanned == 0 || stf.SegmentsScanned+stf.SegmentsPruned > stf.Segments {
			t.Fatalf("%s: pool-only query: scanned units miscounted: %+v", metric.Name, stf)
		}
		// The label form reports the same walk; every query of a request
		// gets its own counters.
		lq := Query{Queries: []*vecmath.Sparse{q, q}, K: 5, Metric: metric, Labels: make([]string, 2), Stats: make([]PruneStats, 2)}
		if err := db.Query(context.Background(), &lq); err != nil {
			t.Fatal(err)
		}
		wantLabel, err := db.ClassifySparse(q, 5, metric)
		if err != nil {
			t.Fatal(err)
		}
		for i, st3 := range lq.Stats {
			if st3 != st {
				t.Fatalf("%s: Query{Labels, Stats} slot %d = %+v, want TopKSparseStats' %+v", metric.Name, i, st3, st)
			}
			if lq.Labels[i] != wantLabel {
				t.Fatalf("%s: Query{Labels, Stats} label %d = %q, want %q", metric.Name, i, lq.Labels[i], wantLabel)
			}
		}
	}
}

// TestQueryRouting pins that the arm a query takes is decided by the
// stored data alone: a sealed store at or above the prune floor takes
// the pruned walk, the same store below the floor the plain walk. Both
// arms return the oracle's hits (bruteTopK).
func TestQueryRouting(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	sigs := clusterSigs(r, 3000, 200, 250)
	db, err := newTestDB(200, 2)
	if err != nil {
		t.Fatal(err)
	}
	db.setSegmentSize(256)
	if err := db.AddAll(sigs); err != nil {
		t.Fatal(err)
	}
	db.Seal()
	q := sigs[1234].W
	for _, metric := range []Metric{CosineMetric(), EuclideanMetric()} {
		want, st, err := db.TopKSparseStats(q, 5, metric)
		if err != nil {
			t.Fatal(err)
		}
		if st.SegmentsPruned == 0 {
			t.Fatalf("%s: a store of %d rows at floor %d was not pruned: %+v", metric.Name, len(sigs), pruneMinRows, st)
		}
		requireSameHits(t, metric.Name+", pruned", want, bruteTopK(sigs, q, 5, metric))
		db.setPruneFloor(math.MaxInt)
		got, st, err := db.TopKSparseStats(q, 5, metric)
		if err != nil {
			t.Fatal(err)
		}
		if st.Segments == 0 || st.SegmentsPruned != 0 {
			t.Fatalf("%s, below the floor: took the wrong arm: %+v", metric.Name, st)
		}
		requireSameHits(t, metric.Name+", below the floor", got, want)
		db.setPruneFloor(0)
	}
}

// shapeDim is the function space of the shape fixtures: a pool of
// shapePool ubiquitous light functions below the class functions.
const shapeDim, shapePool = 400, 40

// overlapSigs builds n batch-clustered signatures whose classes share
// functions: class c owns the ten functions from shapePool+8c, so it has
// two heavy functions in common with each neighbor class. A query's
// essential dims therefore touch neighbor-class candidates through one
// or two lists — candidates the block-bound filter must drop, and must
// not drop when they do belong to the top k.
func overlapSigs(r *rand.Rand, from, n, classSize int) []Signature {
	out := make([]Signature, n)
	for i := range out {
		class := (from + i) / classSize
		v := vecmath.NewVector(shapeDim)
		for j := 0; j < 10; j++ {
			v[shapePool+8*class+j] = 0.5 + 0.5*r.Float64()
		}
		for d := 0; d < shapePool; d++ {
			if r.Float64() < 0.75 {
				v[d] = 0.02 + 0.04*r.Float64()
			}
		}
		out[i] = SignatureFromDense(fmt.Sprintf("d%d", from+i), fmt.Sprintf("c%d", class), v)
	}
	return out
}

// flatQuery is a pool-only query over the first m pool functions: every
// stored signature has postings under it and nothing is skippable.
func flatQuery(r *rand.Rand, m int) *vecmath.Sparse {
	v := vecmath.NewVector(shapeDim)
	for d := 0; d < m; d++ {
		v[d] = 0.02 + 0.04*r.Float64()
	}
	return vecmath.DenseToSparse(v)
}

// nearTieSigs is ROADMAP item 3's adversarial corpus against pruneEps:
// weights spanning 120 orders of magnitude (bound sums absorb what the
// canonical dot keeps, and the reverse), and around the returned query
// a cloud of exact duplicates, copies off by a few ULPs in one weight,
// and rescaled copies — scores that tie or differ in the last bit, so a
// bound that is one ULP too tight drops a true neighbor and the
// insertion-index tie-break decides the rest.
func nearTieSigs(r *rand.Rand, n int) ([]Signature, *vecmath.Sparse) {
	wide := func() vecmath.Vector {
		v := vecmath.NewVector(shapeDim)
		for j := 0; j < 30; j++ {
			v[r.Intn(shapeDim)] = math.Pow(10, float64(r.Intn(121)-60)) * float64(1-2*r.Intn(2))
		}
		return v
	}
	base := wide()
	out := make([]Signature, n)
	for i := range out {
		v := wide()
		switch i % 6 {
		case 0: // an exact duplicate
			v = base.Clone()
		case 1, 2: // one weight off by up to 3 ULPs
			v = base.Clone()
			for d := range v {
				if v[d] != 0 && r.Intn(4) == 0 {
					for u := r.Intn(3) + 1; u > 0; u-- {
						v[d] = math.Nextafter(v[d], math.Inf(2*(i%2)-1))
					}
					break
				}
			}
		case 3: // a rescaled copy: the same direction, another norm
			v = base.Clone()
			for d := range v {
				v[d] *= 3
			}
		}
		out[i] = SignatureFromDense(fmt.Sprintf("d%d", i), fmt.Sprintf("l%d", i%3), v)
	}
	return out, vecmath.DenseToSparse(base)
}

// TestPrunedTopKMatchesScanShapes extends the exact-mode sweep with the
// corpus and query shapes the gather-dot walk's decisions hinge on:
// overlapping class functions (the block-bound filter), flat pool-only
// queries on both sides of the scan/walk crossover (scanBeatsWalk), and
// near-tie, wide-magnitude scores (pruneEps) — each at prune floor 1
// and at the default floor, sealed and with an active tail of runs,
// bit-identical to the never-indexed scan; and at k = 10 each must
// actually take the walk it is there for.
func TestPrunedTopKMatchesScanShapes(t *testing.T) {
	const n, classSize = 3000, 500
	r := rand.New(rand.NewSource(23))
	overlap := overlapSigs(r, 0, n, classSize)
	var classQ, flatQ []*vecmath.Sparse
	for c := 0; c < n/classSize; c += 2 {
		classQ = append(classQ, overlapSigs(r, c*classSize, 1, classSize)[0].W)
	}
	for _, m := range []int{1, 3, 5, 6, 8, 12, 25, shapePool} {
		flatQ = append(flatQ, flatQuery(r, m))
	}
	ties, tieQ := nearTieSigs(r, n)
	shapes := []struct {
		name    string
		sigs    []Signature
		queries []*vecmath.Sparse
		took    func(PruneStats) bool
	}{
		{"overlap", overlap, classQ, func(st PruneStats) bool {
			return st.SegmentsPruned > 0 && 4*st.CandidatesScored < st.Candidates
		}},
		{"flat", overlap, flatQ, func(st PruneStats) bool {
			return st.SegmentsScanned > 0 && st.Segments > st.SegmentsScanned+st.SegmentsPruned
		}},
		{"near-tie", ties, []*vecmath.Sparse{tieQ, ties[1].W, ties[3].W, ties[5].W}, func(st PruneStats) bool {
			return st.SegmentsPruned > 0
		}},
	}
	for _, sh := range shapes {
		for _, metric := range []Metric{CosineMetric(), EuclideanMetric()} {
			// The largest k reaches past a query's own class, into the
			// neighbor-class candidates only one or two lists touch.
			for _, k := range []int{1, 10, classSize + 100} {
				want := make([][]SearchResult, len(sh.queries))
				for qi, q := range sh.queries {
					want[qi] = bruteTopK(sh.sigs, q, k, metric)
				}
				for _, workers := range []int{1, 2, 3, 7} {
					for _, layout := range []string{"sealed", "runs"} {
						for _, floor := range []int{1, 0} {
							ctx := fmt.Sprintf("%s metric=%s k=%d workers=%d layout=%s floor=%d", sh.name, metric.Name, k, workers, layout, floor)
							db, err := newTestDB(shapeDim, workers)
							if err != nil {
								t.Fatal(err)
							}
							db.setPruneFloor(floor)
							db.setRunLen(64)
							db.setSegmentSize(512)
							cut := len(sh.sigs)
							if layout == "runs" {
								cut = cut * 3 / 4
							}
							if err := db.AddAll(sh.sigs[:cut]); err != nil {
								t.Fatal(err)
							}
							db.Seal()
							if err := db.AddAll(sh.sigs[cut:]); err != nil {
								t.Fatal(err)
							}
							var total PruneStats
							for qi, q := range sh.queries {
								got, st, err := db.TopKSparseStats(q, k, metric)
								if err != nil {
									t.Fatal(err)
								}
								requireSameHits(t, ctx, got, want[qi])
								total.Add(&st)
							}
							if k == 10 && !sh.took(total) {
								t.Fatalf("%s: the shape's walk was not taken: %+v", ctx, total)
							}
						}
					}
				}
			}
		}
	}
}

// touchDim is the function space of the whole-unit walk's fixtures.
const touchDim = 300

// walkSigs builds n signatures over touchDim dims for the whole-unit
// walk's edge cases: rows before split use the low half of the dims and
// the rest the high half, so a low-dim query is disjoint from a unit of
// high rows. Among every ten rows are one at a hundredth of the norm,
// one at ten times it, one empty (zero norm), one with negated weights,
// and one whose dot with walkQueryFew is exactly zero although the walk
// touches it (+½ and -½ on the half's dims 3 and 7).
func walkSigs(r *rand.Rand, n, split int) []Signature {
	out := make([]Signature, n)
	for i := range out {
		base := 0
		if i >= split {
			base = touchDim / 2
		}
		v := vecmath.NewVector(touchDim)
		for j := 0; j < 4; j++ {
			v[base+r.Intn(touchDim/2)] = 0.1 + 0.9*r.Float64()
		}
		scale := 1.0
		switch i % 10 {
		case 5:
			scale = 0.01
		case 6:
			scale = 10
		case 7:
			scale = 0
		case 8:
			scale = -1
		case 9:
			v[base+3], v[base+7] = 0.5, -0.5
		}
		for d := range v {
			v[d] *= scale
		}
		out[i] = SignatureFromDense(fmt.Sprintf("d%d", i), fmt.Sprintf("l%d", i%3), v)
	}
	return out
}

// walkQueryFew touches dims 3 and 7 only: a few dozen rows of a low unit,
// none of a high one.
func walkQueryFew() *vecmath.Sparse {
	v := vecmath.NewVector(touchDim)
	v[3], v[7] = 1, 1
	return vecmath.DenseToSparse(v)
}

// TestWalkScoresTouchedRows holds the whole-unit posting walk — dots
// listing the rows it touches, offerWalk scoring those and the untouched
// rest only when a zero dot could still get in — to the scan. Its fixture
// (walkSigs) has units the query touches fewer than k rows of, units it
// touches none of, zero-norm rows, Euclidean rows whose norms differ so
// much that an untouched small row beats every touched large one, touched
// rows whose dot is exactly zero or negative, seed rows inside the walked
// unit (prune floor 1, where the seeded walk gives up to the whole walk),
// and a full segment of SegmentSize rows, the largest unit a store
// holds.
func TestWalkScoresTouchedRows(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	wide := vecmath.NewVector(touchDim)
	for j := 0; j < 10; j++ {
		wide[r.Intn(touchDim/2)] = 0.2 + 0.8*r.Float64()
	}
	both := walkQueryFew().Dense()
	both[touchDim/2+3], both[touchDim/2+7] = 1, -1
	queries := []*vecmath.Sparse{walkQueryFew(), vecmath.DenseToSparse(wide), vecmath.DenseToSparse(both)}
	fixtures := []struct {
		name          string
		n, split, seg int
		chunk         int // rows sealed at a time
	}{
		{"two units", 1200, 600, 600, 1200},
		{"full segment", 9000, 6000, SegmentSize, 3000},
	}
	for _, fx := range fixtures {
		sigs := walkSigs(r, fx.n, fx.split)
		db, err := NewDB(touchDim)
		if err != nil {
			t.Fatal(err)
		}
		db.setSegmentSize(fx.seg)
		for lo := 0; lo < fx.n; lo += fx.chunk {
			if err := db.AddAll(sigs[lo:min(lo+fx.chunk, fx.n)]); err != nil {
				t.Fatal(err)
			}
			db.Seal()
		}
		if len(db.segs) != 2 || db.segs[0].len() != fx.seg {
			t.Fatalf("%s: want a full %d-row segment and a tail, have %d segments", fx.name, fx.seg, len(db.segs))
		}
		for _, metric := range []Metric{CosineMetric(), EuclideanMetric()} {
			for _, floor := range []int{math.MaxInt, 1} {
				db.setPruneFloor(floor)
				walked := int64(0)
				for qi, q := range queries {
					for _, k := range []int{1, 5, 40, 200} {
						ctx := fmt.Sprintf("%s %s floor=%d query %d k=%d", fx.name, metric.Name, floor, qi, k)
						got, st, err := db.TopKSparseStats(q, k, metric)
						if err != nil {
							t.Fatal(err)
						}
						requireSameHits(t, ctx, got, bruteTopK(sigs, q, k, metric))
						walked += st.Segments - st.SegmentsPruned - st.SegmentsScanned
					}
				}
				if walked == 0 {
					t.Fatalf("%s %s floor=%d: no unit took the whole walk", fx.name, metric.Name, floor)
				}
			}
		}
	}
}

// sortedPrefix is the essential cutoff as a full sort decides it, kept
// as essentialPrefix's oracle: every slot ordered by descending bound,
// ties toward the lower slot, suffix-summed from the lightest, and the
// first suffix whose mass (with the relative slack) canSkip accepts —
// the whole support included, at m. cut is -1 when none is.
func sortedPrefix(bound []float64, canSkip func(float64) bool) (ord []int32, cut int) {
	m := len(bound)
	ord = make([]int32, m)
	for i := range ord {
		ord[i] = int32(i)
	}
	sort.Slice(ord, func(a, b int) bool {
		x, y := bound[ord[a]], bound[ord[b]]
		if x != y {
			return x > y
		}
		return ord[a] < ord[b]
	})
	suffix := make([]float64, m+1)
	for i := m - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + bound[ord[i]]
	}
	for i := 0; i <= m; i++ {
		if canSkip(suffix[i] * (1 + pruneEps)) {
			return ord, i
		}
	}
	return ord, -1
}

// checkPrefix runs essentialPrefix on the scratch's bounds and holds it to
// sortedPrefix: the prefix is the oracle's order up to the cut, the cut
// is never earlier than the oracle's, the tail is exactly the slots left
// over, the mass of that tail — summed exactly — is one canSkip accepts,
// and the returned tail and total masses are that sum and the bound total
// to within rounding. It returns both cuts.
func checkPrefix(t *testing.T, ctx string, ps *pruneScratch, canSkip func(float64) bool) (got, want int) {
	t.Helper()
	ord, want := sortedPrefix(ps.bound, canSkip)
	got, tail, total := ps.essentialPrefix(canSkip)
	m := len(ps.bound)
	if got < 0 {
		if want >= 0 || canSkip(0) {
			t.Fatalf("%s: no cut, the oracle cuts at %d", ctx, want)
		}
		return got, want
	}
	if want < 0 || got < want {
		t.Fatalf("%s: cut %d, earlier than the oracle's %d", ctx, got, want)
	}
	if !slices.Equal(ps.ord[:got], ord[:got]) {
		t.Fatalf("%s: prefix %v, want the oracle's %v", ctx, ps.ord[:got], ord[:got])
	}
	rest := slices.Sorted(slices.Values(ps.heap))
	if want := slices.Sorted(slices.Values(ord[got:])); !slices.Equal(rest, want) {
		t.Fatalf("%s: tail slots %v, want %v", ctx, rest, want)
	}
	exact, all := new(big.Float), new(big.Float)
	for _, s := range ps.heap {
		exact.Add(exact, big.NewFloat(ps.bound[s]))
	}
	for _, b := range ps.bound {
		all.Add(all, big.NewFloat(b))
	}
	// canSkip is monotone in the mass: asking it about the exact mass
	// rounded up can only make the check stricter.
	up, _ := exact.Float64()
	if exact.Cmp(big.NewFloat(up)) > 0 {
		up = math.Nextafter(up, math.Inf(1))
	}
	if !canSkip(up) {
		t.Fatalf("%s: cut %d of %d skips a tail of exact mass %v that can displace the root", ctx, got, m, exact)
	}
	for _, c := range []struct {
		name string
		got  float64
		want *big.Float
	}{{"tail", tail, exact}, {"total", total, all}} {
		w, _ := c.want.Float64()
		if math.Abs(c.got-w) > 1e-12*w {
			t.Fatalf("%s: %s mass %v, exact %v", ctx, c.name, c.got, w)
		}
	}
	return got, want
}

// loadBounds points the scratch at bound with every slot on the heap,
// as impacts leaves it.
func loadBounds(ps *pruneScratch, bound []float64) {
	ps.bound = bound
	ps.heap = ps.heap[:0]
	for i := range bound {
		ps.heap = append(ps.heap, int32(i))
	}
	ps.ord = make([]int32, len(bound))
}

// TestEssentialPrefix holds the heap selection of the essential prefix
// to the full sort it replaced. On random impact vectors — up to 300
// slots, ties, zeros, magnitudes 1e-300…1e3, thresholds on and around
// every oracle boundary — the prefix is the sorted order, the cut never
// comes before the sort's and never skips a tail whose exact mass could
// displace the root. On the kernel_large-shaped store (peakedSigs, class
// members as queries, the real seeded walk) every unit's cut is the
// sort's.
func TestEssentialPrefix(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	var ps pruneScratch
	for trial := 0; trial < 3000; trial++ {
		m := r.Intn(301)
		lo := -300 + 303*r.Float64()
		span := (3 - lo) * r.Float64()
		bound := make([]float64, m)
		for i := range bound {
			switch {
			case r.Intn(8) == 0:
				bound[i] = 0
			case i > 0 && r.Intn(5) == 0:
				bound[i] = bound[r.Intn(i)]
			default:
				bound[i] = math.Pow(10, lo+span*r.Float64())
			}
		}
		loadBounds(&ps, slices.Clone(bound))
		// θ sits on a random oracle boundary — its decision mass, just
		// above or below it, or the bare suffix — or at the extremes.
		ord, _ := sortedPrefix(bound, func(float64) bool { return false })
		mass := 0.0
		for _, s := range ord[r.Intn(m+1):] {
			mass += bound[s]
		}
		var theta float64
		switch r.Intn(7) {
		case 0:
			theta = mass * (1 + pruneEps)
		case 1:
			theta = math.Nextafter(mass*(1+pruneEps), math.Inf(1))
		case 2:
			theta = mass * (1 + 1e-12)
		case 3:
			theta = mass * (1 + 3*pruneEps)
		case 4:
			theta = mass
		case 5:
			theta = 0
		default:
			theta = math.Inf(1)
		}
		canSkip := func(x float64) bool { return x < theta }
		checkPrefix(t, fmt.Sprintf("trial %d (m=%d θ=%v)", trial, m, theta), &ps, canSkip)
	}

	const dim, n, classSize, k = 3815, 8000, 2000, 10
	db, err := newTestDB(dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	db.setSegmentSize(1024)
	if err := db.AddAll(peakedSigs(r, dim, n, classSize)); err != nil {
		t.Fatal(err)
	}
	db.Seal()
	// Two fresh members of every class (classSize 1 gives class i to
	// signature i), the shape of bench's kernel_large probes.
	queries := append(peakedSigs(r, dim, n/classSize, 1), peakedSigs(r, dim, n/classSize, 1)...)
	v := db.cur.Load()
	buildRuns(db.dim, v.sigs, v.runs)
	units, pruned := 0, 0
	for _, metric := range []Metric{CosineMetric(), EuclideanMetric()} {
		cosine := metric.kind == metricKindCosine
		for qi, q := range queries {
			qd, qNorm2 := q.W.Dense(), q.W.Norm2()
			{
				// One lane's pruned arm, unit by unit, with every cut
				// also taken by the oracle against the same live root.
				lq := laneQuery{v: v, query: q.W, qd: qd, k: k, cosine: cosine, qNorm2: qNorm2, p: 1}
				var ls laneScratch
				h := &ls.heap
				h.reset(metric.HigherIsCloser)
				lq.seeds = seedHeap(&lq, &ls.prune, h)
				for ui := range v.segs {
					sg := v.unit(ui)
					var cmp pruneScratch
					cmp.impacts(sg.blocks, q.W)
					ctx := fmt.Sprintf("%s query %d unit %d", metric.Name, qi, ui)
					canSkip := func(rem float64) bool { return rootSafe(h, sg.blocks, cosine, qNorm2, rem) }
					if got, want := checkPrefix(t, ctx, &cmp, canSkip); got != want {
						t.Fatalf("%s: cut %d, the oracle's %d", ctx, got, want)
					}
					units++
					if prunedSegment(&lq, sg, &ls, 0) {
						pruned++
					} else {
						offerCanonical(h, k, v, sg, qd, cosine, qNorm2, lq.seeds, 0, 1)
					}
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatalf("none of %d units took the pruned walk", units)
	}
}

// TestConfigErrors pins the typed validation of the construction and
// configuration knobs.
func TestConfigErrors(t *testing.T) {
	var ce *ConfigError
	if _, err := NewDB(0); !errors.As(err, &ce) || ce.Param != "dimension" || ce.Value != 0 {
		t.Fatalf("NewDB(0) = %v, want dimension ConfigError", err)
	}
	if _, err := NewIndex(0); !errors.As(err, &ce) || ce.Param != "index dimension" {
		t.Fatalf("NewIndex(0) = %v, want index-dimension ConfigError", err)
	}
}

// TestLanesShareTheSeedThreshold is why a query seeds once for all its
// lanes. Each class here owns its 50 heavy functions and is a quarter of
// a lane chunk, so a query's class sits wholly in one lane and the other
// lane holds none of the answer: seeded from its own rows alone, that
// lane would prune against a weak threshold and score most of them.
// Started from a copy of the store-wide seed heap instead — whose probe
// decodes the query's class — every lane prunes against the final k-th
// score, so two lanes score no more gather dots than one lane does.
func TestLanesShareTheSeedThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const dim, classSize, k = 3815, laneChunk / 4, 10
	const classes = 16
	class := func(c, n int) []Signature {
		out := make([]Signature, n)
		for i := range out {
			v := vecmath.NewVector(dim)
			for d := 200 + 50*c; d < 250+50*c; d++ {
				v[d] = 0.5 + 0.5*r.Float64()
			}
			for d := 0; d < 200; d++ {
				if r.Float64() < 0.75 {
					v[d] = 2e-4 + 8e-4*r.Float64()
				}
			}
			out[i] = SignatureFromDense(fmt.Sprintf("c%d-%d", c, i), fmt.Sprintf("c%d", c), v)
		}
		Normalize(out)
		return out
	}
	var sigs, queries []Signature
	for c := 0; c < classes; c++ {
		sigs = append(sigs, class(c, classSize)...)
		queries = append(queries, class(c, 1)...)
	}
	db, err := newTestDB(dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	db.setSegmentSize(len(sigs) / 2)
	if err := db.AddAll(sigs); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []Metric{CosineMetric(), EuclideanMetric()} {
		for qi, q := range queries {
			var scored [2]int64
			for p, workers := range []int{1, 2} {
				db.SetWorkers(workers)
				_, st, err := db.TopKSparseStats(q.W, k, metric)
				if err != nil {
					t.Fatal(err)
				}
				if st.SegmentsPruned != st.Segments {
					t.Fatalf("%s query %d workers=%d: %d of %d unit walks pruned", metric.Name, qi, workers, st.SegmentsPruned, st.Segments)
				}
				scored[p] = st.CandidatesScored
			}
			if scored[1] > scored[0] {
				t.Fatalf("%s query %d: two lanes scored %d gather dots, one lane %d", metric.Name, qi, scored[1], scored[0])
			}
		}
	}
}

// setPruneFloor overrides the store-size floor below which pruning is
// not attempted (0 restores pruneMinRows) — a test knob, published like
// every other query-configuration change.
func (db *DB) setPruneFloor(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.pruneFloor = n
	db.publishLocked()
}
