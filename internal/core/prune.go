package core

import (
	"math"

	"repro/internal/vecmath"
)

// Threshold-pruned retrieval (maxscore/WAND family) over the
// block-compressed posting layout. The unpruned indexed walk decodes
// every block whose dimension appears in the query — O(corpus) work per
// query no matter how selective the query is. The pruned walk uses the
// bounds PR 5's descriptors already pay for (per-block maxAbsW, lifted
// to a per-dim directory bound at seal time) to spend work only where
// the top-k outcome can still change:
//
//  1. The query dims present in the unit are weighed by worst-case
//     contribution |q_d|·dimBound[d] and taken heaviest first until the
//     mass of the rest provably cannot lift any untouched candidate past
//     the heap root: an essential prefix, in order, and a skippable
//     tail, never sorted (essentialPrefix).
//  2. The essential dims' blocks are walked for their ids only: every
//     candidate in a block accumulates the block's constant bound
//     |q_d|·maxAbsW and is listed on first touch. No posting weight is
//     gathered. An individual block is skipped when even adding its
//     bound to every remaining bound cannot change the outcome
//     (block-max pruning), and the unit is given up — scored whole by
//     the caller — once the walk has cost more than that would.
//  3. Listed candidates whose summed block bounds plus the remaining
//     bound cannot displace the root are dropped; the survivors get the
//     canonical gather dot (dbView.score) and are offered normally.
//     Unlisted candidates are covered wholesale by step 1's bound.
//
// Bound arithmetic only ever *filters*; every score that reaches the
// heap is the canonical one, so the result is bit-identical to the scan
// at any segment layout or worker count — see
// DESIGN-PERF.md Layer 7 for the full exactness argument, including why
// pruneEps absorbs the float non-associativity between the bound sums
// and the canonical dot.
//
// The walk prunes against its lane heap's root, so it only engages once
// the heap is full; topk seeds one heap over the whole store (seedHeap)
// and starts every lane from a copy of it, which makes the very first
// segment of every lane prunable
// too, with a threshold that is already near its final value for
// batch-clustered corpora.

// pruneMinRows is the default store-size floor below which the pruned
// walk is not attempted: seeding the heap costs up to k strided gather
// dots plus probeBlocks decoded blocks of them, so on a store with fewer
// rows than that the seed pass alone costs more than the plain walk it
// is meant to undercut (a 100-signature sealed store measured ~4×
// slower pruned than plain). Pruning exists for the
// large-corpus regime; tiny stores take the plain sealed walk, whose
// results are bit-identical anyway. Tests lower db.pruneFloor to keep
// the equivalence sweeps exercising the pruned path on small fixtures.
const pruneMinRows = 512

// pruneRowFloorLocked returns the active store-size floor
// (db.pruneFloor, defaulting to pruneMinRows when unset). Caller holds
// db.mu; queries read the value frozen into their view.
func (db *DB) pruneRowFloorLocked() int {
	if db.pruneFloor != 0 {
		return db.pruneFloor
	}
	return pruneMinRows
}

// pruneEps is the relative slack added to every remainder bound before
// it is compared against the heap root. The bound sums (tail sums of
// per-dim bounds, sums of block bounds) dominate the canonical dot term
// by term in real arithmetic, but each side is a float sum with its own
// rounding, so they can disagree by a few ULPs per term — bounded by
// ~n·2^-53 relative to the summed magnitudes, which is below 1e-10 for
// any realistic support size (even 10^5 terms). 1e-9 of slack keeps
// every filter decision on the safe (looser) side; slack only ever
// admits extra candidates to the gather dot, never drops one.
const pruneEps = 1e-9

// pruneScratch is the per-lane working state of the pruned walk; like
// the accumulator it is pooled per worker, so steady-state queries do
// not allocate.
type pruneScratch struct {
	// slots/bound: query-support positions with postings in this unit
	// (ascending dim order) and their impact bounds |q_d|·dimBound[d].
	slots []int32
	bound []float64
	// ord[:cut] is the essential prefix — positions into slots, heaviest
	// impact first — and heap[:m-cut] the skippable tail, in max-heap
	// order; essentialPrefix fills both.
	ord  []int32
	heap []int32
	// touched lists the unit-local candidates a walk met — pruned or
	// whole (dots) — in first-touch order; stamp/epoch mark them and the
	// seed rows (beginStamps).
	touched []int32
	stamp   []uint32
	epoch   uint32
	// start, lane and lanes are the epoch's unit start row and lane.
	start, lane, lanes int
	// seeds holds the rows offered by the seed passes (ascending),
	// which every later offer loop must exclude. seedsTmp is the merge
	// buffer probeSeed splices its run into.
	seeds    []int32
	seedsTmp []int32
	// ids is the ids-only block decode buffer of the probe and the walk.
	ids [postingBlockSize]int32
}

// heavier orders impact slots by descending bound, ties toward the lower
// slot — a total order, so the essential prefix is deterministic.
func (ps *pruneScratch) heavier(a, b int32) bool {
	x, y := ps.bound[a], ps.bound[b]
	return x > y || (x == y && a < b)
}

// siftDown restores the max-heap property of h below position i.
//
//fmeter:noalloc
func (ps *pruneScratch) siftDown(h []int32, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && ps.heavier(h[c+1], h[c]) {
			c++
		}
		if !ps.heavier(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// essentialPrefix splits the unit's impact slots into the essential
// prefix, which the walk visits heaviest first, and a skippable tail,
// without sorting the tail: slots are popped off a max-heap into ord
// until the mass still in the heap provably cannot displace the heap
// root (canSkip). It returns the prefix length — -1 when not even the
// empty tail, a candidate sharing no dim with the query, is skippable —
// the tail's mass summed once in heap order, and the total mass.
//
// The mass a cut is decided on is total − popped, two float sums and a
// subtraction that can cancel: it may undershoot the exact tail mass by
// a few ULPs of total per slot, far more than the relative (1+pruneEps)
// slack covers once the tail is small. The absolute pruneEps·total term
// — the same budget the survivor filter adds — covers it for any support
// under ~10^6 dims, so the decision mass always dominates the exact
// tail, and the cut is never earlier than the one an exact sort and
// suffix sum would choose (TestEssentialPrefix).
//
//fmeter:noalloc
func (ps *pruneScratch) essentialPrefix(canSkip func(rem float64) bool) (cut int, tail, total float64) {
	h := ps.heap
	for _, b := range ps.bound {
		total += b
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		ps.siftDown(h, i)
	}
	popped := 0.0
	for ; len(h) > 0; cut++ {
		if canSkip((total-popped)*(1+pruneEps) + pruneEps*total) {
			for _, s := range h {
				tail += ps.bound[s]
			}
			ps.heap = h
			return cut, tail, total
		}
		top := h[0]
		ps.ord[cut] = top
		popped += ps.bound[top]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		ps.siftDown(h, 0)
	}
	ps.heap = h
	if !canSkip(0) {
		return -1, 0, total
	}
	return cut, 0, total
}

// beginStamps opens a fresh stamp epoch over the n rows of the walk unit
// starting at row start for lane l of p, with the seed rows inside it
// already stamped and the touched list empty: a stamped row is one some
// pass has already taken care of, so neither the probe nor a walk ever
// lists it. Rows of the other lanes are stamped on their first touch
// and never listed (touch), so opening an epoch costs O(seeds), not
// O(n), whatever the lane count.
func (ps *pruneScratch) beginStamps(start, n int, seeds []int32, l, p int) {
	ps.touched = ps.touched[:0]
	ps.start, ps.lane, ps.lanes = start, l, p
	if cap(ps.stamp) < n {
		ps.stamp = make([]uint32, n)
		ps.epoch = 0
	}
	ps.stamp = ps.stamp[:n]
	ps.epoch++
	if ps.epoch == 0 {
		// Epoch wrap: clear the full capacity so pre-wrap stamps cannot
		// alias the fresh epoch (same discipline as the accumulator).
		clear(ps.stamp[:cap(ps.stamp)])
		ps.epoch = 1
	}
	for _, j := range seeds {
		if l := int(j) - start; l >= 0 && l < n {
			ps.stamp[l] = ps.epoch
		}
	}
}

// otherLanes reports whether every row block bi can hold — from its
// firstID to the next block's of its dimension (whose blocks end at
// dirEnd), or to the unit's end — is another lane's, so a walk skips it.
//
//fmeter:noalloc
func (ps *pruneScratch) otherLanes(bp *blockPostings, bi, dirEnd int32) bool {
	if ps.lanes == 1 {
		return false
	}
	last := bp.n - 1
	if bi+1 < dirEnd {
		last = int(bp.blocks[bi+1].firstID) - 1
	}
	for c := (ps.start + int(bp.blocks[bi].firstID)) / laneChunk; c <= (ps.start+last)/laneChunk; c++ {
		if c%ps.lanes == ps.lane {
			return false
		}
	}
	return true
}

// touch lists unit row id on its first touch in the current epoch if
// it is a row of the epoch's lane.
//
//fmeter:noalloc
func (ps *pruneScratch) touch(id int32) {
	if ps.stamp[id] != ps.epoch {
		ps.stamp[id] = ps.epoch
		if ps.lanes == 1 || (ps.start+int(id))/laneChunk%ps.lanes == ps.lane {
			//fmeter:alloc-ok touched grows to the largest unit once; the scratch pool reuses it across queries
			ps.touched = append(ps.touched, id)
		}
	}
}

// seedHeap fills the heap before the first unit is walked, so the
// pruned walk has a displacement threshold from the start, and returns
// the rows it offered (ascending) for every later offer loop to exclude
// — no candidate is offered twice. Seed choice cannot affect results:
// every seed gets the canonical score and the heap's (score, index)
// total order makes the kept set arrival-independent. The sample is k
// rows (k is at most the store length) at a fixed stride across the
// whole store — real corpora arrive in workload batches, so a spread
// sample usually holds a few same-class neighbors of the query, and it
// depends only on the store length, never on the segment layout —
// sharpened by probeSeed once it has filled the heap. There is one seed
// pass per query, whatever the lane count, and every lane starts from a
// copy of its heap: a lane seeded only from its own rows would keep a
// weak threshold wherever the query's class lies outside it.
func seedHeap(lq *laneQuery, ps *pruneScratch, h *topkHeap) []int32 {
	v, k := lq.v, lq.k
	n := len(v.sigs)
	ps.seeds = ps.seeds[:0]
	for i := 0; i < k; i++ {
		j := i * n / k
		ps.seeds = append(ps.seeds, int32(j))
		h.offer(k, j, v.score(j, lq.qd, lq.cosine, lq.qNorm2))
	}
	probeSeed(lq, ps, h)
	return ps.seeds
}

// probeBlocks bounds how many posting blocks probeSeed decodes.
const probeBlocks = 2

// probeSeed adds a query-adaptive sample to the strided one in
// ps.seeds: k spread draws rarely include near neighbors when the
// query's class is a sliver of the corpus, so the first probeBlocks
// blocks of the single highest-impact posting list across the store's
// units — max |q_d|·dimBound[d], the list a near neighbor most likely
// sits in; for batch-clustered signatures it belongs to the query's own
// class — are decoded and their rows offered, which puts the root near
// its final value before even the largest unit is met.
func probeSeed(lq *laneQuery, ps *pruneScratch, h *topkHeap) {
	v, k := lq.v, lq.k
	idx, val := lq.query.Support(), lq.query.Values()
	var bestSeg viewSegment
	bestDim, best := -1, 0.0
	for i := range v.segs {
		sg := v.unit(i)
		if sg.blocks == nil {
			continue
		}
		bp := sg.blocks
		for s, d := range idx {
			if bp.dir[d] == bp.dir[d+1] {
				continue
			}
			if imp := math.Abs(val[s]) * bp.dimBound[d]; imp > best {
				best, bestSeg, bestDim = imp, sg, int(d)
			}
		}
	}
	if bestSeg.blocks == nil {
		return
	}
	base := len(ps.seeds) // the sorted strided run
	bp := bestSeg.blocks
	ps.beginStamps(bestSeg.start, bp.n, ps.seeds, 0, 1)
	lo, hi := bp.dir[bestDim], min(bp.dir[bestDim]+probeBlocks, bp.dir[bestDim+1])
	for bi := lo; bi < hi; bi++ {
		for _, id := range bp.decodeIDs(&bp.blocks[bi], &ps.ids) {
			if ps.stamp[id] == ps.epoch {
				continue // a strided seed
			}
			j := bestSeg.start + int(id)
			ps.seeds = append(ps.seeds, int32(j))
			h.offer(k, j, v.score(j, lq.qd, lq.cosine, lq.qNorm2))
		}
	}
	if len(ps.seeds) == base {
		return
	}
	// Merge the two sorted runs (strided, probe) so exclusion stays a
	// single ascending cursor; the runs are disjoint by the stamp check
	// above. The old backing array becomes the next merge buffer.
	a, b := ps.seeds[:base], ps.seeds[base:]
	if cap(ps.seedsTmp) < len(ps.seeds) {
		ps.seedsTmp = make([]int32, 0, 2*len(ps.seeds))
	}
	out := ps.seedsTmp[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	ps.seedsTmp = ps.seeds[:0]
	ps.seeds = out
}

// impacts loads the query dims present in unit bp into the scratch —
// slots, their impact bounds |q_d|·dimBound[d], every slot on the heap —
// and returns the unit's block count under them.
func (ps *pruneScratch) impacts(bp *blockPostings, query *vecmath.Sparse) (totalBlk int) {
	idx, val := query.Support(), query.Values()
	ps.slots, ps.bound, ps.heap = ps.slots[:0], ps.bound[:0], ps.heap[:0]
	for s, d := range idx {
		lo, hi := bp.dir[d], bp.dir[d+1]
		if lo == hi {
			continue
		}
		ps.heap = append(ps.heap, int32(len(ps.slots)))
		ps.slots = append(ps.slots, int32(s))
		ps.bound = append(ps.bound, math.Abs(val[s])*bp.dimBound[d])
		totalBlk += int(hi - lo)
	}
	if cap(ps.ord) < len(ps.slots) {
		ps.ord = make([]int32, len(ps.slots))
	}
	ps.ord = ps.ord[:len(ps.slots)]
	return totalBlk
}

// rootSafe reports whether NO candidate of unit bp whose unaccumulated
// dot mass is at most rem can displace the heap root: the dot bound
// becomes a score bound through the norm that maximizes the score, and
// only a strictly-worse bound is conclusive (an equal score could still
// displace through the smaller-gid tie-break). The pruned walk reads the
// root live, but no offer happens until the survivors are scored, after
// every such decision — the threshold is constant while bounds are
// evaluated.
func rootSafe(h *topkHeap, bp *blockPostings, cosine bool, qNorm2, rem float64) bool {
	if cosine {
		return cosineDotScore(rem, qNorm2, bp.minPosNorm2) < h.score[0]
	}
	return euclideanDotScore(rem, qNorm2, bp.minNorm2) > h.score[0]
}

// prunedSegment runs the threshold-pruned walk over one indexed walk
// unit, offering every candidate that could still belong to the top k.
// It reports false — leaving the heap untouched — when no dim can be
// proven skippable or the walk stops paying before it ends; the caller
// then scores lane l's rows of the unit whole. The lane heap ls.heap
// must be full; the seed rows lq.seeds are never offered again. The walk
// decodes the postings of every lane's rows and lists lane l's only.
func prunedSegment(lq *laneQuery, sg viewSegment, ls *laneScratch, l int) bool {
	bp := sg.blocks
	ps, h, k := &ls.prune, &ls.heap, lq.k
	cosine, qNorm2 := lq.cosine, lq.qNorm2
	idx, val := lq.query.Support(), lq.query.Values()

	totalBlk := ps.impacts(bp, lq.query)
	m := len(ps.slots)
	ls.stats.DimsConsidered += int64(m)
	ls.stats.BlocksConsidered += int64(totalBlk)
	canSkip := func(rem float64) bool { return rootSafe(h, bp, cosine, qNorm2, rem) }

	// Essential cutoff: the shortest heaviest-first prefix (the whole
	// support included, covering candidates with no query overlap at all)
	// whose complement's mass cannot displace the root. No such prefix
	// means nothing in this unit is provably skippable, which is known
	// before a slot is popped: canSkip is monotone in the mass, so there
	// is none exactly when not even a candidate sharing no dim with the
	// query is skippable.
	if !canSkip(0) {
		return false
	}
	cut, tail, total := ps.essentialPrefix(canSkip)

	// The ids-only walk over the essential dims, heaviest first: every
	// candidate of a walked block accumulates the block's bound
	// |q_d|·maxAbsW — no weight is gathered — and is listed on first
	// touch. skipped accumulates the bounds of individually skipped
	// blocks: a candidate sits in at most one block per dim, so its mass
	// outside the walked blocks is bounded by the skippable tail's mass
	// plus the skipped-block total. A zero cut covers the whole unit and
	// walks nothing.
	//
	// The walk gives the unit up as soon as it has cost more than scoring
	// the unit whole would, in walked postings: the budget is the cheaper
	// of the dense scan (scanWalkRatio non-zeros to the posting) and the
	// plain walk (the postings under the query's dims); against it go a
	// posting per decoded id and a gather dot per listed candidate — the
	// skippable tail usually sits just under the threshold, so the filter
	// below passes most of what the walk lists, and a walk that lists
	// much of the unit has already lost. The plain walk's postings are
	// counted only as far as a decision needs: dim by dim, until they
	// pass the cost reached so far, which decides exactly as the full
	// count would and spares a class query — whose walk ends far below
	// either budget — reading the block descriptors of every query dim.
	acc := &ls.acc
	acc.Reset(bp.n)
	ps.beginStamps(sg.start, bp.n, lq.seeds, l, lq.p)
	scanCost := float64(bp.nPostings) / scanWalkRatio
	rowCost := float64(bp.nPostings) / float64(bp.n) / scanWalkRatio
	counted, walkAll := 0, int64(0)
	walked, blocksSkipped, skipped := 0, 0, 0.0
	for i := 0; i < cut; i++ {
		s := ps.slots[ps.ord[i]]
		d := idx[s]
		aq := math.Abs(val[s])
		for bi := bp.dir[d]; bi < bp.dir[d+1]; bi++ {
			bd := &bp.blocks[bi]
			bb := aq * bd.maxAbsW
			if bb == 0 || ps.otherLanes(bp, bi, bp.dir[d+1]) {
				blocksSkipped++
			} else if canSkip((tail + skipped + bb) * (1 + pruneEps)) {
				skipped += bb
				blocksSkipped++
			} else {
				bp.accumBlockBound(bb, bd, acc, ps)
				walked += int(bd.count)
			}
		}
		cost := float64(walked) + float64(len(ps.touched))*rowCost
		if cost > scanCost {
			return false
		}
		for float64(walkAll) < cost && counted < m {
			walkAll += bp.dimPostings(idx[ps.slots[counted]])
			counted++
		}
		if cost > float64(walkAll) {
			return false
		}
	}
	for _, o := range ps.heap {
		d := idx[ps.slots[o]]
		blocksSkipped += int(bp.dir[d+1] - bp.dir[d])
	}
	ls.stats.SegmentsPruned++
	for c := laneFirst(sg.start, l, lq.p); c < sg.end; c += lq.p * laneChunk {
		ls.stats.Candidates += int64(min(c+laneChunk, sg.end) - max(c, sg.start))
	}
	ls.stats.DimsSkipped += int64(m - cut)
	ls.stats.BlocksSkipped += int64(blocksSkipped)

	// Filter the touched candidates, then score the survivors. A
	// candidate's dot is at most its accumulated block bounds plus the
	// mass it may hold outside the walked blocks; if even that cannot
	// displace the root (the predicate offer decides with) it is dropped,
	// otherwise it gets the canonical gather dot. The extra
	// pruneEps·total absorbs the float drift between the bound sums and
	// the real-number sums they stand for. Untouched candidates were
	// covered wholesale by the cutoff/block checks.
	rem := (tail+skipped)*(1+pruneEps) + pruneEps*(total+skipped)
	rs, ri := h.score[0], h.idx[0]
	for _, id := range ps.touched {
		j := sg.start + int(id)
		ub := acc.Get(int(id)) + rem
		if cosine {
			if b := cosineDotScore(ub, qNorm2, lq.v.norms[j]); b < rs || (b == rs && j > ri) {
				continue
			}
		} else if b := euclideanDotScore(ub, qNorm2, lq.v.norms[j]); b > rs || (b == rs && j > ri) {
			continue
		}
		ls.stats.CandidatesScored++
		h.offer(k, j, lq.v.score(j, lq.qd, cosine, qNorm2))
		rs, ri = h.score[0], h.idx[0]
	}
	return true
}

// accumBlockBound is the pruned walk's block kernel: it decodes the
// block's ids only and adds the block's bound bb to each candidate,
// listing first touches so the filter visits exactly the candidates the
// walk met (seeds are stamped before the walk and never listed).
//
//fmeter:noalloc
func (bp *blockPostings) accumBlockBound(bb float64, bd *blockDesc, acc *vecmath.Accumulator, ps *pruneScratch) {
	for _, id := range bp.decodeIDs(bd, &ps.ids) {
		acc.Add(id, bb)
		ps.touch(id)
	}
}
