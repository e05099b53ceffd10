package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"unsafe"

	"repro/internal/parallel"
	"repro/internal/vecmath"
)

// Posting storage has one form: the immutable block-compressed
// *blockPostings. A full segment holds one over its whole record range;
// the active segment holds one per completed run of activeRunLen rows
// (segment.go), so the ingest tail is indexed too and only the last
// < activeRunLen rows are ever scored row by row. Every
// blockPostings is produced by encodeBlocks straight from the signature
// rows, and feeds the
// vecmath.Accumulator kernel the signatures' own weights in ascending
// local-id order — scores are identical whichever structure covers a row.

// postingBlockSize is the compressed-block capacity: posting lists are
// cut into runs of at most this many entries, each decoded in one shot
// into the pooled scratch. 128 entries keep the decode loop and the
// scratch (one cache-friendly id/weight pair array) small while
// amortizing the per-block descriptor over enough postings.
const postingBlockSize = 128

// postingScratch is a stack-allocatable decode buffer for one block:
// local ids reconstructed from the delta-varints with the gathered
// weights alongside. The query path accumulates straight out of the
// byte streams (accumBlock); the scratch form serves blocks whose
// ordinals are wider than a byte (accumBlockWide), and tests.
type postingScratch struct {
	ids [postingBlockSize]int32
	ws  [postingBlockSize]float64
}

// blockDesc is one compressed block's metadata: where its byte stream
// starts, the gap-stream length (so the ordinal stream can be read in
// step with the gaps), the fixed ordinal width, the raw first id (the
// delta base), the entry count, and the largest absolute stored weight
// — the per-block bound that lets the accumulation loop skip a block
// exactly when it cannot contribute (maxAbsW == 0 means every term it
// would add is an exact zero; dims absent from the query skip all their
// blocks via the directory without touching a descriptor at all).
type blockDesc struct {
	maxAbsW float64
	off     uint32
	firstID int32
	idLen   uint16
	count   uint16
	// ordW is the bytes per ordinal (1, 2, or 4 — the block's largest
	// ordinal decides). Fixed-width keeps the hot decode branchless: one
	// byte already spans the 0..255 ordinals real signatures have.
	ordW uint8
}

// blockDescSize is the in-memory descriptor footprint (for memBytes).
const blockDescSize = int64(unsafe.Sizeof(blockDesc{}))

// blockPostings is the inverted index over one contiguous row range: per
// dimension, the ascending local ids of the rows whose support holds it,
// encoded so an id costs ~1 byte and weights are not duplicated at all.
//
// Layout: dimension d's blocks are blocks[dir[d]:dir[d+1]], each
// covering up to postingBlockSize postings in ascending local-id order.
// A block's byte stream in blob holds count-1 uvarint id gaps (gap-1,
// since ids are strictly ascending) followed by count uvarint weight
// ordinals. The ordinal is the posting's position inside its
// signature's sparse support, so the stored weight is recovered as
// vals[id][ordinal] — the very float64 the signature itself holds, not
// a copy. Compression therefore touches ids only: decode yields each
// row's own weights in ascending-id order, and indexed scores are
// bit-identical to the scan.
//
// A blockPostings is immutable after construction; concurrent dots
// calls are safe (each worker owns its scratch and accumulator).
type blockPostings struct {
	dim       int
	n         int   // signatures covered (the accumulator size)
	nPostings int64 // total posting entries
	dir       []int32
	blocks    []blockDesc
	blob      []byte
	// vals[id] aliases signature id's sparse value array (no copy; the
	// one weight store is the canonical signature data).
	vals [][]float64
	// dimBound[d] is max over dimension d's blocks of maxAbsW — the
	// directory-level bound the threshold-pruned walk (prune.go) uses to
	// rank query dims by worst-case contribution |q_d|·dimBound[d]
	// without touching a descriptor. Zero for dims with no postings.
	dimBound []float64
	// minNorm2 / minPosNorm2 are the smallest (respectively smallest
	// positive) cached squared signature norm in the segment: the
	// newcomer-score bounds of the pruned walk. A dot-product upper bound
	// turns into a metric-score bound through the norm that maximizes the
	// score — the smallest norm for the Euclidean distance, the smallest
	// positive norm for the cosine (zero-norm signatures score an exact 0,
	// which any non-negative dot bound already dominates). Both are +Inf
	// when no signature qualifies.
	minNorm2    float64
	minPosNorm2 float64
}

// buildDimBound derives the directory-level bounds from the block
// descriptors once their maxAbsW are final.
func (bp *blockPostings) buildDimBound() {
	if cap(bp.dimBound) < bp.dim {
		bp.dimBound = make([]float64, bp.dim)
	}
	bp.dimBound = bp.dimBound[:bp.dim]
	for d := 0; d < bp.dim; d++ {
		m := 0.0
		for bi := bp.dir[d]; bi < bp.dir[d+1]; bi++ {
			if w := bp.blocks[bi].maxAbsW; w > m {
				m = w
			}
		}
		bp.dimBound[d] = m
	}
}

// setNormBounds derives the newcomer-score norm bounds from the covered
// signatures' cached squared norms.
func (bp *blockPostings) setNormBounds(rows []Signature) {
	bp.minNorm2, bp.minPosNorm2 = math.Inf(1), math.Inf(1)
	for j := range rows {
		n2 := rows[j].W.Norm2()
		if n2 < bp.minNorm2 {
			bp.minNorm2 = n2
		}
		if n2 > 0 && n2 < bp.minPosNorm2 {
			bp.minPosNorm2 = n2
		}
	}
}

// encodeCount counts encodeBlocks calls process-wide; tests assert that
// writers and loads encode nothing and each pending run is built once.
var encodeCount atomic.Int64

// encodeMinRange is the fewest postings encodeBlocks hands one core: a
// smaller range costs more to fan out than it saves.
const encodeMinRange = 1 << 13

// encodeBlocks builds the block-compressed posting lists of rows (local
// id = position in rows) for a posting run's build (postingRun.build).
// The rows' value arrays become the weight store. A counting
// transposition turns the row-major supports into one dimension-major id
// array (count per dimension, prefix-sum, scatter), which is then cut
// into blocks, over contiguous dimension ranges of about equal posting
// count, one per core (encodeRange): the range streams concatenate,
// offsets rebased, into the bytes one sequential pass writes. The output
// depends only on the rows, so a segment sealed after any history of
// runs is byte-identical to one sealed in one step.
func encodeBlocks(dim int, rows []Signature) *blockPostings {
	encodeCount.Add(1)
	n := len(rows)
	bp := &blockPostings{dim: dim, n: n, vals: make([][]float64, n), dir: make([]int32, dim+1)}
	// pos[d] counts dimension d's postings, then walks from first[d], the
	// start of its slice of ids, to first[d+1] as the scatter fills it.
	pos, first := make([]int32, dim), make([]int32, dim+1)
	for j := range rows {
		bp.vals[j] = rows[j].W.Values()
		for _, d := range rows[j].W.Support() {
			pos[d]++
		}
	}
	total, nBlocks := int32(0), int32(0)
	for d, c := range pos {
		bp.dir[d] = nBlocks
		nBlocks += (c + postingBlockSize - 1) / postingBlockSize
		pos[d], first[d] = total, total
		total += c
	}
	bp.dir[dim], first[dim] = nBlocks, total
	bp.nPostings = int64(total)
	bp.blocks = make([]blockDesc, nBlocks)
	e := encoder{bp: bp, rows: rows, pos: pos, first: first, ids: make([]int32, total)}
	ranges := max(1, min(parallel.Workers(0), int(total)/encodeMinRange))
	cuts := make([]int, ranges+1)
	for r, d := 1, 0; r < ranges; r++ {
		for d < dim && int64(first[d])*int64(ranges) < int64(total)*int64(r) {
			d++
		}
		cuts[r] = d
	}
	cuts[ranges] = dim
	blobs := make([][]byte, ranges)
	_ = parallel.For(0, ranges, func(r int) error {
		blobs[r] = e.encodeRange(cuts[r], cuts[r+1])
		return nil
	})
	size := 0
	for _, b := range blobs {
		size += len(b)
	}
	// The kept blob is an exact-size copy.
	bp.blob = make([]byte, 0, size)
	for r, b := range blobs {
		base := uint32(len(bp.blob))
		for bi := bp.dir[cuts[r]]; bi < bp.dir[cuts[r+1]]; bi++ {
			bp.blocks[bi].off += base
		}
		bp.blob = append(bp.blob, b...)
	}
	bp.buildDimBound()
	bp.setNormBounds(rows)
	return bp
}

// encoder is one encodeBlocks call's shared state, which its ranges
// fill at disjoint positions.
type encoder struct {
	bp         *blockPostings
	rows       []Signature
	pos, first []int32
	ids        []int32
}

// encodeRange scatters the postings of dimensions [dlo, dhi) and writes
// their blocks, returning the range's stream bytes with the descriptors'
// offsets relative to its start. Supports are dimension-sorted, so a
// row's postings in the range are one run of its support: the scatter
// finds where it starts, and because the writes ascend dimensions, a
// per-row cursor from there yields each posting's ordinal. The scatter
// is the one pass that meets the weights in memory order, so it also
// folds each block's max |weight|: the posting landing in slot p belongs
// to its dimension's block (p-first[d])/blockSize.
func (e *encoder) encodeRange(dlo, dhi int) []byte {
	bp, pos, first, ids := e.bp, e.pos, e.first, e.ids
	cursor := make([]int32, len(e.rows)) // next unconsumed support position per row
	for j := range e.rows {
		sup, val := e.rows[j].W.Support(), bp.vals[j]
		k, _ := slices.BinarySearch(sup, int32(dlo))
		cursor[j] = int32(k)
		for ; k < len(sup) && int(sup[k]) < dhi; k++ {
			d := sup[k]
			p := pos[d]
			ids[p] = int32(j)
			pos[d] = p + 1
			bd := &bp.blocks[bp.dir[d]+(p-first[d])/postingBlockSize]
			if a := math.Abs(val[k]); a > bd.maxAbsW {
				bd.maxAbsW = a
			}
		}
	}
	// Streams are written by index into the scratch blob[:w]; a block
	// needs at most blockMax bytes, kept free ahead of w (two bytes per
	// posting is the common case, so the initial size rarely grows).
	const blockMax = postingBlockSize * (binary.MaxVarintLen32 + 4)
	lo := first[dlo]
	blob, w := make([]byte, int(first[dhi]-lo)*2+blockMax), 0
	bi := bp.dir[dlo]
	for d := dlo; d < dhi; d++ {
		for hi := first[d+1]; lo < hi; bi++ {
			c := min(hi-lo, postingBlockSize)
			list := ids[lo:][:c]
			lo += c
			if len(blob)-w < blockMax {
				blob = append(blob, make([]byte, len(blob))...)
			}
			desc := &bp.blocks[bi]
			desc.off, desc.firstID, desc.count = uint32(w), list[0], uint16(c)
			var ords [postingBlockSize]int32
			maxOrd := int32(0)
			for k, id := range list {
				o := cursor[id]
				cursor[id] = o + 1
				ords[k] = o
				maxOrd = max(maxOrd, o)
			}
			desc.ordW = ordWidth(maxOrd)
			for k := 1; k < int(c); k++ {
				if g := uint32(list[k]-list[k-1]) - 1; g < 0x80 {
					blob[w] = byte(g)
					w++
				} else {
					w += binary.PutUvarint(blob[w:], uint64(g))
				}
			}
			desc.idLen = uint16(w - int(desc.off))
			for _, o := range ords[:c] {
				switch desc.ordW {
				case 1:
					blob[w] = byte(o)
				case 2:
					binary.LittleEndian.PutUint16(blob[w:], uint16(o))
				default:
					binary.LittleEndian.PutUint32(blob[w:], uint32(o))
				}
				w += int(desc.ordW)
			}
		}
	}
	return blob[:w]
}

// ordWidth returns the fixed ordinal byte width covering maxOrd.
func ordWidth(maxOrd int32) uint8 {
	switch {
	case maxOrd < 1<<8:
		return 1
	case maxOrd < 1<<16:
		return 2
	default:
		return 4
	}
}

// dots accumulates q·signature for every covered signature into acc
// (acc.Get(id) is an exact zero for signatures with no support overlap)
// and lists each row on its first touch in ps.touched, skipping the rows
// already stamped — the caller opens the epoch (ps.beginStamps) with the
// seeds in it. The query support is walked in ascending dimension order
// and every block decodes into ascending local ids, so each candidate
// accumulates its intersection terms in exactly the order Sparse.Dot
// visits them — bit-identical dot products. Dimensions absent from a
// query never touch a descriptor (dir[d] == dir[d+1] for dims with no
// postings; dims not in the support are never looked up), which is the
// exact block-skip: skipped blocks contribute nothing by construction,
// not by approximation.
func (bp *blockPostings) dots(q *vecmath.Sparse, acc *vecmath.Accumulator, ps *pruneScratch) {
	if q.Dim() != bp.dim {
		panic(fmt.Sprintf("core: postings dots dimension mismatch %d vs %d", q.Dim(), bp.dim))
	}
	acc.Reset(bp.n)
	sums := acc.Sums()
	idx, val := q.Support(), q.Values()
	for k, d := range idx {
		lo, hi := bp.dir[d], bp.dir[d+1]
		if lo == hi {
			continue
		}
		qv := val[k]
		for bi := lo; bi < hi; bi++ {
			bd := &bp.blocks[bi]
			if bd.maxAbsW == 0 || ps.otherLanes(bp, bi, hi) {
				// Every weight in the block is zero: its terms are exact
				// zeros, so skipping preserves bit-identity. (Signature
				// supports exclude zeros, so this only guards degenerate
				// hand-built stores.) Or every row it holds is another
				// lane's, which this walk never lists.
				continue
			}
			if bd.ordW == 1 {
				bp.accumBlock(qv, bd, sums, ps)
			} else {
				bp.accumBlockWide(qv, bd, acc, ps)
			}
		}
	}
}

// accumBlock is the fused per-block kernel of the compressed path, for
// one-byte ordinals (every real signature: supports up to 256 entries):
// the gap stream and the ordinal stream are read in step (idLen says
// where the ordinals start), each posting's weight is gathered from its
// signature's value array, and the product lands in the sum array
// immediately — no intermediate materialization. The ids decode in
// ascending order and the products are qv times the very float64s the
// signatures hold, so the accumulated sums are bit-identical to the
// merge-walk dot. Every row is listed on its first touch.
func (bp *blockPostings) accumBlock(qv float64, bd *blockDesc, sums []float64, ps *pruneScratch) {
	blob := bp.blob
	vals := bp.vals
	gp := int(bd.off)
	op := gp + int(bd.idLen)
	id := bd.firstID
	sums[id] += qv * vals[id][blob[op]]
	ps.touch(id)
	op++
	for k := 1; k < int(bd.count); k++ {
		b := blob[gp]
		gp++
		gap := uint32(b)
		if b >= 0x80 {
			gap &= 0x7f
			for shift := 7; ; shift += 7 {
				b = blob[gp]
				gp++
				gap |= uint32(b&0x7f) << shift
				if b < 0x80 {
					break
				}
			}
		}
		id += int32(gap) + 1
		sums[id] += qv * vals[id][blob[op]]
		ps.touch(id)
		op++
	}
}

// accumBlockWide is accumBlock for blocks whose ordinals are wider than
// a byte: they decode through the scratch, in the same order, into the
// same sums.
func (bp *blockPostings) accumBlockWide(qv float64, bd *blockDesc, acc *vecmath.Accumulator, ps *pruneScratch) {
	var sc postingScratch
	ids, ws := bp.decodeBlock(bd, &sc)
	acc.ScatterMulAdd(qv, ids, ws)
	for _, id := range ids {
		ps.touch(id)
	}
}

// decodeIDs expands one block's ascending local ids from the gap
// varints into buf; the ordinal stream is not read.
//
//fmeter:noalloc
func (bp *blockPostings) decodeIDs(bd *blockDesc, buf *[postingBlockSize]int32) []int32 {
	ids := buf[:bd.count]
	blob := bp.blob
	pos := int(bd.off)
	id := bd.firstID
	ids[0] = id
	for k := 1; k < len(ids); k++ {
		b := blob[pos]
		pos++
		gap := uint32(b)
		if b >= 0x80 {
			gap &= 0x7f
			for shift := 7; ; shift += 7 {
				b = blob[pos]
				pos++
				gap |= uint32(b&0x7f) << shift
				if b < 0x80 {
					break
				}
			}
		}
		id += int32(gap) + 1
		ids[k] = id
	}
	return ids
}

// decodeBlock expands one block into the scratch: ids from the gap
// varints, weights gathered through the ordinal stream from the
// signatures' own value arrays.
func (bp *blockPostings) decodeBlock(bd *blockDesc, sc *postingScratch) ([]int32, []float64) {
	ids := bp.decodeIDs(bd, &sc.ids)
	ws := sc.ws[:len(ids)]
	blob := bp.blob
	pos := int(bd.off) + int(bd.idLen)
	for k, id := range ids {
		var ord uint32
		switch bd.ordW {
		case 1:
			ord = uint32(blob[pos])
		case 2:
			ord = uint32(blob[pos]) | uint32(blob[pos+1])<<8
		default:
			ord = uint32(blob[pos]) | uint32(blob[pos+1])<<8 | uint32(blob[pos+2])<<16 | uint32(blob[pos+3])<<24
		}
		pos += int(bd.ordW)
		ws[k] = bp.vals[id][ord]
	}
	return ids, ws
}

// dimPostings returns dimension d's exact posting count.
func (bp *blockPostings) dimPostings(d int32) int64 {
	var n int64
	for bi := bp.dir[d]; bi < bp.dir[d+1]; bi++ {
		n += int64(bp.blocks[bi].count)
	}
	return n
}

// scanWalkRatio is the measured exchange rate between the two ways of
// scoring a unit whole: one posting walked by dots (a varint, two
// dependent loads for the weight, a scattered add) costs about as much
// as this many row non-zeros scanned by the gather dot (sequential
// loads, one gather from a 30 KB vector). BenchmarkTopKFlat on 24 000
// peaked 200-nnz signatures ties the arms where a pool-only query walks
// between 1/4 and 1/7 of a unit's non-zeros — nearer 1/4 on an idle
// core, nearer 1/7 with every core in the walk's scattered loads — and
// the constant sits inside that band, where the arms are within a third
// of each other. Away from it the choice is worth a lot and comes out
// the same at any value in the band: a flat query (3/4 of the
// non-zeros) scans in a third of the walk's time, a 12-nnz query over
// 12-nnz rows (1/160) walks in a quarter of the scan's.
const scanWalkRatio = 6

// scanBeatsWalk reports whether scoring every covered row with the
// gather dot is cheaper than accumulating q down its posting lists: the
// exact posting count under q's dims against the unit's non-zeros.
func (bp *blockPostings) scanBeatsWalk(q *vecmath.Sparse) bool {
	var walk int64
	for _, d := range q.Support() {
		if walk += bp.dimPostings(d); walk*scanWalkRatio > bp.nPostings {
			return true
		}
	}
	return false
}

// memBytes returns the resident heap footprint (backing-array
// capacities included): blob + descriptors + directory + the
// per-signature value-slice table (24 bytes each — the headers only;
// the values themselves belong to the signatures).
func (bp *blockPostings) memBytes() int64 {
	return int64(unsafe.Sizeof(*bp)) +
		int64(cap(bp.blob)) +
		int64(cap(bp.blocks))*blockDescSize +
		int64(cap(bp.dir))*4 +
		int64(cap(bp.dimBound))*8 +
		int64(cap(bp.vals))*24
}
