package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/vecmath"
)

// Index is an inverted index over a store's sparse signatures: one
// posting list per dimension, each holding the (local id, weight) pairs
// of the signatures whose support contains that dimension. A TopK query
// then touches only the posting lists in the query's support — with
// ~250-nnz queries over ~3815 dimensions that is a small fraction of the
// stored weight mass, versus the exhaustive scan's merge walk over every
// stored signature.
//
// Posting lists are kept sorted by local id for free: ids are assigned
// in Add order and only ever appended. Because a query's support is
// walked in ascending dimension order, each candidate's dot product
// accumulates its intersection terms in ascending index order — exactly
// the order Sparse.Dot visits them — so indexed dot products are
// bit-identical to the merge-walk dots of the scan path.
//
// Index is a test oracle only: the DB indexes every row range with the
// block-compressed blockPostings built by encodeBlocks, and the
// equivalence tests check those against this flat, obviously-correct
// layout.
type Index struct {
	dim int
	n   int
	// ids[d] / ws[d] are the parallel posting arrays of dimension d:
	// the local ids (ascending) and stored weights of the signatures
	// whose support contains d.
	ids [][]int32
	ws  [][]float64
}

// NewIndex creates an empty inverted index over the given dimension.
func NewIndex(dim int) (*Index, error) {
	if dim < 1 {
		return nil, &ConfigError{Param: "index dimension", Value: dim, Min: 1}
	}
	return &Index{dim: dim, ids: make([][]int32, dim), ws: make([][]float64, dim)}, nil
}

// Dim returns the ambient dimension.
func (ix *Index) Dim() int { return ix.dim }

// Len returns the number of indexed signatures.
func (ix *Index) Len() int { return ix.n }

// Postings returns the posting count of one dimension (test and
// introspection hook).
func (ix *Index) Postings(dim int) int { return len(ix.ids[dim]) }

// Add appends the next signature's weights to the posting lists and
// returns its local id. Like the other pre-validated hot-path ops it
// panics on a dimension mismatch.
func (ix *Index) Add(w *vecmath.Sparse) int32 {
	if w.Dim() != ix.dim {
		panic(fmt.Sprintf("core: index Add dimension mismatch %d vs %d", w.Dim(), ix.dim))
	}
	id := int32(ix.n)
	idx, val := w.Support(), w.Values()
	for k, i := range idx {
		ix.ids[i] = append(ix.ids[i], id)
		ix.ws[i] = append(ix.ws[i], val[k])
	}
	ix.n++
	return id
}

// Dots accumulates the dot product of q against every indexed signature
// into acc: after the call, acc.Get(id) is q·signature[id], an exact
// zero for signatures with no support overlap. The query support is
// walked in ascending dimension order, which is what makes each
// candidate's sum bit-identical to Sparse.Dot (see the type comment).
func (ix *Index) Dots(q *vecmath.Sparse, acc *vecmath.Accumulator) {
	if q.Dim() != ix.dim {
		panic(fmt.Sprintf("core: index Dots dimension mismatch %d vs %d", q.Dim(), ix.dim))
	}
	acc.Reset(ix.n)
	idx, val := q.Support(), q.Values()
	for k, i := range idx {
		if ids := ix.ids[i]; len(ids) > 0 {
			acc.ScatterMulAdd(val[k], ids, ix.ws[i])
		}
	}
}

// postingCount returns the total number of posting entries.
func (ix *Index) postingCount() int64 {
	var n int64
	for d := range ix.ids {
		n += int64(len(ix.ids[d]))
	}
	return n
}

// memBytes returns the flat layout's heap footprint — the baseline the
// compressed form is sized against.
func (ix *Index) memBytes() int64 {
	b := int64(cap(ix.ids))*24 + int64(cap(ix.ws))*24
	for d := range ix.ids {
		b += int64(cap(ix.ids[d]))*4 + int64(cap(ix.ws[d]))*8
	}
	return b
}

// compressIndex is the encoder encodeBlocks replaced, kept verbatim as
// its oracle: it re-encodes a flat index into the block-compressed form
// (rows must be the signatures the index was built from, in local-id
// order), and encodeBlocks over the same rows must produce the same
// bytes — that is what keeps segment files unchanged.
func compressIndex(ix *Index, rows []Signature) *blockPostings {
	if ix.n != len(rows) {
		panic(fmt.Sprintf("core: compressIndex over %d rows for index of %d", len(rows), ix.n))
	}
	bp := &blockPostings{dim: ix.dim, n: ix.n}
	bp.vals = make([][]float64, ix.n)
	sup := make([][]int32, ix.n)
	for j := range rows {
		bp.vals[j] = rows[j].W.Values()
		sup[j] = rows[j].W.Support()
	}
	var total int64
	for d := range ix.ids {
		total += int64(len(ix.ids[d]))
	}
	bp.nPostings = total
	bp.dir = make([]int32, ix.dim+1)
	bp.blocks = make([]blockDesc, 0, int(total/postingBlockSize)+minPostingBlocks(ix))
	bp.blob = make([]byte, 0, int(total)*2)
	// cursor[id] walks signature id's support in step with the ascending
	// dimension sweep: the flat index was appended in exactly that order,
	// so the next posting of id at dimension d sits at support position
	// cursor[id].
	cursor := make([]int32, ix.n)
	var buf [binary.MaxVarintLen64]byte
	for d := 0; d < ix.dim; d++ {
		bp.dir[d] = int32(len(bp.blocks))
		ids, ws := ix.ids[d], ix.ws[d]
		for len(ids) > 0 {
			c := len(ids)
			if c > postingBlockSize {
				c = postingBlockSize
			}
			desc := blockDesc{off: uint32(len(bp.blob)), firstID: ids[0], count: uint16(c)}
			var ordBuf [postingBlockSize]int32
			maxOrd := int32(0)
			for k := 0; k < c; k++ {
				id := ids[k]
				ord := cursor[id]
				cursor[id]++
				if int(ord) >= len(sup[id]) || sup[id][ord] != int32(d) {
					panic(fmt.Sprintf("core: posting (dim %d, id %d) disagrees with signature support at ordinal %d", d, id, ord))
				}
				ordBuf[k] = ord
				if ord > maxOrd {
					maxOrd = ord
				}
				if a := math.Abs(ws[k]); a > desc.maxAbsW {
					desc.maxAbsW = a
				}
			}
			desc.ordW = ordWidth(maxOrd)
			prev := ids[0]
			for k := 1; k < c; k++ {
				m := binary.PutUvarint(buf[:], uint64(ids[k]-prev)-1)
				bp.blob = append(bp.blob, buf[:m]...)
				prev = ids[k]
			}
			desc.idLen = uint16(len(bp.blob) - int(desc.off))
			for k := 0; k < c; k++ {
				bp.blob = appendOrd(bp.blob, uint32(ordBuf[k]), desc.ordW)
			}
			bp.blocks = append(bp.blocks, desc)
			ids, ws = ids[c:], ws[c:]
		}
	}
	bp.dir[ix.dim] = int32(len(bp.blocks))
	bp.buildDimBound()
	bp.setNormBounds(rows)
	return bp
}

// minPostingBlocks estimates one block per non-empty dimension (the
// partial-block tail every dimension may carry).
func minPostingBlocks(ix *Index) int {
	n := 0
	for d := range ix.ids {
		if len(ix.ids[d]) > 0 {
			n++
		}
	}
	return n
}

// appendOrd appends one ordinal at the block's fixed width (little
// endian).
func appendOrd(blob []byte, ord uint32, w uint8) []byte {
	switch w {
	case 1:
		return append(blob, byte(ord))
	case 2:
		return append(blob, byte(ord), byte(ord>>8))
	default:
		return append(blob, byte(ord), byte(ord>>8), byte(ord>>16), byte(ord>>24))
	}
}
