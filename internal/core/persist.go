package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/vecmath"
)

// documentJSON is the wire form of a Document. Counts keys are function
// indices; encoding/json renders integer-keyed maps with string keys.
type documentJSON struct {
	ID         string         `json:"id"`
	Label      string         `json:"label,omitempty"`
	DurationNS int64          `json:"duration_ns"`
	Counts     map[int]uint64 `json:"counts"`
}

// WriteDocuments streams documents to w as JSON Lines, the logging
// daemon's on-disk format.
func WriteDocuments(w io.Writer, docs []*Document) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, d := range docs {
		if d == nil {
			return fmt.Errorf("core: nil document in batch")
		}
		if err := enc.Encode(documentJSON{
			ID:         d.ID,
			Label:      d.Label,
			DurationNS: d.Duration.Nanoseconds(),
			Counts:     d.Counts,
		}); err != nil {
			return fmt.Errorf("core: encoding document %s: %w", d.ID, err)
		}
	}
	return bw.Flush()
}

// ReadDocuments parses a JSON Lines stream produced by WriteDocuments.
// Records are decoded with a streaming json.Decoder, so a single huge
// document (a long monitoring run touching everything) is bounded only
// by memory — not by a scanner token cap.
func ReadDocuments(r io.Reader) ([]*Document, error) {
	var docs []*Document
	dec := json.NewDecoder(r)
	for rec := 1; ; rec++ {
		var dj documentJSON
		if err := dec.Decode(&dj); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("core: document record %d: %w", rec, err)
		}
		doc := &Document{
			ID:       dj.ID,
			Label:    dj.Label,
			Duration: time.Duration(dj.DurationNS),
			Counts:   dj.Counts,
		}
		if doc.Counts == nil {
			doc.Counts = make(map[int]uint64)
		}
		docs = append(docs, doc)
	}
	return docs, nil
}

// signatureJSON is the wire form of a Signature. Vectors are stored
// sparsely: most tf-idf weights are zero.
type signatureJSON struct {
	DocID   string          `json:"doc_id"`
	Label   string          `json:"label,omitempty"`
	Dim     int             `json:"dim"`
	Weights map[int]float64 `json:"weights"`
}

// WriteSignatures streams signatures to w as JSON Lines. The weights map
// is the sparse support verbatim — no dense materialization.
func WriteSignatures(w io.Writer, sigs []Signature) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range sigs {
		if s.W == nil {
			return fmt.Errorf("core: signature %s has no weight vector", s.DocID)
		}
		weights := make(map[int]float64, s.W.NNZ())
		s.W.ForEach(func(i int, x float64) { weights[i] = x })
		if err := enc.Encode(signatureJSON{
			DocID: s.DocID, Label: s.Label, Dim: s.Dim(), Weights: weights,
		}); err != nil {
			return fmt.Errorf("core: encoding signature %s: %w", s.DocID, err)
		}
	}
	return bw.Flush()
}

// ReadSignatures parses a JSON Lines stream produced by WriteSignatures.
// Like ReadDocuments it streams through json.Decoder, so record size is
// bounded only by memory.
func ReadSignatures(r io.Reader) ([]Signature, error) {
	var sigs []Signature
	dec := json.NewDecoder(r)
	for rec := 1; ; rec++ {
		var sj signatureJSON
		if err := dec.Decode(&sj); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("core: signature record %d: %w", rec, err)
		}
		if sj.Dim < 1 || sj.Dim > maxSnapshotDim {
			return nil, fmt.Errorf("core: signature record %d: dimension %d outside [1, %d]", rec, sj.Dim, maxSnapshotDim)
		}
		// Validates the index range, sorts the support, drops explicit zeros.
		w, err := vecmath.MapToSparse(sj.Weights, sj.Dim)
		if err != nil {
			return nil, fmt.Errorf("core: signature record %d: %w", rec, err)
		}
		sigs = append(sigs, Signature{DocID: sj.DocID, Label: sj.Label, W: w})
	}
	return sigs, nil
}

// Bounds every reader of stored or wire data enforces before it
// allocates, and every writer enforces before it emits, so whatever
// serializes is always loadable.
const (
	// maxSnapshotString bounds docID/label lengths when reading, so a
	// corrupt length prefix cannot trigger a giant allocation.
	maxSnapshotString = 1 << 20
	// maxSnapshotDim bounds a stored dimension for the same reason:
	// per-record buffers scale with dim (and a model allocates a dense
	// idf vector), so a corrupt header must fail instead of attempting a
	// multi-gigabyte allocation. 1<<24 is ~4000x the paper's symbol table.
	maxSnapshotDim = 1 << 24
)

// writeSigRecordV2 appends one signature record in the v2.1 segment
// encoding: docID and label (both uvarint-length-prefixed), then a
// uvarint nnz, the support indices as uvarint gaps (each index minus its
// predecessor minus one, with an implicit predecessor of -1 — strictly
// ascending indices make every gap non-negative and mostly one byte),
// then the weights as raw little-endian float64s, bit for bit.
func writeSigRecordV2(bw *bufio.Writer, s Signature) error {
	if len(s.DocID) > maxSnapshotString || len(s.Label) > maxSnapshotString {
		return fmt.Errorf("doc-id/label exceeds snapshot string bound %d", maxSnapshotString)
	}
	var scratch [binary.MaxVarintLen64]byte
	writeStr := func(str string) error {
		n := binary.PutUvarint(scratch[:], uint64(len(str)))
		if _, err := bw.Write(scratch[:n]); err != nil {
			return err
		}
		_, err := bw.WriteString(str)
		return err
	}
	if err := writeStr(s.DocID); err != nil {
		return err
	}
	if err := writeStr(s.Label); err != nil {
		return err
	}
	idx, val := s.W.Support(), s.W.Values()
	n := binary.PutUvarint(scratch[:], uint64(len(idx)))
	if _, err := bw.Write(scratch[:n]); err != nil {
		return err
	}
	prev := int32(-1)
	for _, i := range idx {
		n := binary.PutUvarint(scratch[:], uint64(i-prev)-1)
		if _, err := bw.Write(scratch[:n]); err != nil {
			return err
		}
		prev = i
	}
	le := binary.LittleEndian
	var rec [8]byte
	for _, x := range val {
		le.PutUint64(rec[:], math.Float64bits(x))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return nil
}

// sigArena hands out idx/val backing in large pointer-free chunks so a
// segment decode does a handful of allocations instead of two zeroed
// makes per record (~4000 on a bench-sized segment — the malloc path
// was costing more than the decode itself). Chunks retired by take stay
// alive through the slices carved from them; nothing is freed early.
type sigArena struct {
	idx []int32
	val []float64
}

func (a *sigArena) take(n int) ([]int32, []float64) {
	if n > len(a.idx) {
		c := n
		if c < 1<<16 {
			c = 1 << 16
		}
		a.idx = make([]int32, c)
		a.val = make([]float64, c)
	}
	idx, val := a.idx[:n:n], a.val[:n:n]
	a.idx, a.val = a.idx[n:], a.val[n:]
	return idx, val
}

// readSigRecordV2 parses one signature record written by
// writeSigRecordV2, decoding straight off the verified segment body via
// the byte cursor (segment bodies are always fully in memory, and the
// per-byte reader indirection used to dominate cold opens). The decoded
// strings and weight arrays are copies: a signature must not keep the
// whole file body it was decoded from alive. Truncation surfaces as
// io.ErrUnexpectedEOF.
func readSigRecordV2(c *byteCursor, dim int, ar *sigArena) (Signature, error) {
	docID, err := readCursorString(c)
	if err != nil {
		return Signature{}, err
	}
	label, err := readCursorString(c)
	if err != nil {
		return Signature{}, err
	}
	nnz, err := c.uvarint()
	if err != nil {
		return Signature{}, err
	}
	if nnz > uint64(dim) {
		return Signature{}, fmt.Errorf("nnz %d exceeds dimension %d", nnz, dim)
	}
	idx, val := ar.take(int(nnz))
	// The gap loop runs once per stored non-zero — half a million times
	// on a bench-sized segment — so decode off locals with a single-byte
	// fast path (gaps in tf-idf supports are overwhelmingly < 128)
	// instead of paying a method call and re-slice per varint.
	b, pos := c.b, c.pos
	prev := int64(-1)
	for k := range idx {
		var gap uint64
		if pos < len(b) && b[pos] < 0x80 {
			gap = uint64(b[pos])
			pos++
		} else {
			v, m := binary.Uvarint(b[pos:])
			if m <= 0 {
				if m == 0 {
					return Signature{}, io.ErrUnexpectedEOF
				}
				return Signature{}, fmt.Errorf("varint overflows a 64-bit integer")
			}
			gap, pos = v, pos+m
		}
		// Bound the gap before accumulating: a 64-bit uvarint must not
		// wrap the index sum (dim is capped well below 2^31).
		if gap >= uint64(dim) {
			return Signature{}, fmt.Errorf("support index gap %d at position %d outside dimension %d", gap, k, dim)
		}
		i := prev + 1 + int64(gap)
		if i >= int64(dim) {
			return Signature{}, fmt.Errorf("support index %d at position %d outside dimension %d", i, k, dim)
		}
		idx[k] = int32(i)
		prev = i
	}
	c.pos = pos
	raw, err := c.take(int(nnz) * 8)
	if err != nil {
		return Signature{}, err
	}
	le := binary.LittleEndian
	norm2 := 0.0
	for k := range val {
		v := math.Float64frombits(le.Uint64(raw[k*8:]))
		if v == 0 {
			return Signature{}, fmt.Errorf("explicit zero at sparse index %d", idx[k])
		}
		val[k] = v
		norm2 += v * v
	}
	if !finite(norm2) {
		return Signature{}, errNonFinite("signature", "signature "+docID, norm2)
	}
	// The loops above enforced every SparseFromSorted invariant (strict
	// ascent, range, no zeros) and accumulated the norm in index order,
	// so the trusted constructor is exact — and skips a third full pass
	// over the support.
	w := vecmath.SparseFromSortedTrusted(dim, idx, val, norm2)
	return Signature{DocID: docID, Label: label, W: w}, nil
}

// readCursorString reads one uvarint-length-prefixed string from the
// cursor, bounding the length so a corrupt prefix cannot trigger a giant
// allocation. The returned string is a copy, so it does not keep the
// cursor's body alive.
func readCursorString(c *byteCursor) (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxSnapshotString {
		return "", fmt.Errorf("string length %d exceeds limit", n)
	}
	b, err := c.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}
