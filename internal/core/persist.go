package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
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

// appendSigHead appends the part of a signature record every snapshot
// body shares: docID and label (both uvarint-length-prefixed), a uvarint
// nnz, and the support indices as uvarint gaps (each index minus its
// predecessor minus one, with an implicit predecessor of -1 — strictly
// ascending indices make every gap non-negative and mostly one byte).
func appendSigHead(b []byte, s Signature) ([]byte, error) {
	if len(s.DocID) > maxSnapshotString || len(s.Label) > maxSnapshotString {
		return b, fmt.Errorf("doc-id/label exceeds snapshot string bound %d", maxSnapshotString)
	}
	b = binary.AppendUvarint(b, uint64(len(s.DocID)))
	b = append(b, s.DocID...)
	b = binary.AppendUvarint(b, uint64(len(s.Label)))
	b = append(b, s.Label...)
	idx := s.W.Support()
	b = binary.AppendUvarint(b, uint64(len(idx)))
	prev := int32(-1)
	for _, i := range idx {
		b = binary.AppendUvarint(b, uint64(i-prev)-1)
		prev = i
	}
	return b, nil
}

// The weight encodings a record of a segFlagWeights file names in the
// byte after its gaps: k in 1..maxWeightBits packs the weights as
// (52 + k)-bit fields, weightsRaw stores them as raw float64s.
const (
	maxWeightBits = 5
	weightsRaw    = 0xFF
	mantBits      = 52
	mantMask      = 1<<mantBits - 1
	// maxNormalExp is the largest biased exponent of a finite float64.
	maxNormalExp = 2046
)

// writeSigRecord appends one signature record of a segFlagWeights body
// to bw: the shared head (appendSigHead), then the weights, bit for bit,
// under the encoding chooseWeightCode picks.
//
// A packed record (k in 1..5) holds one byte k, a uvarint e0 — the
// largest biased exponent among its positive normal weights — and a
// little-endian bitstream of (52 + k)-bit fields zero-padded to a byte,
// one field per weight in support order: the weight's 52 mantissa bits,
// with d = e0 − e above them, e the weight's biased exponent. A weight
// packs when it is positive and normal and d < 2^k − 1; any other (a
// negative, subnormal, NaN or ±Inf weight, or one more than 2^k − 2
// binades below e0, which the writer's k never leaves) takes the escape
// code d = 2^k − 1, and the escaped weights follow the bitstream as raw
// little-endian float64s, in order. A raw record (weightsRaw) holds the
// byte 0xFF and the weights as raw float64s, as flags-0 files store them.
func writeSigRecord(bw *bufio.Writer, s Signature) error {
	b, err := appendSigHead(bw.AvailableBuffer(), s)
	if err != nil {
		return err
	}
	_, err = bw.Write(appendWeights(b, s.W.Values()))
	return err
}

// packedExpOffset reports x's exponent offset d = e0 − e and whether x
// is positive and normal, the weights a packed field can hold.
func packedExpOffset(x float64, e0 uint64) (uint64, bool) {
	e := math.Float64bits(x) >> mantBits // the sign bit lands above the exponent
	return e0 - e, e-1 < maxNormalExp
}

// chooseWeightCode picks a record's weight encoding: the narrowest k in
// 1..maxWeightBits whose escape code lies above the spread of the
// record's positive normal weights — the largest biased exponent e0
// minus the smallest — so every one of them packs, and weightsRaw when
// that spread needs more than maxWeightBits or the escaped weights (the
// negative, subnormal, NaN and ±Inf ones) make the packing no shorter
// than raw float64s. It returns e0 (0 for weightsRaw) and the number of
// weights the packing escapes.
func chooseWeightCode(val []float64) (k int, e0 uint64, escaped int) {
	emin := uint64(maxNormalExp)
	for _, x := range val {
		if e := math.Float64bits(x) >> mantBits; e-1 < maxNormalExp {
			e0, emin = max(e0, e), min(emin, e)
		} else {
			escaped++
		}
	}
	if e0 == 0 {
		return weightsRaw, 0, 0
	}
	k = bits.Len64(e0 - emin + 1) // d ≤ e0 − emin < 2^k − 1
	if k > maxWeightBits {
		return weightsRaw, 0, 0
	}
	var uv [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(uv[:], e0) + (len(val)*(mantBits+k)+7)/8 + 8*escaped
	if n >= 8*len(val) {
		return weightsRaw, 0, 0
	}
	return k, e0, escaped
}

// appendWeights appends a record's weight encoding byte and weights
// (see writeSigRecord) to b.
func appendWeights(b []byte, val []float64) []byte {
	le := binary.LittleEndian
	k, e0, escaped := chooseWeightCode(val)
	b = append(b, byte(k))
	if k == weightsRaw {
		for _, x := range val {
			b = le.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	b = binary.AppendUvarint(b, e0)
	w := mantBits + k
	escape := uint64(1)<<k - 1
	field := func(x float64) uint64 {
		if d, ok := packedExpOffset(x, e0); ok && d < escape {
			return math.Float64bits(x)&mantMask | d<<mantBits
		}
		return math.Float64bits(x)&mantMask | escape<<mantBits
	}
	// acc holds the n < 64 bits not yet appended; a field (≤ 57 bits)
	// shifted past them overflows into the next word when n + w ≥ 64.
	var acc uint64
	n := 0
	for _, x := range val {
		f := field(x)
		acc |= f << n
		if n+w >= 64 {
			b = le.AppendUint64(b, acc)
			acc, n = f>>(64-n), n+w-64
		} else {
			n += w
		}
	}
	for ; n > 0; n -= 8 {
		b = append(b, byte(acc))
		acc >>= 8
	}
	for _, x := range val {
		if escaped == 0 {
			break
		}
		if d, ok := packedExpOffset(x, e0); !ok || d >= escape {
			b = le.AppendUint64(b, math.Float64bits(x))
			escaped--
		}
	}
	return b
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

// readSigRecord parses one signature record, decoding straight off the
// verified segment body via the byte cursor (segment bodies are always
// fully in memory, and the per-byte reader indirection used to dominate
// cold opens). coded says the body's records carry a weight encoding
// byte (segFlagWeights, written by writeSigRecord); without it the
// weights are raw float64s, as flags-0 and flags-1 files hold them. The
// decoded strings and weight arrays are copies: a signature must not
// keep the whole file body it was decoded from alive. Truncation
// surfaces as io.ErrUnexpectedEOF; an encoding byte outside {1..5,
// 0xFF}, an e0 above 2046, a field naming an exponent below 1, non-zero
// padding and a zero weight are refused, and a NaN or ±Inf weight
// fails the non-finite check.
func readSigRecord(c *byteCursor, dim int, coded bool, ar *sigArena) (Signature, error) {
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
	code := byte(weightsRaw)
	if coded {
		if code, err = c.byte(); err != nil {
			return Signature{}, err
		}
	}
	var norm2 float64
	switch {
	case code == weightsRaw:
		norm2, err = readRawWeights(c, idx, val)
	case code >= 1 && code <= maxWeightBits:
		norm2, err = readPackedWeights(c, int(code), idx, val)
	default:
		err = fmt.Errorf("unknown weight encoding %#02x", code)
	}
	if err != nil {
		return Signature{}, err
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

// readRawWeights fills val from len(val) raw little-endian float64s and
// returns their squared norm, accumulated in index order.
func readRawWeights(c *byteCursor, idx []int32, val []float64) (float64, error) {
	raw, err := c.take(len(val) * 8)
	if err != nil {
		return 0, err
	}
	le := binary.LittleEndian
	norm2 := 0.0
	for k := range val {
		v := math.Float64frombits(le.Uint64(raw[k*8:]))
		if v == 0 {
			return 0, fmt.Errorf("explicit zero at sparse index %d", idx[k])
		}
		val[k] = v
		norm2 += v * v
	}
	return norm2, nil
}

// readPackedWeights fills val from a k-bit packing (see writeSigRecord)
// and returns the squared norm, accumulated in index order. Like the gap
// loop it decodes off locals: one unaligned 8-byte load per field (its
// bit offset within the byte, ≤ 7, plus 52 + k ≤ 57 bits fit). The hot
// loop (unpackFields) assumes every field packed and only tracks the
// largest offset it met; a record holding an escape or a malformed
// field, and one ending within 7 bytes of the body's end, takes the
// checked loop, which assembles a field's bytes one by one where fewer
// than 8 remain.
func readPackedWeights(c *byteCursor, k int, idx []int32, val []float64) (float64, error) {
	e0, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if e0 > maxNormalExp {
		return 0, fmt.Errorf("weight exponent %d exceeds %d", e0, maxNormalExp)
	}
	w := mantBits + k
	nbits := len(val) * w
	stream, err := c.take((nbits + 7) / 8)
	if err != nil {
		return 0, err
	}
	if pad := len(stream)*8 - nbits; pad > 0 && stream[len(stream)-1]>>(8-pad) != 0 {
		return 0, fmt.Errorf("non-zero padding after %d weight fields", len(val))
	}
	le := binary.LittleEndian
	b := c.b
	start := (c.pos - len(stream)) * 8 // the first field's bit
	mask := uint64(1)<<w - 1
	// A field packs a weight when its offset d < min(e0, 2^k − 1): the
	// escape code is 2^k − 1, and e0 − d must be an exponent ≥ 1.
	packed := min(e0, uint64(1)<<k-1)
	// Every field's 8-byte load stays inside b unless the stream ends
	// within 7 bytes of the body's end (the last records of a file).
	i, bit, maxd, norm2 := 0, start, uint64(0), 0.0
	if c.pos+7 <= len(b) {
		maxd, norm2 = unpackFields(b, start, w, e0, val)
		i, bit = len(val), start+len(val)*w
	}
	if maxd >= packed {
		bit, i, norm2 = start, 0, 0
	}
	esc := c.pos // the escaped weights follow the stream
	for ; i < len(val); i++ {
		var f uint64
		if p := bit >> 3; p+8 <= len(b) {
			f = le.Uint64(b[p:])
		} else {
			for j := c.pos - 1; j >= p; j-- {
				f = f<<8 | uint64(b[j])
			}
		}
		f = f >> (bit & 7) & mask
		bit += w
		var v float64
		if d := f >> mantBits; d < packed {
			v = math.Float64frombits((e0-d)<<mantBits | f&mantMask)
		} else if d != uint64(1)<<k-1 {
			return 0, fmt.Errorf("weight field at sparse index %d names exponent %d−%d, below 1", idx[i], e0, d)
		} else {
			if len(b)-esc < 8 {
				return 0, io.ErrUnexpectedEOF
			}
			v = math.Float64frombits(le.Uint64(b[esc:]))
			esc += 8
			if v == 0 {
				return 0, fmt.Errorf("explicit zero at sparse index %d", idx[i])
			}
		}
		val[i] = v
		norm2 += v * v
	}
	c.pos = esc
	return norm2, nil
}

// unpackFields is readPackedWeights' hot loop, a leaf of its own so its
// locals stay in registers: it decodes the w-bit fields from bit on
// into val as packed weights under e0, each with one 8-byte load the
// caller has made sure b holds, and returns the largest exponent offset
// it met and the squared norm. A field f = d<<52 | m holds the weight
// (e0 − d)<<52 | m = e0<<52 − f + 2m, and the largest f holds the
// largest d.
func unpackFields(b []byte, bit, w int, e0 uint64, val []float64) (maxd uint64, norm2 float64) {
	le := binary.LittleEndian
	top := e0 << mantBits
	var maxf uint64
	mask := uint64(1)<<w - 1
	for i := range val {
		f := le.Uint64(b[bit>>3:]) >> (uint(bit) & 7) & mask
		bit += w
		maxf = max(maxf, f)
		v := math.Float64frombits(top - f + 2*(f&mantMask))
		val[i] = v
		norm2 += v * v
	}
	return maxf >> mantBits, norm2
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
