package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vecmath"
)

// weightSig is a dim-wide signature holding val, in order, at indices
// spread evenly over the dimension.
func weightSig(t testing.TB, dim int, name string, val []float64) Signature {
	t.Helper()
	idx := make([]int32, len(val))
	for i := range idx {
		idx[i] = int32(i * (dim / len(val)))
	}
	w, err := vecmath.SparseFromSorted(dim, idx, append([]float64(nil), val...))
	if err != nil {
		t.Fatal(err)
	}
	return Signature{DocID: name, Label: "l", W: w}
}

// spreadWeights returns n positive normal weights whose exponents lie
// 0, 1, …, spread binades below the largest, in turn, under mantissas
// drawn from r.
func spreadWeights(r *rand.Rand, n, spread int) []float64 {
	val := make([]float64, n)
	for i := range val {
		val[i] = math.Ldexp(1+r.Float64(), -1-i%(spread+1))
	}
	return val
}

// checkRecordRoundTrip writes s with writeSigRecord and reads it back:
// the record must hold s bit for bit (or, for a NaN or ±Inf weight,
// fail with the typed non-finite refusal), use the whole record, and be
// no longer than the raw writer's record plus the 1–3 header bytes. It
// returns the record's weight encoding byte.
func checkRecordRoundTrip(t testing.TB, s Signature) byte {
	t.Helper()
	var rec, raw bytes.Buffer
	for _, c := range []struct {
		buf   *bytes.Buffer
		write func(*bufio.Writer, Signature) error
	}{{&rec, writeSigRecord}, {&raw, writeSigRecordRaw}} {
		bw := bufio.NewWriter(c.buf)
		if err := c.write(bw, s); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	head, err := appendSigHead(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	code := rec.Bytes()[len(head)]
	if rec.Len() > raw.Len()+3 || (code == weightsRaw && rec.Len() != raw.Len()+1) {
		t.Fatalf("%s: %d-byte record under encoding %#02x, the raw writer's %d", s.DocID, rec.Len(), code, raw.Len())
	}
	c := byteCursor{b: rec.Bytes()}
	got, err := readSigRecord(&c, s.Dim(), true, &sigArena{})
	if !finite(s.W.Norm2()) {
		requireNonFinite(t, s.DocID, "signature", err)
		return code
	}
	if err != nil {
		t.Fatalf("%s: %v", s.DocID, err)
	}
	if c.pos != rec.Len() {
		t.Fatalf("%s: decoded %d of %d record bytes", s.DocID, c.pos, rec.Len())
	}
	if err := sameSignature(got, s); err != nil {
		t.Fatal(err)
	}
	return code
}

// TestWeightCodecRoundTrip holds the record codec to bit-exact round
// trips of every float64 class a weight can take — positive and
// negative normals, subnormals, the extremes, NaN and ±Inf (refused
// with the typed non-finite error) — and pins the encoding the writer
// picks: the narrowest k that covers the spread of the positive normal
// weights, escapes for the others, raw float64s when that spread needs
// more than 5 bits or the packing is no shorter.
func TestWeightCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(400))
	// one returns 200 weights 0–13 binades below the largest with v
	// in place of every 17th.
	one := func(v float64) []float64 {
		val := spreadWeights(r, 200, 13)
		for i := 5; i < len(val); i += 17 {
			val[i] = v
		}
		return val
	}
	scaled := func(val []float64, a float64) []float64 {
		for i := range val {
			val[i] *= a
		}
		return val
	}
	cases := []struct {
		name string
		val  []float64
		want byte
	}{
		{"empty", nil, weightsRaw},
		{"one-binade", spreadWeights(r, 200, 0), 1},
		{"spread-2", spreadWeights(r, 200, 2), 2},
		{"spread-6", spreadWeights(r, 200, 6), 3},
		{"spread-13", spreadWeights(r, 200, 13), 4},
		{"spread-30", spreadWeights(r, 200, 30), 5},
		{"spread-40", spreadWeights(r, 200, 40), weightsRaw},
		{"negative", one(-0.375), 4},
		{"all-negative", []float64{-0.5, -0.25, -1e-300}, weightsRaw},
		{"subnormal", one(math.SmallestNonzeroFloat64), 4},
		{"negative-subnormal", one(-math.Float64frombits(0x000F_FFFF_FFFF_FFFF)), 4},
		{"min-normal", scaled(spreadWeights(r, 200, 13), 0x1p-1008), 4},
		{"min-normal-outlier", one(0x1p-1022), weightsRaw},
		{"max-float", []float64{math.MaxFloat64, math.MaxFloat64 / 3}, weightsRaw},
		{"huge-normals", scaled(spreadWeights(r, 200, 13), 0x1p1000), 4},
		{"one-huge-outlier", append(spreadWeights(r, 40, 9), 0x1p1000), weightsRaw},
		{"NaN", one(math.NaN()), 4},
		{"+Inf", one(math.Inf(1)), 4},
		{"-Inf", one(math.Inf(-1)), 4},
	}
	for _, c := range cases {
		if got := checkRecordRoundTrip(t, weightSig(t, 2*len(c.val)+1, c.name, c.val)); got != c.want {
			t.Errorf("%s: weight encoding %#02x, want %#02x", c.name, got, c.want)
		}
	}
	// The peaked corpora of the benchmark pack at k = 4, escape-free.
	counts, escaped := map[byte]int{}, 0
	for _, s := range embedPeaked(t, 300) {
		counts[checkRecordRoundTrip(t, s)]++
		_, _, e := chooseWeightCode(s.W.Values())
		escaped += e
	}
	if counts[4] != 300 || escaped != 0 {
		t.Errorf("peaked records by encoding %v with %d escapes, want all 300 at k = 4 and none", counts, escaped)
	}
}

// TestPackedWeightsRefused breaks a healthy packed record in every way
// the decoder must refuse: an encoding byte outside {1..5, 0xFF}, an e0
// above 2046, a field naming an exponent below 1, non-zero padding, an
// escaped zero, and truncation inside the fields and the escapes.
func TestPackedWeightsRefused(t *testing.T) {
	// Ten weights 0–2 binades down and an escaped negative one pack at
	// k = 2: a 1-byte code, a 2-byte e0, 11 × 54 bits in 75 bytes (6
	// padding bits) and one raw float64.
	val := append(spreadWeights(rand.New(rand.NewSource(401)), 10, 2), -0.5)
	s := weightSig(t, 2*len(val)+1, "r", val)
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeSigRecord(bw, s); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	head, err := appendSigHead(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	h := len(head)
	rec := buf.Bytes()
	if rec[h] != 2 || len(rec) != h+3+75+8 {
		t.Fatalf("record of %d bytes under encoding %#02x, want %d under 0x02", len(rec), rec[h], h+3+75+8)
	}
	le := binary.LittleEndian
	for _, c := range []struct {
		name string
		eof  bool
		fn   func(b []byte) []byte
	}{
		{"code-0", false, func(b []byte) []byte { b[h] = 0; return b }},
		{"code-6", false, func(b []byte) []byte { b[h] = 6; return b }},
		{"code-0xFE", false, func(b []byte) []byte { b[h] = 0xFE; return b }},
		{"e0-2047", false, func(b []byte) []byte {
			return append(binary.AppendUvarint(b[:h+1:h+1], 2047), b[h+3:]...)
		}},
		{"exponent-below-1", false, func(b []byte) []byte {
			// e0 = 1: the second field, one binade down, names exponent 0.
			return append(append(b[:h+1:h+1], 1), b[h+3:]...)
		}},
		{"padding", false, func(b []byte) []byte { b[h+3+74] |= 0x80; return b }},
		{"escaped-zero", false, func(b []byte) []byte { le.PutUint64(b[len(b)-8:], 0); return b }},
		{"escaped-minus-zero", false, func(b []byte) []byte { le.PutUint64(b[len(b)-8:], 1<<63); return b }},
		{"truncated-fields", true, func(b []byte) []byte { return b[:h+3+40] }},
		{"truncated-escapes", true, func(b []byte) []byte { return b[:len(b)-1] }},
	} {
		b := c.fn(append([]byte(nil), rec...))
		_, err := readSigRecord(&byteCursor{b: b}, s.Dim(), true, &sigArena{})
		if err == nil || c.eof != errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want a refusal (io.ErrUnexpectedEOF: %v)", c.name, err, c.eof)
		}
	}
}

// recordRoundTripSpread writes s with writeSigRecord, holds the record to
// the checks of checkRecordRoundTrip, and returns its weight encoding
// byte and the spread of its positive normal weights: the largest
// biased exponent minus the smallest.
func recordRoundTripSpread(t testing.TB, s Signature) (byte, int) {
	code := checkRecordRoundTrip(t, s)
	lo, hi := math.MaxInt, 0
	for _, x := range s.W.Values() {
		if e := int(math.Float64bits(x) >> mantBits); e >= 1 && e <= maxNormalExp {
			lo, hi = min(lo, e), max(hi, e)
		}
	}
	return code, max(hi-lo, 0)
}
