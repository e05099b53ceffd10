package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// v21SegmentLayout locates the sections of a sealed v2.1 segment file:
// the flags byte, the row records, and the postings section. rows must
// be the segment's signatures in record order.
func v21SegmentLayout(t *testing.T, body []byte, rows []Signature) (rowsStart, postStart int) {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	for _, s := range rows {
		if err := writeSigRecordV2(bw, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	rowsStart = segHeaderSize + 1 // header + flags byte
	postStart = rowsStart + buf.Len()
	if postStart >= len(body) {
		t.Fatalf("postings section out of range: rows end at %d of %d body bytes", postStart, len(body))
	}
	if !bytes.Equal(body[rowsStart:postStart], buf.Bytes()) {
		t.Fatal("row re-encoding does not match the written segment file")
	}
	return rowsStart, postStart
}

// rewriteSegment replaces a segment file's body, recomputing both the
// file footer CRC and the manifest's CRC entry, so the corruption under
// test is structural — not a checksum mismatch.
func rewriteSegment(t *testing.T, dir, name string, body []byte) {
	t.Helper()
	crc := crc32.ChecksumIEEE(body)
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], crc)
	if err := os.WriteFile(filepath.Join(dir, name), append(append([]byte(nil), body...), foot[:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var m manifestJSON
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for si := range m.Segments {
		for i := range m.Segments[si] {
			if m.Segments[si][i].File == name {
				m.Segments[si][i].CRC32 = crc
			}
		}
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestV21PostingsCorruptionMatrix drives the corruption classes
// specific to the v2.1 postings section, each with a *valid* CRC (the
// footer and manifest are recomputed after the damage), so the typed
// error must come from the structural validation: a tampered posting
// count, an overlong (bad) varint, a truncated block stream, and an
// ordinal that names the wrong dimension. A plain CRC mismatch on the
// postings bytes is checked too. Every case yields a *SnapshotError
// naming the segment file and loads nothing.
func TestV21PostingsCorruptionMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(211))
	const dim, nnz, n = 40, 7, 9
	sigs := randSigs(r, n, dim, nnz)
	dir := filepath.Join(t.TempDir(), "db")
	db, err := NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll(sigs); err != nil {
		t.Fatal(err)
	}
	db.Seal()
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	clean := dirState(t, dir)
	var segName string
	for name := range clean {
		if name != manifestName {
			segName = name
		}
	}
	raw := clean[segName]
	body := raw[:len(raw)-4]
	if body[segHeaderSize]&segFlagPostings == 0 {
		t.Fatal("sealed segment written without a postings section")
	}
	_, postStart := v21SegmentLayout(t, body, sigs)

	restore := func() {
		for name, b := range clean {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustFail := func(tag string) {
		t.Helper()
		got, err := LoadDir(dir)
		if err == nil {
			t.Fatalf("%s: load succeeded", tag)
		}
		if got != nil {
			t.Fatalf("%s: load returned a DB alongside the error", tag)
		}
		var snapErr *SnapshotError
		if !errors.As(err, &snapErr) {
			t.Fatalf("%s: error %v is not a *SnapshotError", tag, err)
		}
		if filepath.Base(snapErr.Path) != segName {
			t.Fatalf("%s: error names %s, want %s", tag, snapErr.Path, segName)
		}
		restore()
	}
	mutate := func(tag string, fn func(b []byte) []byte) {
		t.Helper()
		rewriteSegment(t, dir, segName, fn(append([]byte(nil), body...)))
		mustFail(tag)
	}

	// Tampered posting count (the first uvarint of the section): the
	// bijection check against the summed supports rejects it.
	mutate("posting-count", func(b []byte) []byte {
		b[postStart]++ // n*nnz = 63 < 128: a single-byte uvarint
		return b
	})
	// An overlong varint (ten 0xFF bytes never terminate a uvarint)
	// where the posting count should be.
	mutate("bad-varint", func(b []byte) []byte {
		out := append([]byte(nil), b[:postStart]...)
		out = append(out, bytes.Repeat([]byte{0xFF}, 10)...)
		return append(out, b[postStart:]...)
	})
	// Truncated postings: the blob (the file tail) loses bytes, so a
	// block's streams run out mid-decode.
	mutate("truncated-blocks", func(b []byte) []byte {
		return b[:len(b)-3]
	})
	// The last blob byte is the final block's last ordinal: any other
	// value either leaves its signature's support (out of range) or
	// lands on a support entry of a different dimension — the per-
	// posting dimension check catches both.
	mutate("wrong-ordinal", func(b []byte) []byte {
		b[len(b)-1] ^= 0x07
		return b
	})
	// Extra bytes after the blob: the section must consume the body
	// exactly.
	mutate("trailing-postings", func(b []byte) []byte {
		return append(b, 0x00)
	})
	// And a plain bit flip in the postings bytes without recomputing the
	// footer: the CRC rejects it before validation runs.
	flipped := append([]byte(nil), raw...)
	flipped[postStart+2] ^= 0x20
	if err := os.WriteFile(filepath.Join(dir, segName), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	mustFail("crc-mismatch")

	// The restored directory still loads and answers identically.
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := randSigs(r, 1, dim, nnz)[0].W
	want, err := db.TopKSparse(q, 5, EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.TopKSparse(q, 5, EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "restored dir", got, want)
}

// TestReadSigRecordV2Bounds pins the overflow guards of the v2.1 row
// decoder: a 64-bit nnz or support-index gap must come back as an
// error, never as a panic (makeslice / index wrap).
func TestReadSigRecordV2Bounds(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(0) // empty docID
	buf.WriteByte(0) // empty label
	buf.Write(binary.AppendUvarint(nil, 1<<63))
	if _, err := readSigRecordV2(&byteCursor{b: buf.Bytes()}, 10, &sigArena{}); err == nil {
		t.Fatal("2^63 nnz should fail")
	}
	buf.Reset()
	buf.WriteByte(0)
	buf.WriteByte(0)
	buf.Write(binary.AppendUvarint(nil, 1))       // nnz = 1
	buf.Write(binary.AppendUvarint(nil, 1<<63+7)) // gap wraps int64
	if _, err := readSigRecordV2(&byteCursor{b: buf.Bytes()}, 10, &sigArena{}); err == nil {
		t.Fatal("overflowing support gap should fail")
	}
}

// TestValidateGapOverflowErrors pins the postings-blob id-gap guard: a
// gap uvarint large enough to wrap the id sum negative must be a typed
// validation error, not an index-out-of-range panic.
func TestValidateGapOverflowErrors(t *testing.T) {
	sup := [][]int32{{0}, {0}}
	bp := &blockPostings{
		dim:       1,
		n:         2,
		nPostings: 2,
		vals:      [][]float64{{1}, {1}},
		dir:       []int32{0, 1},
		blocks:    []blockDesc{{firstID: 0, count: 2, ordW: 1}},
	}
	bp.blob = binary.AppendUvarint(nil, 1<<63+1<<31) // the id gap
	bp.blob = append(bp.blob, 0, 0)                  // two ordinals
	if err := bp.validate(sup, []int32{0}); err == nil {
		t.Fatal("overflowing id gap should fail validation")
	}
}
