package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/vecmath"
)

// writeSigRecordRaw writes one record the way every build before
// segFlagWeights did, and the way flags-0 and flags-1 bodies hold it:
// the head appendSigHead writes, then the weights as raw little-endian
// float64s, bit for bit. It is the oracle the compatibility tests write
// older files with; v21PostingsStart holds it to the fixture's bytes.
func writeSigRecordRaw(bw *bufio.Writer, s Signature) error {
	b, err := appendSigHead(nil, s)
	if err != nil {
		return err
	}
	for _, x := range s.W.Values() {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	_, err = bw.Write(b)
	return err
}

// segmentBody returns a segment file body of dim-wide rows, footer
// excluded: the header, the flags byte, and every row written by write.
func segmentBody(t testing.TB, dim int, flags byte, rows []Signature, write func(*bufio.Writer, Signature) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	le := binary.LittleEndian
	buf.WriteString(segMagic)
	buf.Write(le.AppendUint16(nil, segVersionBlocks))
	buf.Write(le.AppendUint32(nil, uint32(dim)))
	buf.Write(le.AppendUint32(nil, uint32(len(rows))))
	buf.WriteByte(flags)
	bw := bufio.NewWriter(&buf)
	for _, s := range rows {
		if err := write(bw, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rewriteRaw rewrites every file dir's manifest names as a flags-0 body
// of the same rows, its CRCs re-stamped: the directory a build before
// segFlagWeights would have saved.
func rewriteRaw(t testing.TB, dir string) {
	t.Helper()
	m := readManifest(t, dir)
	for _, ent := range m.Segments[0] {
		rows, err := readSegmentFile(dir, ent, m.Dim, nil, &sigArena{})
		if err != nil {
			t.Fatal(err)
		}
		rewriteSegment(t, dir, ent.File, segmentBody(t, m.Dim, 0, rows, writeSigRecordRaw))
	}
}

// v21PostingsStart returns where an older build's sealed segment body
// starts its postings section, after the flags byte and the row
// records. rows must be the segment's signatures in record order; the
// records before the section must be the raw writer's bytes exactly.
func v21PostingsStart(t *testing.T, body []byte, rows []Signature) int {
	t.Helper()
	rec := segmentBody(t, rows[0].Dim(), body[segHeaderSize], rows, writeSigRecordRaw)
	postStart := len(rec)
	if postStart >= len(body) {
		t.Fatalf("postings section out of range: rows end at %d of %d body bytes", postStart, len(body))
	}
	if !bytes.Equal(body[:postStart], rec) {
		t.Fatal("the raw writer's re-encoding does not match the older build's segment file")
	}
	return postStart
}

// rewriteSegment replaces a segment file's body, recomputing both the
// file footer CRC and the manifest's CRC entry, so the corruption under
// test is structural — not a checksum mismatch.
func rewriteSegment(t testing.TB, dir, name string, body []byte) {
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

// TestV21PostingsSectionIgnored holds the loader to skipping an older
// build's postings section unread: the fixture's sealed segment, its
// section tampered in every way the retired validator refused (posting
// count, an overlong varint, a truncated blob, a wrong ordinal, trailing
// bytes) and both CRCs re-stamped, still loads and answers like a
// brute-force scan of its rows. Plain CRC damage inside the section is
// still a *SnapshotError naming the file, as are a section behind a
// flags byte of 0, a section behind encoded weights (flags 0x03, which
// no build writes) and an unknown flag bit.
func TestV21PostingsSectionIgnored(t *testing.T) {
	dir := copyV21Fixture(t)
	db, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows := db.All()
	clean := dirState(t, dir)
	first := readManifest(t, dir).Segments[0][0]
	segName := first.File
	raw := clean[segName]
	body := raw[:len(raw)-4]
	if body[segHeaderSize] != segFlagPostings {
		t.Fatalf("fixture segment %s flags %#02x, want a postings section", segName, body[segHeaderSize])
	}
	postStart := v21PostingsStart(t, body, rows[:first.Records])
	queries := fixtureQueries(rows)

	restore := func() {
		for name, b := range clean {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	mutate := func(fn func(b []byte) []byte) {
		t.Helper()
		rewriteSegment(t, dir, segName, fn(append([]byte(nil), body...)))
	}
	mustFail := func(tag string) {
		t.Helper()
		got, err := LoadDir(dir)
		var snapErr *SnapshotError
		if got != nil || !errors.As(err, &snapErr) || filepath.Base(snapErr.Path) != segName {
			t.Fatalf("%s: db=%v err=%v, want no DB and a *SnapshotError naming %s", tag, got, err, segName)
		}
		restore()
	}
	for _, c := range []struct {
		tag string
		fn  func(b []byte) []byte
	}{
		{"posting-count", func(b []byte) []byte { b[postStart] ^= 0x05; return b }},
		{"bad-varint", func(b []byte) []byte {
			out := append([]byte(nil), b[:postStart]...)
			out = append(out, bytes.Repeat([]byte{0xFF}, 10)...)
			return append(out, b[postStart:]...)
		}},
		{"truncated-blocks", func(b []byte) []byte { return b[:len(b)-3] }},
		{"wrong-ordinal", func(b []byte) []byte { b[len(b)-1] ^= 0x07; return b }},
		{"trailing-postings", func(b []byte) []byte { return append(b, 0x00) }},
		{"no-section", func(b []byte) []byte { return b[:postStart] }},
	} {
		mutate(c.fn)
		got, err := LoadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", c.tag, err)
		}
		if err := sameRows(got.All(), rows); err != nil {
			t.Fatalf("%s: %v", c.tag, err)
		}
		checkBruteForce(t, c.tag, got, queries)
		restore()
	}

	// A section behind a flags byte of 0 is trailing bytes, and flags
	// 0x03 and an unknown flag bit are refused.
	mutate(func(b []byte) []byte { b[segHeaderSize] = 0; return b })
	mustFail("flags-0-with-section")
	mutate(func(b []byte) []byte { b[segHeaderSize] |= segFlagWeights; return b })
	mustFail("postings-and-weights")
	mutate(func(b []byte) []byte { b[segHeaderSize] |= 0x04; return b })
	mustFail("unknown-flag")
	// A bit flip in the section without re-stamping: the CRC rejects it.
	flipped := append([]byte(nil), raw...)
	flipped[postStart+2] ^= 0x20
	if err := os.WriteFile(filepath.Join(dir, segName), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	mustFail("crc-mismatch")
}

// TestReadSigRecordV2Bounds pins the overflow guards of the v2.1 row
// decoder: a 64-bit nnz or support-index gap must come back as an
// error, never as a panic (makeslice / index wrap).
func TestReadSigRecordV2Bounds(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(0) // empty docID
	buf.WriteByte(0) // empty label
	buf.Write(binary.AppendUvarint(nil, 1<<63))
	if _, err := readSigRecord(&byteCursor{b: buf.Bytes()}, 10, true, &sigArena{}); err == nil {
		t.Fatal("2^63 nnz should fail")
	}
	buf.Reset()
	buf.WriteByte(0)
	buf.WriteByte(0)
	buf.Write(binary.AppendUvarint(nil, 1))       // nnz = 1
	buf.Write(binary.AppendUvarint(nil, 1<<63+7)) // gap wraps int64
	if _, err := readSigRecord(&byteCursor{b: buf.Bytes()}, 10, true, &sigArena{}); err == nil {
		t.Fatal("overflowing support gap should fail")
	}
}

// v21Fixture is a snapshot directory written by the build that still
// persisted postings (dimension matrixDim, 421 rows): a compacted segment
// of 256 rows and a sealed one of 128, both carrying a postings
// section, and a 37-row segment saved while active, without one — a cut
// that loads as one segment now.
const v21Fixture = "testdata/v21-postings"

// copyV21Fixture copies the fixture into a fresh directory and returns
// it, so a test may save into it.
func copyV21Fixture(t *testing.T) string {
	t.Helper()
	entries, err := os.ReadDir(v21Fixture)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(v21Fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// segFlags returns the flags byte of every segment file in dir.
func segFlags(t *testing.T, dir string) map[string]byte {
	t.Helper()
	out := map[string]byte{}
	for name, b := range dirState(t, dir) {
		if strings.HasPrefix(name, "seg-") {
			out[name] = b[segHeaderSize]
		}
	}
	return out
}

// fixtureQueries is a fixed query set over rows: every 37th stored
// signature and eight random ones.
func fixtureQueries(rows []Signature) []*vecmath.Sparse {
	var qs []*vecmath.Sparse
	for i := 0; i < len(rows); i += 37 {
		qs = append(qs, rows[i].W)
	}
	for _, s := range randSigs(rand.New(rand.NewSource(340)), 8, rows[0].Dim(), 6) {
		qs = append(qs, s.W)
	}
	return qs
}

// checkBruteForce holds every cosine and Euclidean top-10 of db to a
// brute-force scan of db.All().
func checkBruteForce(t *testing.T, tag string, db *DB, queries []*vecmath.Sparse) {
	t.Helper()
	all := db.All()
	for _, m := range []Metric{EuclideanMetric(), CosineMetric()} {
		for qi, q := range queries {
			got, err := db.TopKSparse(q, 10, m)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteTopK(all, q, 10, m); !sameHits(got, want) {
				t.Fatalf("%s: %s query %d answers %v, the brute-force scan %v", tag, m.Name, qi, got, want)
			}
		}
	}
}

// sameRows reports the first difference between two row sequences.
func sameRows(got, want []Signature) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if err := sameSignature(got[i], want[i]); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// TestV21FixtureLoads loads the older build's snapshot — postings
// sections skipped, its 256/128/37 rows re-cut into one 421-row
// segment, indexed whole — and holds it to a brute-force scan; a
// SaveDir back into the fixture's copy writes only the manifest — the
// three files hold row ranges of the one active segment, so they stay
// — and reloads with the same rows, hits and PruneStats; and a SaveDir
// into a fresh directory writes one file, flags segFlagWeights, no
// longer than the raw writer's flags-0 body of the same rows, and
// reloads with the same rows and answers.
func TestV21FixtureLoads(t *testing.T) {
	dir := copyV21Fixture(t)
	flags := segFlags(t, dir)
	if want := map[string]byte{"seg-00000002.fms": 1, "seg-00000003.fms": 1, "seg-00000004.fms": 0}; !maps.Equal(flags, want) {
		t.Fatalf("fixture flags %v, want %v", flags, want)
	}
	db, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 421 || db.Segments() != 1 || db.ActiveUnindexedRows() != 0 {
		t.Fatalf("fixture loads %d rows in %d segments, %d unindexed; want 421 in 1, all indexed",
			db.Len(), db.Segments(), db.ActiveUnindexedRows())
	}
	checkLayout(t, "fixture", db)
	queries := fixtureQueries(db.All())
	checkBruteForce(t, "fixture", db, queries)

	// Back into its own directory: every file stays, byte for byte.
	before := dirState(t, dir)
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	files := dirState(t, dir)
	if len(files) != len(before) || newSegmentFiles(before, files) != 0 {
		t.Fatalf("re-save into the fixture left %v, want %v", slices.Sorted(maps.Keys(files)), slices.Sorted(maps.Keys(before)))
	}
	for name, b := range before {
		if name != manifestName && !bytes.Equal(files[name], b) {
			t.Fatalf("re-save into the fixture rewrote %s", name)
		}
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRows(back.All(), db.All()); err != nil {
		t.Fatal(err)
	}
	for _, m := range []Metric{EuclideanMetric(), CosineMetric()} {
		for qi, q := range queries {
			want, wantSt, err := db.TopKSparseStats(q, 10, m)
			if err != nil {
				t.Fatal(err)
			}
			got, gotSt, err := back.TopKSparseStats(q, 10, m)
			if err != nil {
				t.Fatal(err)
			}
			if !sameHits(got, want) || gotSt != wantSt {
				t.Fatalf("%s query %d after the re-save: %v %+v, loaded fixture %v %+v", m.Name, qi, got, gotSt, want, wantSt)
			}
		}
	}

	fresh := filepath.Join(t.TempDir(), "resaved")
	if err := db.SaveDir(fresh); err != nil {
		t.Fatal(err)
	}
	resaved := dirState(t, fresh)
	flags = segFlags(t, fresh)
	if len(flags) != 1 {
		t.Fatalf("re-saved into %d files, want 1", len(flags))
	}
	raw := len(segmentBody(t, matrixDim, 0, db.All(), writeSigRecordRaw)) + 4
	for name, f := range flags {
		if f != segFlagWeights {
			t.Fatalf("re-saved %s flags %#02x, want %#02x", name, f, segFlagWeights)
		}
		if len(resaved[name]) >= raw {
			t.Fatalf("re-saved %s holds %d bytes, the raw writer's body %d", name, len(resaved[name]), raw)
		}
	}
	back, err = LoadDir(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRows(back.All(), db.All()); err != nil {
		t.Fatal(err)
	}
	checkBruteForce(t, "re-saved", back, queries)
}

// TestV21FixtureIncrementalSave grows the loaded fixture and saves it
// back into its own directory: the older build's three files keep their
// bytes, one new file, flags segFlagWeights, holds the 50 appended
// rows, and the directory loads as one segment.
func TestV21FixtureIncrementalSave(t *testing.T) {
	dir := copyV21Fixture(t)
	before := dirState(t, dir)
	db, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	grown := randSigs(rand.New(rand.NewSource(341)), 50, matrixDim, 6)
	if err := db.AddAll(grown); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	after := dirState(t, dir)
	for name, b := range before {
		if name != manifestName && !bytes.Equal(after[name], b) {
			t.Fatalf("the older build's %s changed in the save", name)
		}
	}
	ents := readManifest(t, dir).Segments[0]
	if len(after) != len(before)+1 || len(ents) != 4 {
		t.Fatalf("incremental save left %d files in a %d-entry manifest, want %d and 4", len(after), len(ents), len(before)+1)
	}
	if f := after[ents[3].File][segHeaderSize]; f != segFlagWeights {
		t.Fatalf("new %s flags %#02x, want %#02x", ents[3].File, f, segFlagWeights)
	}
	checkFileRows(t, dir, ents[3], matrixDim, grown)
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 471 || back.Segments() != 1 {
		t.Fatalf("grown directory loads %d rows in %d segments, want 471 in 1", back.Len(), back.Segments())
	}
	if err := sameRows(back.All(), db.All()); err != nil {
		t.Fatal(err)
	}
	checkBruteForce(t, "grown", back, fixtureQueries(back.All()))
}

// TestReloadRebuildsSealedPostings pins "rebuilt equals sealed": a
// store loaded in 256-row AddAll chunks and fully sealed reloads from
// its rows-only snapshot with the same IndexBytes, and every query of a
// fixed set gets the same hits and the same PruneStats.
func TestReloadRebuildsSealedPostings(t *testing.T) {
	sigs := embedPeaked(t, 9000)
	db := loadChunks(t, sigs, 256)
	db.Seal()
	if db.Segments() != 2 || db.ActiveUnindexedRows() != 0 {
		t.Fatalf("%d segments, %d unindexed rows; want 2, all indexed", db.Segments(), db.ActiveUnindexedRows())
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.IndexBytes(), db.IndexBytes(); got != want {
		t.Fatalf("reloaded IndexBytes %d, sealed %d", got, want)
	}
	var skipped int64
	for _, m := range []Metric{EuclideanMetric(), CosineMetric()} {
		for i := 0; i < len(sigs); i += 450 {
			want, wantStats, err := db.TopKSparseStats(sigs[i].W, 10, m)
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, err := back.TopKSparseStats(sigs[i].W, 10, m)
			if err != nil {
				t.Fatal(err)
			}
			if !sameHits(got, want) {
				t.Fatalf("%s query %d: reloaded %v, sealed %v", m.Name, i, got, want)
			}
			if gotStats != wantStats {
				t.Fatalf("%s query %d: reloaded PruneStats %+v, sealed %+v", m.Name, i, gotStats, wantStats)
			}
			skipped += gotStats.BlocksSkipped
		}
	}
	if skipped == 0 {
		t.Fatal("no query skipped a block: the PruneStats comparison pins nothing")
	}
}

// TestFlags0DirectoryCompat writes a directory the way builds before
// segFlagWeights did — every file a flags-0 body from the raw writer —
// and holds LoadDir and the next SaveDir to it: the rows load bit for
// bit, an incremental save keeps every old file (same inode, mtime and
// bytes), each file it writes carries segFlagWeights, and the mixed
// directory reloads with every row.
func TestFlags0DirectoryCompat(t *testing.T) {
	sigs := randSigs(rand.New(rand.NewSource(402)), 30, matrixDim, 6)
	dir := filepath.Join(t.TempDir(), "db")
	saveCut(t, dir, matrixDim, sigs[:20], 12, 8)
	rewriteRaw(t, dir)
	old := readManifest(t, dir).Segments[0]
	infos := map[string]os.FileInfo{}
	for name, f := range segFlags(t, dir) {
		if f != 0 {
			t.Fatalf("raw-written %s flags %#02x, want 0", name, f)
		}
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		infos[name] = fi
	}
	before := dirState(t, dir)

	db, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRows(db.All(), sigs[:20]); err != nil {
		t.Fatalf("flags-0 directory: %v", err)
	}
	if err := db.AddAll(sigs[20:]); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	ents := readManifest(t, dir).Segments[0]
	if len(ents) != len(old)+1 || !slices.Equal(ents[:len(old)], old) {
		t.Fatalf("incremental save's manifest %v, want %v and one new file", ents, old)
	}
	after := dirState(t, dir)
	for name, fi := range infos {
		got, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(got, fi) || !got.ModTime().Equal(fi.ModTime()) || !bytes.Equal(after[name], before[name]) {
			t.Fatalf("incremental save touched the flags-0 file %s", name)
		}
	}
	if f := after[ents[len(old)].File][segHeaderSize]; f != segFlagWeights {
		t.Fatalf("new %s flags %#02x, want %#02x", ents[len(old)].File, f, segFlagWeights)
	}
	checkFileRows(t, dir, ents[len(old)], matrixDim, sigs[20:])
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRows(back.All(), sigs); err != nil {
		t.Fatalf("mixed directory: %v", err)
	}
}
