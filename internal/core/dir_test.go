package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dirState reads every file in a snapshot directory, keyed by name —
// the before/after probe the incrementality assertions compare.
func dirState(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestSaveDirLoadDirRoundTrip checks the round trip: a reloaded
// directory answers TopK bit-identically (both routings), remembers its
// directory (an immediate re-save rewrites nothing), and keeps working
// through further Add/Save cycles.
func TestSaveDirLoadDirRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	const dim, nnz, k = 150, 18, 12
	sigs := randSigs(r, 120, dim, nnz)
	query := randSigs(r, 1, dim, nnz)[0].W
	dir := filepath.Join(t.TempDir(), "db")

	src, err := newTestDB(dim, 3)
	if err != nil {
		t.Fatal(err)
	}
	src.setSegmentSize(16)
	if err := src.AddAll(sigs); err != nil {
		t.Fatal(err)
	}
	want, err := src.TopKSparse(query, k, EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := src.DirtySegments(); got != 0 {
		t.Fatalf("after SaveDir: %d dirty segments, want 0", got)
	}

	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != src.Len() || back.Dim() != src.Dim() {
		t.Fatalf("reloaded len/dim = %d/%d, want %d/%d", back.Len(), back.Dim(), src.Len(), src.Dim())
	}
	if back.Segments() != src.Segments() {
		t.Fatalf("reloaded segments = %d, want %d", back.Segments(), src.Segments())
	}
	for _, m := range []Metric{EuclideanMetric(), CosineMetric(), MinkowskiMetric(1)} {
		ref, err := src.TopKSparse(query, k, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.TopKSparse(query, k, m)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "reloaded indexed "+m.Name, got, ref)
		sameResults(t, "reloaded scan "+m.Name, scanResults(t, back, query, k, m), ref)
	}
	_ = want

	// A reloaded DB knows its directory: saving straight back rewrites
	// no segment files.
	before := dirState(t, dir)
	if got := back.DirtySegments(); got != 0 {
		t.Fatalf("freshly loaded DB: %d dirty segments, want 0", got)
	}
	if err := back.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	after := dirState(t, dir)
	for name, b := range before {
		if name == manifestName {
			continue
		}
		if !bytes.Equal(after[name], b) {
			t.Fatalf("no-op re-save rewrote %s", name)
		}
	}

	// Add/save again and reload once more: labels survive.
	extra := randSigs(r, 7, dim, nnz)
	for i := range extra {
		extra[i].DocID = fmt.Sprintf("extra-%d", i)
	}
	if err := back.AddAll(extra); err != nil {
		t.Fatal(err)
	}
	if err := back.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	again, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != back.Len() {
		t.Fatalf("second reload len = %d, want %d", again.Len(), back.Len())
	}
	all := again.All()
	found := 0
	for _, s := range all {
		if strings.HasPrefix(s.DocID, "extra-") {
			found++
		}
	}
	if found != len(extra) {
		t.Fatalf("reload kept %d of %d appended signatures", found, len(extra))
	}
}

// TestSaveDirIncremental is the O(new data) assertion behind the
// tentpole: after ingesting N and saving, adding M << N signatures and
// saving again must rewrite only the active segment plus the manifest —
// every sealed segment file stays byte-identical on disk.
func TestSaveDirIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	const dim, nnz = 100, 12
	dir := filepath.Join(t.TempDir(), "db")
	db, err := newTestDB(dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	db.setSegmentSize(20)
	if err := db.AddAll(randSigs(r, 200, dim, nnz)); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	before := dirState(t, dir)

	// M = 4 new signatures land in the new active segment.
	if err := db.AddAll(randSigs(r, 4, dim, nnz)); err != nil {
		t.Fatal(err)
	}
	dirty := db.DirtySegments()
	if dirty != 1 {
		t.Fatalf("after 4 adds: %d dirty segments, want 1", dirty)
	}
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	after := dirState(t, dir)

	changed := 0
	for name, b := range after {
		if name == manifestName {
			continue
		}
		if prev, ok := before[name]; ok && !bytes.Equal(prev, b) {
			t.Fatalf("sealed segment file %s was rewritten with different content", name)
		} else if !ok {
			changed++ // a new segment file: the fresh active segment
		}
	}
	if changed != dirty {
		t.Fatalf("incremental save wrote %d new segment files, want %d", changed, dirty)
	}

	// Compaction dirties exactly its outputs; the next save rewrites
	// them and removes the replaced files.
	db.Seal()
	db.Compact()
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	final := dirState(t, dir)
	if got, want := len(final)-1, db.Segments(); got != want {
		t.Fatalf("after compacting save: %d segment files on disk, want %d", got, want)
	}
	re, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != db.Len() {
		t.Fatalf("post-compaction reload len = %d, want %d", re.Len(), db.Len())
	}
	q := randSigs(r, 1, dim, nnz)[0].W
	want, err := db.TopKSparse(q, 9, EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.TopKSparse(q, 9, EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "post-compaction reload", got, want)
}

// TestSaveDirNeverRewritesMappedFiles pins that SaveDir back into the
// directory a store was loaded from never rewrites a clean loaded
// segment: each keeps its inode and mtime, the grown rows land in new
// files, and the store still saves to a fresh directory and answers.
// (The name dates from the mmap load mode; it is kept so the id stays
// stable.)
func TestSaveDirNeverRewritesMappedFiles(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	const dim, nnz = 80, 9
	sigs := randSigs(r, 200, dim, nnz)
	src, err := newTestDB(dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	src.setSegmentSize(64)
	if err := src.AddAll(sigs); err != nil {
		t.Fatal(err)
	}
	src.Seal()
	dir := t.TempDir()
	if err := src.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	stat := func(d string) map[string]os.FileInfo {
		m := map[string]os.FileInfo{}
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), "seg-") {
				fi, err := os.Stat(filepath.Join(d, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				m[e.Name()] = fi
			}
		}
		return m
	}
	before := stat(dir)

	db, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	q := randSigs(r, 1, dim, nnz)[0].W
	want, err := db.TopKSparse(q, 8, CosineMetric())
	if err != nil {
		t.Fatal(err)
	}

	// Grow the store, then save back into the directory it was loaded
	// from.
	extra := randSigs(r, 50, dim, nnz)
	for i := range extra {
		extra[i].DocID = fmt.Sprintf("grown-%d", i)
	}
	if err := db.AddAll(extra); err != nil {
		t.Fatal(err)
	}
	db.Seal()
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	after := stat(dir)
	for name, fi := range before {
		got, ok := after[name]
		if !ok {
			t.Fatalf("loaded segment file %s disappeared after SaveDir", name)
		}
		if !os.SameFile(got, fi) || !got.ModTime().Equal(fi.ModTime()) {
			t.Fatalf("loaded segment file %s was rewritten", name)
		}
	}
	if len(after) <= len(before) {
		t.Fatalf("grown store wrote no new segment files (%d -> %d)", len(before), len(after))
	}

	// Save to a fresh directory too — serialized from the loaded segments.
	fresh := t.TempDir()
	if err := db.SaveDir(fresh); err != nil {
		t.Fatal(err)
	}
	reload, err := LoadDir(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if reload.Len() != len(sigs)+len(extra) {
		t.Fatalf("fresh snapshot Len = %d, want %d", reload.Len(), len(sigs)+len(extra))
	}

	got, err := db.TopKSparse(q, 8, CosineMetric())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("query after saves: %d hits, want %d", len(got), len(want))
	}
}

// TestSaveDirNeverRewritesReferencedFiles pins the crash-safety
// invariant behind the manifest-last ordering: a file referenced by the
// previous (durable) manifest is never renamed over, even when its
// segment grew — the rewrite takes a fresh id, and the old file is only
// removed after the new manifest lands. A crash at any point therefore
// leaves a loadable snapshot: the old manifest's files are all intact
// until the new manifest replaces it.
func TestSaveDirNeverRewritesReferencedFiles(t *testing.T) {
	r := rand.New(rand.NewSource(151))
	const dim, nnz = 60, 8
	dir := filepath.Join(t.TempDir(), "db")
	db, err := NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	db.setSegmentSize(64)
	// 10 signatures: one partially filled active segment.
	if err := db.AddAll(randSigs(r, 10, dim, nnz)); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	first := dirState(t, dir)
	// The active segment grows and is re-saved: its old file must stay
	// byte-identical until the new manifest is durable, then be removed
	// as an orphan — never rewritten in place.
	if err := db.AddAll(randSigs(r, 5, dim, nnz)); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	second := dirState(t, dir)
	for name, b := range second {
		if name == manifestName {
			continue
		}
		if prev, ok := first[name]; ok && !bytes.Equal(prev, b) {
			t.Fatalf("file %s from the previous snapshot was rewritten in place", name)
		}
	}
	// The grown segment landed under a fresh name and the superseded
	// file is gone.
	fresh := 0
	for name := range second {
		if _, ok := first[name]; !ok {
			fresh++
		}
	}
	if fresh != 1 {
		t.Fatalf("%d fresh segment files after the grown-active re-save, want 1", fresh)
	}
	for name := range first {
		if name == manifestName {
			continue
		}
		if _, ok := second[name]; !ok {
			continue // superseded file removed: expected
		}
	}
	if len(second) != 2 { // one segment file + manifest
		t.Fatalf("directory holds %d files, want 2", len(second))
	}
	// And the final state loads with everything present.
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 15 {
		t.Fatalf("reloaded len = %d, want 15", back.Len())
	}
}

// matrixDim is the dimension of the corruption matrix's healthy store.
const matrixDim = 30

// saveMatrixBaseline saves the healthy store the corruption matrix and
// FuzzLoadSegment start from and returns its directory: a compacted
// segment, a freshly sealed one and a still-active one.
func saveMatrixBaseline(t testing.TB) string {
	t.Helper()
	db, err := newTestDB(matrixDim, 2)
	if err != nil {
		t.Fatal(err)
	}
	sigs := randSigs(rand.New(rand.NewSource(131)), 14, matrixDim, 5)
	db.setSegmentSize(4)
	if err := db.AddAll(sigs[:8]); err != nil {
		t.Fatal(err)
	}
	// Compact merges segments below the threshold: raised to 8, it
	// merges the two sealed 4-row segments.
	db.setSegmentSize(8)
	db.Compact()
	db.setSegmentSize(4)
	if err := db.AddAll(sigs[8:]); err != nil {
		t.Fatal(err)
	}
	if got := db.Segments(); got != 3 {
		t.Fatalf("baseline holds %d segments, want 3 (merged 8 + sealed 4 + active 2)", got)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestDirCorruptionMatrix drives every corruption class the format
// must catch: segment files truncated at every field boundary (and a
// sweep of byte prefixes), a single flipped bit (CRC), a deleted
// manifest-referenced segment, and manifest tampering. Each must yield
// a *SnapshotError naming the offending file — never a partial DB.
func TestDirCorruptionMatrix(t *testing.T) {
	dir := saveMatrixBaseline(t)
	if _, err := LoadDir(dir); err != nil {
		t.Fatalf("healthy baseline failed to load: %v", err)
	}
	clean := dirState(t, dir)
	var segName string
	for name := range clean {
		if strings.HasPrefix(name, "seg-") {
			segName = name
			break
		}
	}
	if segName == "" {
		t.Fatal("no segment file written")
	}

	// restore rewrites the directory to its clean state.
	restore := func() {
		for name, b := range clean {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	// mustFailNaming asserts the load fails with a *SnapshotError naming
	// the expected file.
	mustFailNaming := func(tag, file string) {
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
		if filepath.Base(snapErr.Path) != file {
			t.Fatalf("%s: error names %s, want %s", tag, snapErr.Path, file)
		}
	}

	segPath := filepath.Join(dir, segName)
	raw := clean[segName]

	// Truncations at every field boundary of the segment layout — the
	// header fields, a record's docID/label/nnz/pair edges — plus a
	// sweep of arbitrary prefixes. All are caught (short file or CRC).
	cuts := []int{0, 2, 4, 6, 10, 14, 15, 16, 20, 24, 32, len(raw) / 2, len(raw) - 5, len(raw) - 1}
	for i := 0; i < len(raw); i += 7 {
		cuts = append(cuts, i)
	}
	for _, cut := range cuts {
		if cut >= len(raw) {
			continue
		}
		if err := os.WriteFile(segPath, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		mustFailNaming(fmt.Sprintf("truncate@%d", cut), segName)
	}
	restore()

	// One flipped bit anywhere in the body: the CRC must catch it.
	for _, pos := range []int{0, 5, 9, 13, segHeaderSize + 1, len(raw) / 2, len(raw) - 6} {
		b := append([]byte(nil), raw...)
		b[pos] ^= 0x10
		if err := os.WriteFile(segPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
		mustFailNaming(fmt.Sprintf("bitflip@%d", pos), segName)
	}
	// A flipped bit in the footer itself is equally fatal.
	b := append([]byte(nil), raw...)
	b[len(b)-2] ^= 0x01
	if err := os.WriteFile(segPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	mustFailNaming("bitflip@footer", segName)
	restore()

	// Trailing garbage after the footer: the CRC/footer no longer lines
	// up, so the file is rejected.
	if err := os.WriteFile(segPath, append(append([]byte(nil), raw...), 0xAA, 0xBB), 0o644); err != nil {
		t.Fatal(err)
	}
	mustFailNaming("trailing-bytes", segName)
	restore()

	// A version-1 segment (the retired record body) with both CRCs
	// re-stamped: refused by the version check, naming the file.
	legacy := append([]byte(nil), raw[:len(raw)-4]...)
	binary.LittleEndian.PutUint16(legacy[4:6], 1)
	rewriteSegment(t, dir, segName, legacy)
	mustFailNaming("version-1-segment", segName)
	restore()

	// Deleting a manifest-referenced segment names that file and wraps
	// the fs error.
	if err := os.Remove(segPath); err != nil {
		t.Fatal(err)
	}
	{
		_, err := LoadDir(dir)
		var snapErr *SnapshotError
		if !errors.As(err, &snapErr) || filepath.Base(snapErr.Path) != segName {
			t.Fatalf("missing segment error = %v, want *SnapshotError naming %s", err, segName)
		}
		if !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("missing segment error should wrap os.ErrNotExist, got %v", err)
		}
	}
	restore()

	// Manifest tampering: invalid JSON, wrong format marker, wrong
	// version, inconsistent counts, a shard count other than 1 — all name
	// the manifest.
	mpath := filepath.Join(dir, manifestName)
	for tag, content := range map[string]string{
		"bad-json":    "{not json",
		"bad-format":  `{"format":"other","version":2,"dim":30,"shards":1,"count":11,"segments":[[]]}`,
		"bad-version": `{"format":"fmdb-dir","version":9,"dim":30,"shards":1,"count":11,"segments":[[]]}`,
		"bad-dim":     `{"format":"fmdb-dir","version":2,"dim":0,"shards":1,"count":11,"segments":[[]]}`,
		"short-count": `{"format":"fmdb-dir","version":2,"dim":30,"shards":1,"count":11,"segments":[[]]}`,
		"two-shards":  `{"format":"fmdb-dir","version":2,"dim":30,"shards":2,"count":0,"segments":[[],[]]}`,
		"two-lists":   `{"format":"fmdb-dir","version":2,"dim":30,"shards":1,"count":0,"segments":[[],[]]}`,
		"no-list":     `{"format":"fmdb-dir","version":2,"dim":30,"shards":1,"count":0,"segments":[]}`,
		"zero-shards": `{"format":"fmdb-dir","version":2,"dim":30,"shards":0,"count":0,"segments":[[]]}`,
	} {
		if err := os.WriteFile(mpath, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		mustFailNaming(tag, manifestName)
	}
	restore()
	// Deleting the manifest names it too.
	if err := os.Remove(mpath); err != nil {
		t.Fatal(err)
	}
	mustFailNaming("missing-manifest", manifestName)
	restore()

	// After all that abuse, the restored directory still loads.
	if _, err := LoadDir(dir); err != nil {
		t.Fatalf("restored directory failed to load: %v", err)
	}
}

// TestCompactedStoreReopens pins that a compacted store holds the index
// its reload does. 600 rows sealed in 64-row segments leave every
// dimension several partial posting blocks; Compact merges them into
// one segment, which SaveDir writes as rows and LoadDir re-encodes. The
// merged segment must already hold those re-encoded postings: equal
// IndexBytes, and for every query under both metrics the same hits
// and the same PruneStats from identically configured stores. A merge
// that splices its parts' blocks answers alike and fails here: it keeps
// each part's partial block per dimension, ~1.5× the index bytes and
// ~10× the blocks a query considers.
func TestCompactedStoreReopens(t *testing.T) {
	r := rand.New(rand.NewSource(137))
	const dim, nnz, n, seg, k, workers = 60, 8, 600, 64, 9, 2
	sigs := randSigs(r, n, dim, nnz)
	queries := randSigs(r, 4, dim, nnz)
	db, err := newTestDB(dim, workers)
	if err != nil {
		t.Fatal(err)
	}
	db.setSegmentSize(seg)
	db.setPruneFloor(1)
	if err := db.AddAll(sigs); err != nil {
		t.Fatal(err)
	}
	db.Seal()
	if got, want := db.Segments(), (n+seg-1)/seg; got != want {
		t.Fatalf("%d segments before Compact, want %d", got, want)
	}
	db.setSegmentSize(SegmentSize)
	db.Compact()
	if got := db.Segments(); got != 1 {
		t.Fatalf("%d segments after Compact, want 1", got)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	back.setLaneFloor(1)
	back.SetWorkers(workers)
	back.setPruneFloor(1)
	if got, want := back.IndexBytes(), db.IndexBytes(); got != want {
		t.Fatalf("IndexBytes: reloaded %d, compacted %d", got, want)
	}
	for _, m := range []Metric{EuclideanMetric(), CosineMetric()} {
		for qi, q := range queries {
			tag := fmt.Sprintf("%s q=%d", m.Name, qi)
			want, wantSt, err := db.TopKSparseStats(q.W, k, m)
			if err != nil {
				t.Fatal(err)
			}
			got, gotSt, err := back.TopKSparseStats(q.W, k, m)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, tag, got, want)
			if gotSt != wantSt {
				t.Fatalf("%s: PruneStats reloaded %+v, compacted %+v", tag, gotSt, wantSt)
			}
		}
	}
}

// TestV1SnapshotInterop pins what the retired formats meet now: a
// single-file v1 "FMDB" snapshot and a CRC-correct version-1 segment
// file are each refused by LoadDir with a typed *SnapshotError
// naming the path — never a panic, never a partial DB. (The fmeter.OpenDB
// arm lives in the facade's TestSnapshotErrorAsFromFacade: this package
// cannot import it.)
func TestV1SnapshotInterop(t *testing.T) {
	refused := func(tag, path, wantPath, wantMsg string) {
		t.Helper()
		got, err := LoadDir(path)
		var se *SnapshotError
		if got != nil || !errors.As(err, &se) {
			t.Fatalf("%s: db=%v err=%v, want a *SnapshotError and no DB", tag, got, err)
		}
		if !strings.HasPrefix(se.Path, wantPath) || !strings.Contains(err.Error(), wantMsg) {
			t.Fatalf("%s: error %q, want one naming %s and saying %q", tag, err, wantPath, wantMsg)
		}
	}

	// A v1 file: magic, version 1, dim 90, 2 shards, zero records.
	v1 := filepath.Join(t.TempDir(), "db.fmdb")
	hdr := append([]byte("FMDB"), 1, 0, 90, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if err := os.WriteFile(v1, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	refused("v1 file", v1, v1, "not a directory")

	// A version-1 segment: a healthy directory with one segment's version
	// field rewritten and both CRCs re-stamped, so the refusal comes from
	// the version check and not from a checksum.
	r := rand.New(rand.NewSource(139))
	dir := filepath.Join(t.TempDir(), "db")
	db, err := newTestDB(90, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll(randSigs(r, 60, 90, 10)); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	seg := segmentFileName(0)
	raw, err := os.ReadFile(filepath.Join(dir, seg))
	if err != nil {
		t.Fatal(err)
	}
	body := raw[:len(raw)-4]
	binary.LittleEndian.PutUint16(body[4:6], 1)
	rewriteSegment(t, dir, seg, body)
	refused("version-1 segment", dir, filepath.Join(dir, seg), "unsupported segment version 1")
}

// TestManifestShardsRefused pins the one-store format: a manifest that
// names a shard count other than 1 — hand-written, or left by a store
// that was split into shards, its segments in two lists — is refused by
// LoadDir with a *SnapshotError naming the manifest and the way to
// rewrite it as one store, before a segment file is read.
func TestManifestShardsRefused(t *testing.T) {
	dir := saveMatrixBaseline(t)
	mpath := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var m manifestJSON
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Shards != 1 || len(m.Segments) != 1 || len(m.Segments[0]) != 3 {
		t.Fatalf("healthy manifest: %d shards, segment lists %v", m.Shards, m.Segments)
	}
	split := m
	split.Shards = 2
	split.Segments = [][]manifestSegment{m.Segments[0][:1], m.Segments[0][1:]}
	handWritten := bytes.Replace(raw, []byte(`"shards": 1,`), []byte(`"shards": 2,`), 1)
	for tag, manifest := range map[string]any{"hand-written": handWritten, "two-shard lists": split} {
		content, ok := manifest.([]byte)
		if !ok {
			if content, err = json.Marshal(manifest); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(mpath, content, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := LoadDir(dir)
		var se *SnapshotError
		if db != nil || !errors.As(err, &se) || se.Path != mpath {
			t.Fatalf("%s: db=%v err=%v, want no DB and a *SnapshotError naming %s", tag, db, err, mpath)
		}
		if !strings.Contains(err.Error(), "WithShards(1)") {
			t.Fatalf("%s: %v does not say how to rewrite the snapshot", tag, err)
		}
	}
}
