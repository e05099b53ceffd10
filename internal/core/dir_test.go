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

	back, err := loadDir(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != src.Len() || back.Dim() != src.Dim() {
		t.Fatalf("reloaded len/dim = %d/%d, want %d/%d", back.Len(), back.Dim(), src.Len(), src.Dim())
	}
	if back.Segments() != src.Segments() {
		t.Fatalf("reloaded segments = %d, want %d", back.Segments(), src.Segments())
	}
	for _, m := range []Metric{EuclideanMetric(), CosineMetric()} {
		ref, err := src.TopKSparse(query, k, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.TopKSparse(query, k, m)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "reloaded indexed "+m.Name, got, ref)
		sameResults(t, "reloaded oracle "+m.Name, bruteResults(back, query, k, m), ref)
	}
	_ = want

	// A reloaded DB knows its directory: saving straight back writes and
	// removes no segment file.
	before := dirState(t, dir)
	if err := back.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	after := dirState(t, dir)
	if len(after) != len(before) || newSegmentFiles(before, after) != 0 {
		t.Fatalf("no-op re-save changed the files: %d -> %d", len(before), len(after))
	}
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

// TestSaveDirIncremental is the O(new data) assertion of SaveDir: after
// ingesting N and saving, adding M << N signatures and saving again
// must write only the active segment plus the manifest — every full
// segment file stays byte-identical on disk.
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

	// M = 4 new signatures land in a new active segment.
	if err := db.AddAll(randSigs(r, 4, dim, nnz)); err != nil {
		t.Fatal(err)
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
			t.Fatalf("full segment file %s was rewritten with different content", name)
		} else if !ok {
			changed++ // a new segment file: the fresh active segment
		}
	}
	if changed != 1 {
		t.Fatalf("incremental save wrote %d new segment files, want 1", changed)
	}

	// Filling the active segment writes it once more, whole, as one file,
	// and removes the file of its first rows.
	db.Seal()
	if err := db.AddAll(randSigs(r, 16, dim, nnz)); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	final := dirState(t, dir)
	if got := newSegmentFiles(after, final); got != 1 {
		t.Fatalf("save of the filled segment wrote %d segment files, want 1", got)
	}
	if got, want := len(final)-1, db.Segments(); got != want || want != 11 {
		t.Fatalf("after filling the active segment: %d segment files on disk for %d segments, want 11", got, want)
	}
	re, err := loadDir(dir, 20)
	if err != nil {
		t.Fatal(err)
	}
	checkLayout(t, "reload", re)
	if re.Len() != db.Len() {
		t.Fatalf("reload len = %d, want %d", re.Len(), db.Len())
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
	sameResults(t, "reload", got, want)
}

// TestSaveDirNeverRewritesMappedFiles pins that SaveDir back into the
// directory a store was loaded from never rewrites a loaded file: every
// one, the short tail's too, keeps its inode and mtime, one new file
// holds exactly the appended rows, and the store still saves to a fresh
// directory and answers. (The name dates from the mmap load mode; it is
// kept so the id stays stable.)
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
	ents := readManifest(t, dir).Segments[0]
	if len(before) != 4 || ents[len(ents)-1].Records != 200%64 {
		t.Fatalf("fixture: %d segment files, tail of %d rows; want 4 and %d", len(before), ents[len(ents)-1].Records, 200%64)
	}

	db, err := loadDir(dir, 64)
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
	grown := readManifest(t, dir).Segments[0]
	if len(after) != len(before)+1 || len(grown) != len(ents)+1 {
		t.Fatalf("grown tail: %d segment files, then %d; want one more", len(before), len(after))
	}
	checkFileRows(t, dir, grown[len(ents)], dim, extra)
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
// segment grew — the old file keeps its inode and mtime, the grown rows
// land in a new file under a fresh id, and a crash at any point
// therefore leaves a loadable snapshot.
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
	old := readManifest(t, dir).Segments[0]
	if len(old) != 1 {
		t.Fatalf("first save wrote %d files, want 1", len(old))
	}
	oldPath := filepath.Join(dir, old[0].File)
	oldInfo, err := os.Stat(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	// The active segment grows and is re-saved: its old file stays as it
	// was, and the 5 new rows land in one new file.
	grown := randSigs(r, 5, dim, nnz)
	if err := db.AddAll(grown); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if got, err := os.Stat(oldPath); err != nil || !os.SameFile(got, oldInfo) || !got.ModTime().Equal(oldInfo.ModTime()) {
		t.Fatalf("file %s from the previous snapshot was rewritten or removed (%v)", old[0].File, err)
	}
	ents := readManifest(t, dir).Segments[0]
	if len(ents) != 2 || ents[0] != old[0] || ents[1].ID <= old[0].ID {
		t.Fatalf("manifest after the grown-active re-save %+v, want %+v and one file under a fresh id", ents, old[0])
	}
	checkFileRows(t, dir, ents[1], dim, grown)
	if got := dirState(t, dir); len(got) != 3 { // two segment files + manifest
		t.Fatalf("directory holds %d files, want 3", len(got))
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

// TestSaveDirFileMode holds every file a save publishes to mode 0644,
// readable by every user like the 0755 directory, whatever the umask:
// MANIFEST.json and each seg-*.fms after a fresh save and after an
// incremental one.
func TestSaveDirFileMode(t *testing.T) {
	sigs := randSigs(rand.New(rand.NewSource(403)), 12, matrixDim, 5)
	db, err := NewDB(matrixDim)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	for _, chunk := range [][]Signature{sigs[:8], sigs[8:]} {
		if err := db.AddAll(chunk); err != nil {
			t.Fatal(err)
		}
		if err := db.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		segs := 0
		for _, e := range entries {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(e.Name(), "seg-") {
				segs++
			} else if e.Name() != manifestName {
				t.Fatalf("unexpected file %s", e.Name())
			}
			if fi.Mode().Perm() != 0o644 {
				t.Fatalf("%s mode %v, want -rw-r--r--", e.Name(), fi.Mode())
			}
		}
		if segs != len(readManifest(t, dir).Segments[0]) {
			t.Fatalf("%d segment files, the manifest names %d", segs, len(readManifest(t, dir).Segments[0]))
		}
	}
}

// checkFileRows asserts the snapshot file ent names holds exactly want.
func checkFileRows(t *testing.T, dir string, ent manifestSegment, dim int, want []Signature) {
	t.Helper()
	var arena sigArena
	rows, err := readSegmentFile(dir, ent, dim, nil, &arena)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRows(rows, want); err != nil {
		t.Fatalf("%s: %v", ent.File, err)
	}
}

// matrixDim is the dimension of the corruption matrix's healthy store.
const matrixDim = 30

// saveMatrixBaseline saves the healthy store the corruption matrix and
// the fuzz targets start from and returns its directory: 14 rows in
// files of 8, 4 and 2, as an older build cut them.
func saveMatrixBaseline(t testing.TB) string {
	t.Helper()
	sigs := randSigs(rand.New(rand.NewSource(131)), 14, matrixDim, 5)
	dir := filepath.Join(t.TempDir(), "db")
	saveCut(t, dir, matrixDim, sigs, 8, 4, 2)
	return dir
}

// saveCut saves sigs into the snapshot directory dir as one file per
// entry of sizes, in order: it adds each chunk and saves, and while the
// rows fit one active segment each save writes its chunk as one more
// file. Loaded at a segment size they straddle, the files are the
// layouts older builds left behind, where Seal ended segments short and
// Compact merged them past the segment size.
func saveCut(t testing.TB, dir string, dim int, sigs []Signature, sizes ...int) {
	t.Helper()
	db, err := NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	start := 0
	for _, n := range sizes {
		if start+n > len(sigs) {
			t.Fatalf("sizes cover more than %d rows", len(sigs))
		}
		if err := db.AddAll(sigs[start : start+n]); err != nil {
			t.Fatal(err)
		}
		if err := db.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		start += n
	}
	if start != len(sigs) {
		t.Fatalf("sizes cover %d rows of %d", start, len(sigs))
	}
	if got := len(readManifest(t, dir).Segments[0]); got != len(sizes) {
		t.Fatalf("%d files, want %d", got, len(sizes))
	}
}

// readManifest parses dir's manifest.
func readManifest(t testing.TB, dir string) manifestJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifestJSON
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
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

// TestCompactedStoreReopens pins that a directory holding a segment
// longer than the segment size — what an older build's Compact wrote —
// reloads in the one layout and holds the index of a store that added
// the same rows: 600 rows in one file at segment size 64 reload as nine
// 64-row segments and a 24-row tail, no walk unit longer than 64, with
// the same IndexBytes and, for every query under both metrics, the same
// hits and the same PruneStats; the next SaveDir writes the canonical
// layout, byte for byte the files of the store that added the rows, and
// removes the long file.
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
	want := filepath.Join(t.TempDir(), "added")
	if err := db.SaveDir(want); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "db")
	saveCut(t, dir, dim, sigs, n)
	back, err := loadDir(dir, seg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	back.setLaneFloor(1)
	back.SetWorkers(workers)
	back.setPruneFloor(1)
	checkLayout(t, "re-cut", back)
	if got, want := back.Segments(), (n+seg-1)/seg; got != want {
		t.Fatalf("%d segments after the re-cut, want %d", got, want)
	}
	if got, want := back.IndexBytes(), db.IndexBytes(); got != want {
		t.Fatalf("IndexBytes: reloaded %d, added %d", got, want)
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
				t.Fatalf("%s: PruneStats reloaded %+v, added %+v", tag, gotSt, wantSt)
			}
		}
	}
	if err := back.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, ok := dirState(t, dir)[segmentFileName(0)]; ok {
		t.Fatal("the long segment's file survived the canonical save")
	}
	sameLayout(t, "re-cut save", dir, want)
}

// sameLayout asserts two snapshot directories hold the same segment
// files in manifest order — the same record counts, byte for byte —
// whatever their ids.
func sameLayout(t *testing.T, tag, got, want string) {
	t.Helper()
	g, w := readManifest(t, got).Segments[0], readManifest(t, want).Segments[0]
	if len(g) != len(w) {
		t.Fatalf("%s: %d segment files, want %d", tag, len(g), len(w))
	}
	gs, ws := dirState(t, got), dirState(t, want)
	for i := range w {
		if g[i].Records != w[i].Records || !bytes.Equal(gs[g[i].File], ws[w[i].File]) {
			t.Fatalf("%s: segment %d is %s of %d records, want the bytes of %s of %d", tag, i, g[i].File, g[i].Records, w[i].File, w[i].Records)
		}
	}
}

// TestLoadDirRecutKeepsCanonicalFiles loads a directory that mixes the
// canonical cut with an older build's: at segment size 8, files of 8,
// 8, 3, 5, 8 and 2 rows, where only the 3- and 5-row files straddle the
// canonical boundaries. The loaded store has the one layout; a SaveDir
// back into the directory leaves the four canonical files untouched —
// inode and mtime — writes the one segment the two others held, removes
// them, and leaves the layout of a store that added the rows.
func TestLoadDirRecutKeepsCanonicalFiles(t *testing.T) {
	r := rand.New(rand.NewSource(173))
	const dim, nnz, seg = 40, 6, 8
	sigs := randSigs(r, 34, dim, nnz)
	dir := t.TempDir()
	saveCut(t, dir, dim, sigs, 8, 8, 3, 5, 8, 2)
	ents := readManifest(t, dir).Segments[0]
	stat := func(name string) os.FileInfo {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	canonical := map[string]os.FileInfo{}
	for _, i := range []int{0, 1, 4, 5} {
		canonical[ents[i].File] = stat(ents[i].File)
	}

	db, err := loadDir(dir, seg)
	if err != nil {
		t.Fatal(err)
	}
	checkLayout(t, "mixed load", db)
	if db.Segments() != 5 || db.ActiveUnindexedRows() != 0 {
		t.Fatalf("%d segments, %d unindexed rows; want 5, all indexed", db.Segments(), db.ActiveUnindexedRows())
	}
	before := dirState(t, dir)
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	after := dirState(t, dir)
	if got := newSegmentFiles(before, after); got != 1 {
		t.Fatalf("the save wrote %d segment files, want 1", got)
	}
	for name, fi := range canonical {
		if got := stat(name); !os.SameFile(got, fi) || !got.ModTime().Equal(fi.ModTime()) {
			t.Fatalf("canonical file %s was rewritten", name)
		}
	}
	for _, i := range []int{2, 3} {
		if _, ok := after[ents[i].File]; ok {
			t.Fatalf("straddling file %s survived the save", ents[i].File)
		}
	}
	ref, err := NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	ref.setSegmentSize(seg)
	if err := ref.AddAll(sigs); err != nil {
		t.Fatal(err)
	}
	want := t.TempDir()
	if err := ref.SaveDir(want); err != nil {
		t.Fatal(err)
	}
	sameLayout(t, "mixed re-save", dir, want)
	if got := readManifest(t, dir).NextSeg; got != uint64(len(ents))+1 {
		t.Fatalf("next_segment %d, want %d: the re-cut segment takes the first id past the old manifest's", got, len(ents)+1)
	}
}

// TestRestartKeepsOneLayout is the restart regression: r rounds of
// loadDir → AddAll m rows → SaveDir, every other round sealing before
// its save as a daemon's snapshot loop does, must leave the segment
// record counts of one process that added every row and saved once,
// and answer bit-identically to the brute-force oracle after every
// round. A reload that ended the tail segment left one more short
// segment per restart.
func TestRestartKeepsOneLayout(t *testing.T) {
	r := rand.New(rand.NewSource(179))
	const dim, nnz, seg, rounds, m = 40, 6, 8, 5, 7
	sigs := randSigs(r, rounds*m, dim, nnz)
	queries := fixtureQueries(sigs)
	dir := t.TempDir()
	for i := 0; i < rounds; i++ {
		var db *DB
		var err error
		if i == 0 {
			db, err = NewDB(dim)
			if err == nil {
				db.setSegmentSize(seg)
			}
		} else {
			db, err = loadDir(dir, seg)
		}
		if err != nil {
			t.Fatal(err)
		}
		db.setRunLen(3)
		if err := db.AddAll(sigs[i*m : (i+1)*m]); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			db.Seal()
		}
		if err := db.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("round %d", i)
		checkLayout(t, tag, db)
		if err := sameRows(db.All(), sigs[:(i+1)*m]); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		checkBruteForce(t, tag, db, queries)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	once, err := NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	once.setSegmentSize(seg)
	if err := once.AddAll(sigs); err != nil {
		t.Fatal(err)
	}
	want := t.TempDir()
	if err := once.SaveDir(want); err != nil {
		t.Fatal(err)
	}
	sameLayout(t, "restarted", dir, want)
	back, err := loadDir(dir, seg)
	if err != nil {
		t.Fatal(err)
	}
	checkLayout(t, "final load", back)
	checkBruteForce(t, "final load", back, queries)
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
