package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The snapshot directory: the one on-disk form of a DB. A directory
// instead of a single file, so a long-lived operator database saves in
// O(new data) instead of O(total). Layout:
//
//	<dir>/MANIFEST.json   — format marker, dim/shards/count, and the
//	                        ordered file list (file name, record
//	                        count, CRC32 of the file body)
//	<dir>/seg-<id>.fms    — one file per row range:
//	  magic   "FMSG"                      (4 bytes)
//	  version uint16                      (2, the "v2.1" record; any
//	                                       other version is refused)
//	  dim     uint32
//	  count   uint32
//	  flags   uint8                       (written 0x02, segFlagWeights)
//	  count × signature records           (uvarint-gap support indices,
//	                                       then the weights: a byte k
//	                                       and, for k in 1..5, a uvarint
//	                                       e0 and a bitstream of
//	                                       (52+k)-bit fields plus the
//	                                       escaped weights as raw
//	                                       float64s; for k = 0xFF raw
//	                                       float64s — see writeSigRecord)
//	  crc32   uint32                      (IEEE, over all preceding bytes)
//
// A snapshot holds signatures, not their index: the posting blocks are
// a pure function of the rows, so LoadDir cuts the rows into segments
// as Add does and records each one's range as a pending run, which the
// first query builds with encodeBlocks as it builds any run — a store
// reloads with byte-identical postings.
// Every weight reloads bit for bit under either weight form. The flags
// byte is read per file, so a directory may mix files of three values:
// 0x02 (what SaveDir writes) — records carry the weight encoding byte;
// 0 — the form of builds before it, weights as raw float64s; 0x01 — the
// same records followed by a sealed segment's posting blocks, which
// older builds wrote and a load skips unread (the footer and manifest
// CRCs still cover them). Every other value is refused, and a body
// without 0x01 must end exactly after its last record. Builds before
// 0x02 refuse a 0x02 file with a typed *SnapshotError ("unknown
// segment flags"), so a directory this build saved does not load in
// them.
//
// Files are row ranges, in manifest order, and one rule in SaveDir
// decides which file holds which rows: a file never spans two segments,
// a full segment is exactly one file, and the active segment is one
// file per save that grew it. A save keeps the files of the directory's
// durable manifest that fit the rule and writes only the rows they do
// not hold, each range to a new file under a fresh id — a file is never
// rewritten under its old name. Every file lands via temp + fsync +
// rename, a directory sync makes the renames durable, and the manifest
// is renamed last, so a crash at any point leaves the previous save
// fully loadable (new files without a manifest naming them are orphans,
// removed by the next successful save). LoadDir verifies each file's
// CRC against both its footer and the manifest before parsing a single
// record, and any mismatch, truncation, or missing file yields a
// *SnapshotError naming the file — never a partial DB.
//
// Insertion indices are not stored: file k's records occupy the range
// right after file k-1's, and a record's position is its insertion
// index, so a reload reconstructs the exact (score, insertion index)
// total order and answers TopK bit-identically. The manifest's
// "shards" field is always 1 and its file list is a one-element list
// of lists — the layout the format has always had; a manifest naming
// any other shard count is refused.
const (
	manifestName    = "MANIFEST.json"
	manifestFormat  = "fmdb-dir"
	manifestVersion = 2
	segMagic        = "FMSG"
	// segVersionBlocks is the v2.1 record body, the only one read or
	// written: gap-encoded signature records.
	segVersionBlocks = 2
	// segFlagPostings marks an older build's body carrying a postings
	// section after its records; loads skip it.
	segFlagPostings = 0x01
	// segFlagWeights marks a body whose records carry a weight encoding
	// (writeSigRecord); every file SaveDir writes sets it, and no other.
	segFlagWeights = 0x02
	// segHeaderSize is the fixed segment prefix: magic + version + dim +
	// count.
	segHeaderSize = 4 + 2 + 4 + 4
)

// segmentFileName names segment id's file inside a snapshot directory.
func segmentFileName(id uint64) string { return fmt.Sprintf("seg-%08d.fms", id) }

// SnapshotError reports a corrupt, missing, or unreadable piece of a
// snapshot — a snapshot directory file, or the model JSON stream. It is
// typed so callers can tell storage corruption from API misuse, and it
// names the offending file when the snapshot has one.
type SnapshotError struct {
	// Path is the file that failed (a segment file, the manifest, or the
	// path handed to the loader). Empty for the model codec, which reads
	// whatever stream the caller handed it.
	Path string
	// Err is the underlying cause (CRC mismatch, truncation, fs error).
	Err error
}

// Error implements error.
func (e *SnapshotError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("core: snapshot: %v", e.Err)
	}
	return fmt.Sprintf("core: snapshot file %s: %v", e.Path, e.Err)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *SnapshotError) Unwrap() error { return e.Err }

// manifestJSON is the on-disk manifest.
type manifestJSON struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Dim     int    `json:"dim"`
	// Shards is always 1 (see above).
	Shards  int    `json:"shards"`
	Count   int    `json:"count"`
	NextSeg uint64 `json:"next_segment"`
	// Segments holds one list: the files in record order.
	Segments [][]manifestSegment `json:"segments"`
}

// manifestSegment is one file's manifest entry.
type manifestSegment struct {
	ID      uint64 `json:"id"`
	File    string `json:"file"`
	Records int    `json:"records"`
	CRC32   uint32 `json:"crc32"`
}

// SaveDir persists the database into the snapshot directory at path,
// creating it if needed. A file holds a row range that never spans two
// segments: a full segment is exactly one file, and the active segment
// is one file per save that grew it. Back into the directory it last
// saved to or was loaded from, SaveDir keeps every file of that
// directory's manifest that still fits this rule and writes only the
// rows no kept file holds, so a steady append workload saves in O(new
// data); the short files of a segment give way to one file when it
// fills. Each new file takes a fresh id, lands via temp + fsync +
// rename, and the manifest goes last, so a crash mid-save never
// corrupts the previous snapshot. Files the new manifest does not name
// and abandoned temp files are removed once it is durable, before
// SaveDir returns.
//
// SaveDir serializes with Add/Seal (one writer side) but never
// blocks queries, which keep scoring their loaded views throughout.
// Every failure is a typed *SnapshotError (or *ConfigError for misuse
// of a closed database).
//
//fmeter:errdomain snapshot
func (db *DB) SaveDir(path string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed()
	}
	if db.dim > maxSnapshotDim {
		return &SnapshotError{Path: path, Err: fmt.Errorf("dimension %d exceeds snapshot format bound %d", db.dim, maxSnapshotDim)}
	}
	if err := fsMkdirAll(path, 0o755); err != nil {
		return &SnapshotError{Path: path, Err: err}
	}
	files := db.files
	if db.saveDir != path {
		// A different target directory holds none of this DB's rows:
		// every row lands in a new file, under an id past every one the
		// directory already uses, so no rename replaces a file its
		// current manifest names.
		floor, err := dirNextSeg(path)
		if err != nil {
			return err
		}
		files, db.nextSeg = nil, max(db.nextSeg, floor)
	}
	// Walk the segments with a cursor: entries hold the rows before it,
	// and files[0] holds the rows from at on. An old file is kept when it
	// starts at the cursor and ends inside the segment — for a full
	// segment, when it holds the segment whole; the segment's remaining
	// rows go to one new file.
	entries := []manifestSegment{}
	cursor, at, wrote := 0, 0, false
	for _, sg := range db.segs {
		full := sg.len() == db.segSizeLocked()
		for len(files) > 0 && at == cursor && at+files[0].Records <= sg.end && (!full || files[0].Records == sg.len()) {
			entries = append(entries, files[0])
			at += files[0].Records
			cursor, files = at, files[1:]
		}
		if cursor < sg.end {
			id := db.nextSeg
			db.nextSeg++
			ent, err := db.writeSegmentFile(path, id, cursor, sg.end)
			if err != nil {
				return err
			}
			entries = append(entries, ent)
			cursor, wrote = sg.end, true
		}
		for len(files) > 0 && at < cursor {
			at += files[0].Records
			files = files[1:]
		}
	}
	// Make the new files' renames durable before the manifest can name
	// them: without this ordering a crash could persist the new manifest
	// but not a segment file's directory entry.
	if wrote {
		if err := syncDir(path); err != nil {
			return &SnapshotError{Path: path, Err: err}
		}
	}
	m := manifestJSON{
		Format:   manifestFormat,
		Version:  manifestVersion,
		Dim:      db.dim,
		Shards:   1,
		Count:    len(db.sigs),
		NextSeg:  db.nextSeg,
		Segments: [][]manifestSegment{entries},
	}
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return &SnapshotError{Path: path, Err: fmt.Errorf("encoding manifest: %w", err)}
	}
	mpath := filepath.Join(path, manifestName)
	if err := writeFileAtomic(mpath, append(buf, '\n')); err != nil {
		return &SnapshotError{Path: mpath, Err: err}
	}
	if err := syncDir(path); err != nil {
		return &SnapshotError{Path: path, Err: err}
	}
	db.saveDir, db.files = path, entries
	// The files the manifest no longer names are garbage now that it is
	// durable. Views hold the rows and postings on the heap, so no query
	// reads them: remove them now.
	live := map[string]bool{manifestName: true}
	for _, ent := range entries {
		live[ent.File] = true
	}
	stale, err := listOrphans(path, live)
	if err != nil {
		return err
	}
	for _, name := range stale {
		fp := filepath.Join(path, name)
		if err := fsRemove(fp); err != nil && !os.IsNotExist(err) {
			return &SnapshotError{Path: fp, Err: err}
		}
	}
	return nil
}

// dirNextSeg returns the first segment id past dir's manifest
// next_segment and past every segment file in dir.
//
//fmeter:errdomain snapshot
func dirNextSeg(dir string) (uint64, error) {
	entries, err := fsReadDir(dir)
	if err != nil {
		return 0, &SnapshotError{Path: dir, Err: err}
	}
	var next uint64
	for _, e := range entries {
		name := e.Name()
		if name == manifestName {
			mpath := filepath.Join(dir, name)
			raw, err := fsReadFile(mpath)
			if err != nil {
				return 0, &SnapshotError{Path: mpath, Err: err}
			}
			var m manifestJSON
			if json.Unmarshal(raw, &m) == nil { // a corrupt manifest names nothing loadable
				next = max(next, m.NextSeg)
			}
			continue
		}
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".fms") {
			continue
		}
		if id, err := strconv.ParseUint(name[len("seg-"):len(name)-len(".fms")], 10, 64); err == nil {
			next = max(next, id+1)
		}
	}
	return next, nil
}

// listOrphans names segment and temp files the manifest no longer
// references: replaced files, crash leftovers. Valid only after the
// new manifest is durable.
//
//fmeter:errdomain snapshot
func listOrphans(dir string, live map[string]bool) ([]string, error) {
	entries, err := fsReadDir(dir)
	if err != nil {
		return nil, &SnapshotError{Path: dir, Err: err}
	}
	var stale []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ".tmp-") ||
			(strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".fms") && !live[name]) {
			stale = append(stale, name)
		}
	}
	return stale, nil
}

// writeSegmentFile writes rows [start, end) atomically to a new file
// under id and returns its manifest entry.
//
//fmeter:errdomain snapshot
func (db *DB) writeSegmentFile(dir string, id uint64, start, end int) (manifestSegment, error) {
	name := segmentFileName(id)
	final := filepath.Join(dir, name)
	f, err := fsCreateTemp(dir, ".tmp-seg-*")
	if err != nil {
		return manifestSegment{}, &SnapshotError{Path: final, Err: err}
	}
	tmp := f.Name()
	fail := func(err error) (manifestSegment, error) {
		f.Close()
		fsRemove(tmp)
		return manifestSegment{}, &SnapshotError{Path: final, Err: err}
	}
	h := crc32.NewIEEE()
	// Records append into the buffer's free space (writeSigRecord); a
	// buffer many records long keeps the ones that do not fit rare.
	bw := bufio.NewWriterSize(io.MultiWriter(faultFile{f}, h), 64<<10)
	le := binary.LittleEndian
	var hdr [segHeaderSize]byte
	copy(hdr[:4], segMagic)
	le.PutUint16(hdr[4:6], segVersionBlocks)
	le.PutUint32(hdr[6:10], uint32(db.dim))
	le.PutUint32(hdr[10:14], uint32(end-start))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fail(err)
	}
	if err := bw.WriteByte(segFlagWeights); err != nil {
		return fail(err)
	}
	for j := start; j < end; j++ {
		if err := writeSigRecord(bw, db.sigs[j]); err != nil {
			return fail(fmt.Errorf("record %d: %w", j-start, err))
		}
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	crc := h.Sum32()
	var foot [4]byte
	le.PutUint32(foot[:], crc)
	if _, err := fsWrite(f, foot[:]); err != nil {
		return fail(err)
	}
	if err := fsSync(f); err != nil {
		return fail(err)
	}
	if err := fsClose(f); err != nil {
		fsRemove(tmp)
		return manifestSegment{}, &SnapshotError{Path: final, Err: err}
	}
	if err := fsRename(tmp, final); err != nil {
		fsRemove(tmp)
		return manifestSegment{}, &SnapshotError{Path: final, Err: err}
	}
	return manifestSegment{ID: id, File: name, Records: end - start, CRC32: crc}, nil
}

// writeFileAtomic writes data to path via temp + fsync + rename: readers
// only ever observe the old content or the new, never a torn write.
func writeFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	f, err := fsCreateTemp(dir, ".tmp-"+base+"-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := fsWrite(f, data); err != nil {
		f.Close()
		fsRemove(tmp)
		return err
	}
	if err := fsSync(f); err != nil {
		f.Close()
		fsRemove(tmp)
		return err
	}
	if err := fsClose(f); err != nil {
		fsRemove(tmp)
		return err
	}
	if err := fsRename(tmp, path); err != nil {
		fsRemove(tmp)
		return err
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable.
func syncDir(path string) error {
	if err := fsCheck(opSyncDir, path); err != nil {
		return err
	}
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// LoadDir loads a snapshot directory written by SaveDir. Every
// file's CRC is verified against both its own footer and the manifest
// before any record is parsed; corruption, truncation, or a missing
// file yields a *SnapshotError naming the file, never a partially
// loaded database.
//
// The rows of every file, in manifest order, are cut into segments by
// the code Add uses, so a loaded store has the layout of one that added
// the same rows: every segment full but the last, which stays active
// (its whole range recorded as one run, as Seal leaves it) and takes the
// next Add. A load reads, verifies and decodes; it encodes no postings —
// the first query builds every run it walks. How the files cut the rows
// does not matter to the load. The DB remembers the directory and its
// manifest's files, so the next SaveDir there keeps the files that fit
// its rule — a directory already cut that way, grown or not, keeps them
// all — and writes the rest of the rows, an older build's cut included,
// as new files beside the old ones, which it removes only once its
// manifest is durable.
//
//fmeter:errdomain snapshot
func LoadDir(path string) (*DB, error) { return loadDir(path, 0) }

// loadDir is LoadDir cutting segments of segSize rows (0 meaning
// SegmentSize; tests lower it).
//
//fmeter:errdomain snapshot
func loadDir(path string, segSize int) (*DB, error) {
	mpath := filepath.Join(path, manifestName)
	raw, err := fsReadFile(mpath)
	if err != nil {
		return nil, &SnapshotError{Path: mpath, Err: err}
	}
	var m manifestJSON
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, &SnapshotError{Path: mpath, Err: err}
	}
	if m.Format != manifestFormat {
		return nil, &SnapshotError{Path: mpath, Err: fmt.Errorf("format %q, want %q", m.Format, manifestFormat)}
	}
	if m.Version != manifestVersion {
		return nil, &SnapshotError{Path: mpath, Err: fmt.Errorf("unsupported version %d (have %d)", m.Version, manifestVersion)}
	}
	if m.Dim < 1 || m.Dim > maxSnapshotDim {
		return nil, &SnapshotError{Path: mpath, Err: fmt.Errorf("dimension %d outside [1, %d]", m.Dim, maxSnapshotDim)}
	}
	if m.Shards != 1 || len(m.Segments) != 1 {
		return nil, &SnapshotError{Path: mpath, Err: fmt.Errorf("%d shards in %d segment lists, want 1 in 1 (a store is one row sequence; "+
			"rewrite a sharded snapshot with a build that still reads it: fmeter.OpenDB it, AddAll its All() into NewDB(dim, WithShards(1)), SaveDB)", m.Shards, len(m.Segments))}
	}
	db, err := NewDB(m.Dim)
	if err != nil {
		return nil, err
	}
	db.segSize = segSize
	seen := make(map[uint64]bool)
	var rows []Signature
	var arena sigArena
	for _, ent := range m.Segments[0] {
		if seen[ent.ID] {
			return nil, &SnapshotError{Path: mpath, Err: fmt.Errorf("segment id %d listed twice", ent.ID)}
		}
		seen[ent.ID] = true
		if ent.ID >= m.NextSeg {
			return nil, &SnapshotError{Path: mpath, Err: fmt.Errorf("segment id %d >= next_segment %d", ent.ID, m.NextSeg)}
		}
		if ent.File != segmentFileName(ent.ID) {
			return nil, &SnapshotError{Path: mpath, Err: fmt.Errorf("segment %d file %q, want %q", ent.ID, ent.File, segmentFileName(ent.ID))}
		}
		if rows, err = readSegmentFile(path, ent, m.Dim, rows, &arena); err != nil {
			return nil, err
		}
	}
	if len(rows) != m.Count {
		return nil, &SnapshotError{Path: mpath, Err: fmt.Errorf("segments hold %d records, manifest count says %d", len(rows), m.Count)}
	}
	db.sigs = make([]Signature, 0, len(rows))
	db.norms = make([]float64, 0, len(rows))
	for _, s := range rows {
		db.addLocked(s)
	}
	if sg := db.activeSegment(); sg != nil {
		sg.seal()
	}
	db.saveDir, db.files, db.nextSeg = path, m.Segments[0], m.NextSeg
	// The DB is still private to this goroutine; refresh the published
	// view to cover the loaded segments before any query can load it.
	db.cur.Store(db.buildViewLocked())
	return db, nil
}

// readSegmentFile verifies and parses one segment file of a dim-wide
// store, appending its records to rows; their weights are carved from
// arena, which the files of one load share.
//
//fmeter:errdomain snapshot
func readSegmentFile(dir string, ent manifestSegment, dim int, rows []Signature, arena *sigArena) ([]Signature, error) {
	path := filepath.Join(dir, ent.File)
	raw, err := fsReadFile(path)
	if err != nil {
		return nil, &SnapshotError{Path: path, Err: err}
	}
	fail := func(err error) ([]Signature, error) {
		return nil, &SnapshotError{Path: path, Err: err}
	}
	if len(raw) < segHeaderSize+4 {
		return fail(fmt.Errorf("truncated: %d bytes, need at least %d", len(raw), segHeaderSize+4))
	}
	body, foot := raw[:len(raw)-4], raw[len(raw)-4:]
	le := binary.LittleEndian
	crc := crc32.ChecksumIEEE(body)
	if got := le.Uint32(foot); got != crc {
		return fail(fmt.Errorf("CRC mismatch: footer %08x, body computes %08x", got, crc))
	}
	if crc != ent.CRC32 {
		return fail(fmt.Errorf("CRC %08x does not match manifest's %08x", crc, ent.CRC32))
	}
	if string(body[:4]) != segMagic {
		return fail(fmt.Errorf("bad segment magic %q", body[:4]))
	}
	version := le.Uint16(body[4:6])
	if version != segVersionBlocks {
		return fail(fmt.Errorf("unsupported segment version %d (have %d)", version, segVersionBlocks))
	}
	if d := le.Uint32(body[6:10]); int(d) != dim {
		return fail(fmt.Errorf("dimension %d, manifest says %d", d, dim))
	}
	count := le.Uint32(body[10:14])
	if int(count) != ent.Records {
		return fail(fmt.Errorf("record count %d, manifest says %d", count, ent.Records))
	}
	// A record is at least 3 bytes (three uvarints), so a count beyond
	// this bound cannot be satisfied by the body — reject before looping.
	const minRecord = 3
	if int64(count) > int64(len(body)-segHeaderSize)/minRecord {
		return fail(fmt.Errorf("record count %d exceeds file capacity", count))
	}
	// Decoded with the direct byte cursor (no reader indirection on the
	// half-million-uvarint hot path of a cold open).
	cur := byteCursor{b: body[segHeaderSize:]}
	flags, err := cur.byte()
	if err != nil {
		return fail(fmt.Errorf("flags: %w", err))
	}
	if flags != 0 && flags != segFlagPostings && flags != segFlagWeights {
		return fail(fmt.Errorf("unknown segment flags %#02x", flags))
	}
	for i := 0; i < int(count); i++ {
		sig, err := readSigRecord(&cur, dim, flags == segFlagWeights, arena)
		if err != nil {
			return fail(fmt.Errorf("record %d: %w", i, err))
		}
		rows = append(rows, sig)
	}
	// An older build's postings section is skipped unread.
	if rest := len(cur.b) - cur.pos; rest != 0 && flags&segFlagPostings == 0 {
		return fail(fmt.Errorf("%d trailing bytes after record %d", rest, count))
	}
	return rows, nil
}

// byteCursor is a direct cursor over a CRC-verified segment body — the
// allocation-free, indirection-free reader of the cold-open hot path
// (half a million uvarints decode through it on the benchmark corpus).
// Truncation surfaces as io.ErrUnexpectedEOF.
type byteCursor struct {
	b   []byte
	pos int
}

// byte consumes one byte.
func (c *byteCursor) byte() (byte, error) {
	if c.pos >= len(c.b) {
		return 0, io.ErrUnexpectedEOF
	}
	v := c.b[c.pos]
	c.pos++
	return v, nil
}

// uvarint consumes one unsigned varint.
func (c *byteCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		if n == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		return 0, fmt.Errorf("varint overflows a 64-bit integer")
	}
	c.pos += n
	return v, nil
}

// take consumes n bytes, returning them as a capacity-clamped alias of
// the underlying body (callers copy what they keep).
func (c *byteCursor) take(n int) ([]byte, error) {
	if n > len(c.b)-c.pos {
		return nil, io.ErrUnexpectedEOF
	}
	s := c.b[c.pos : c.pos+n : c.pos+n]
	c.pos += n
	return s, nil
}
