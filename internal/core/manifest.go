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
//	                        ordered segment list (file name, record
//	                        count, CRC32 of the file body)
//	<dir>/seg-<id>.fms    — one file per segment:
//	  magic   "FMSG"                      (4 bytes)
//	  version uint16                      (2, the "v2.1" record; any
//	                                       other version is refused)
//	  dim     uint32
//	  count   uint32
//	  flags   uint8                       (written 0)
//	  count × signature records           (uvarint-gap support indices,
//	                                       raw float64 weights — see
//	                                       writeSigRecordV2)
//	  crc32   uint32                      (IEEE, over all preceding bytes)
//
// A snapshot holds signatures, not their index: the posting blocks are
// a pure function of the rows, so LoadDir cuts the rows into segments
// as Add does and rebuilds every segment's postings with encodeBlocks,
// the encoder seal uses — a store reloads with byte-identical postings.
// Files written by older builds set flags bit 0 and carry a sealed
// segment's posting blocks after the records; a load skips that section
// unread (the footer and manifest CRCs still cover it). Any other flag
// bit is refused, and a flags-0 body must end exactly after its last
// record.
//
// SaveDir writes only segments dirtied since the last save — the
// segments filled since, and the active segment whole once it grew;
// every file lands via temp + fsync + rename, and the manifest is
// renamed last, so a crash at any point leaves the previous save fully
// loadable (new segment files without a manifest referencing them are
// orphans, removed by the next successful save). LoadDir verifies each
// segment file's CRC against both its footer and the manifest before
// parsing a single record, and any mismatch, truncation, or missing
// file yields a *SnapshotError naming the file — never a partial DB.
//
// Insertion indices are not stored: segment k's records occupy the
// range right after segment k-1's, and a record's position is its
// insertion index, so a reload reconstructs the exact (score, insertion
// index) total order and answers TopK bit-identically. The manifest's
// "shards" field is always 1 and its segment list is a one-element
// list of lists — the layout the format has always had; a manifest
// naming any other shard count is refused.
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
	// Segments holds one list: the segments in record order.
	Segments [][]manifestSegment `json:"segments"`
}

// manifestSegment is one segment's manifest entry.
type manifestSegment struct {
	ID      uint64 `json:"id"`
	File    string `json:"file"`
	Records int    `json:"records"`
	CRC32   uint32 `json:"crc32"`
}

// SaveDir persists the database into the snapshot directory at path,
// creating it if needed. Only segments dirtied since the last SaveDir to
// the same path are rewritten — the segments filled since, the active
// segment whole if it grew, and the segments a LoadDir re-cut; a steady
// append workload therefore saves in O(new data + one segment). Every
// file is written to a temp name, fsynced, and renamed; the manifest
// goes last, so a crash mid-save never corrupts the previous snapshot.
// Files of replaced segments and abandoned temp files are removed once
// the new manifest is durable, before SaveDir returns.
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
	if db.saveDir != path {
		// A different target directory knows nothing of this DB: every
		// segment must land there, under an id past every one the
		// directory already uses — renaming over a file its current
		// manifest names would leave neither snapshot loadable if the
		// save died before the new manifest is durable.
		floor, err := dirNextSeg(path)
		if err != nil {
			return err
		}
		db.nextSeg = max(db.nextSeg, floor)
		for _, sg := range db.segs {
			sg.dirty = true
			if !sg.saved && sg.id < floor { // a saved one gets a fresh id below
				sg.id = db.nextSeg
				db.nextSeg++
			}
		}
	}
	wrote := false
	for _, sg := range db.segs {
		if !sg.dirty {
			continue
		}
		if sg.saved {
			// This segment's file is (or may be) referenced by a durable
			// manifest — a grown active segment being re-saved, or a save
			// into a fresh directory. Write under a fresh id and let the
			// old file live as an orphan until the new manifest is
			// durable, so a crash anywhere in this save leaves the
			// previous snapshot loadable.
			sg.id = db.nextSeg
			db.nextSeg++
		}
		crc, err := db.writeSegmentFile(path, sg)
		if err != nil {
			return err
		}
		sg.crc = crc
		sg.dirty = false
		sg.saved = true
		wrote = true
	}
	// Make the segment renames durable before the manifest can name
	// them: without this ordering a crash could persist the new manifest
	// but not a segment file's directory entry.
	if wrote {
		if err := syncDir(path); err != nil {
			return &SnapshotError{Path: path, Err: err}
		}
	}
	entries := []manifestSegment{}
	live := map[string]bool{manifestName: true}
	for _, sg := range db.segs {
		name := segmentFileName(sg.id)
		entries = append(entries, manifestSegment{ID: sg.id, File: name, Records: sg.len(), CRC32: sg.crc})
		live[name] = true
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
	db.saveDir = path
	// The replaced files are garbage now that the manifest is durable.
	// Views hold the rows and postings on the heap, so no query reads
	// them: remove them now.
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
// references: replaced segments, crash leftovers. Valid only after the
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

// writeSegmentFile writes one segment's file atomically and returns the
// CRC32 of its body (everything before the footer).
//
//fmeter:errdomain snapshot
func (db *DB) writeSegmentFile(dir string, sg *segment) (uint32, error) {
	final := filepath.Join(dir, segmentFileName(sg.id))
	f, err := fsCreateTemp(dir, ".tmp-seg-*")
	if err != nil {
		return 0, &SnapshotError{Path: final, Err: err}
	}
	tmp := f.Name()
	fail := func(err error) (uint32, error) {
		f.Close()
		fsRemove(tmp)
		return 0, &SnapshotError{Path: final, Err: err}
	}
	h := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(faultFile{f}, h))
	le := binary.LittleEndian
	var hdr [segHeaderSize]byte
	copy(hdr[:4], segMagic)
	le.PutUint16(hdr[4:6], segVersionBlocks)
	le.PutUint32(hdr[6:10], uint32(db.dim))
	le.PutUint32(hdr[10:14], uint32(sg.len()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fail(err)
	}
	if err := bw.WriteByte(0); err != nil { // flags
		return fail(err)
	}
	for j := sg.start; j < sg.end; j++ {
		if err := writeSigRecordV2(bw, db.sigs[j]); err != nil {
			return fail(fmt.Errorf("record %d: %w", j-sg.start, err))
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
		return 0, &SnapshotError{Path: final, Err: err}
	}
	if err := fsRename(tmp, final); err != nil {
		fsRemove(tmp)
		return 0, &SnapshotError{Path: final, Err: err}
	}
	return crc, nil
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
// segment file's CRC is verified against both its own footer and the
// manifest before any record is parsed; corruption, truncation, or a
// missing file yields a *SnapshotError naming the file, never a
// partially loaded database.
//
// The rows of every file, in manifest order, are cut into segments by
// the code Add uses, so a loaded store has the layout of one that added
// the same rows: every segment full but the last, which stays active
// (its whole range indexed as one run, as Seal leaves it) and takes the
// next Add. The DB remembers the directory. A segment whose range is
// exactly one manifest entry's keeps that file; any other — the rows of
// a directory an older build cut at other boundaries — is dirty under
// a fresh id past the manifest's next_segment, so the next SaveDir
// writes the canonical layout beside the old files and removes them
// only once its manifest is durable. A directory already cut that way
// re-saves as its manifest alone.
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
	// A file whose rows one segment holds exactly keeps its name: kept
	// maps a file's first row to its entry.
	seen := make(map[uint64]bool)
	kept := make(map[int]manifestSegment)
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
		if ent.Records > 0 {
			kept[len(rows)] = ent
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
	var p writePlan
	for _, s := range rows {
		db.addLocked(&p, s)
	}
	if sg := db.activeSegment(); sg != nil {
		p.seal(sg)
	}
	p.build(db.dim, db.sigs)
	db.nextSeg = m.NextSeg
	for _, sg := range db.segs {
		if ent, ok := kept[sg.start]; ok && ent.Records == sg.len() {
			sg.id, sg.crc, sg.saved, sg.dirty = ent.ID, ent.CRC32, true, false
			continue
		}
		sg.id = db.nextSeg
		db.nextSeg++
	}
	db.saveDir = path
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
	if flags&^segFlagPostings != 0 {
		return fail(fmt.Errorf("unknown segment flags %#02x", flags))
	}
	for i := 0; i < int(count); i++ {
		sig, err := readSigRecordV2(&cur, dim, arena)
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
