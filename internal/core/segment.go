package core

import (
	"slices"

	"repro/internal/parallel"
)

// Segmented storage: the stored signatures live in a run of append-only
// segments. A segment is a view over a contiguous range of the backing
// arrays (sigs/norms, which only ever append —
// the in-memory analogue of a log-structured store) plus the segment's
// own inverted index over segment-local ids and its persistence state.
//
// The last segment may be *active*: DB.Add appends into it
// until it reaches SegmentSize rows, at which point it is sealed and the
// next Add opens a fresh active segment. The active segment is indexed
// in *runs*: every time its unindexed tail reaches activeRunLen rows,
// those rows get one immutable blockPostings built straight from the
// rows (encodeBlocks), which every later view walks exactly like a small
// sealed segment — so at most activeRunLen-1 rows are ever scored row
// by row, and nothing about the index is mutable. Runs are a
// query-side structure only: they are not segments (Segments, the
// manifest, SaveDir and compaction never see them) and sealing discards
// them, re-encoding the whole range from the rows so the sealed postings
// — and the bytes SaveDir writes — do not depend on the run history.
// Sealed segments are immutable: their record range, posting lists, and
// cached norms never change again, which is what lets SaveDir persist
// each one exactly once (temp + fsync + rename) and skip it on every
// later save.
//
// A sealed segment's postings are always encodeBlocks over its row
// range, however it came to be: rolled at SegmentSize, cut short by
// Seal, merged by Compact, or rebuilt by LoadDir. So one row range has
// one index, in memory as after a reload, and because every walk scores
// a row from the same weights in the same order, TopK is bit-identical
// across any seal/compaction history (see DESIGN-PERF.md Layers 5–6).
type segment struct {
	// id names the segment on disk (seg-<id>.fms); ids are DB-unique and
	// monotonically increasing, so compaction outputs never collide with
	// the files they replace.
	id uint64
	// start/end delimit the record range [start, end): row indexes,
	// which are insertion indexes.
	start, end int
	// runs holds the active segment's posting runs in row order: run i
	// covers the runs[i].n rows after run i-1's, the first
	// starting at start, the last ending at runEnd; rows [runEnd, end)
	// are the unindexed tail. Both are unused once sealed. A run slot is
	// nil only between the writePlan that opens it and that plan's build.
	runs   []*blockPostings
	runEnd int
	// blocks holds the sealed segment's block-compressed posting lists
	// (see postings.go); nil while the segment is active.
	blocks *blockPostings
	// sealed marks the segment immutable; only the last segment may be
	// unsealed.
	sealed bool
	// dirty marks the segment as not yet persisted to the DB's current
	// save directory. Cleared by SaveDir, set by Add and Compact.
	dirty bool
	// saved marks that a file named after this segment's id exists on
	// disk (and may be referenced by a durable manifest). Rewriting a
	// saved segment must take a fresh id so the old file survives until
	// the new manifest lands — never rename over a file the previous
	// snapshot still depends on.
	saved bool
	// crc is the CRC32 of the segment's file body, valid once saved
	// (recorded in the manifest so a tampered file is caught even when
	// its own footer was recomputed).
	crc uint32
}

// len returns the segment's record count.
func (sg *segment) len() int { return sg.end - sg.start }

// activeRunLen is how many unindexed rows an active segment accumulates
// before they are indexed as one run. It bounds the row-by-row tail of a
// query (< activeRunLen gather dots) against the fixed cost
// of a run (a dim-sized directory and bound table, ~46 KB at the paper's
// 3815 dimensions, and one more pruned walk per query).
const activeRunLen = 256

// runLenLocked returns the active run length (db.runLen, a test
// override, defaulting to activeRunLen). Caller holds db.mu.
func (db *DB) runLenLocked() int {
	if db.runLen > 0 {
		return db.runLen
	}
	return activeRunLen
}

// Writers plan, then build. The mutators that index rows (Add, AddAll,
// Seal, Compact) do their bookkeeping in order under db.mu — row
// appends, segment opens, seal and merge decisions, segment ids — and
// record the encodes those decisions call for in a writePlan instead of
// running them. build runs the recorded encodes over the cores, still
// under db.mu, once, before the call's one publish. The result is
// byte-for-byte what encoding each structure at its decision point
// would give: an encode reads a row range captured when it was planned
// (rows never change once appended) and fills a slot no other encode
// touches. A run is never built for a segment the same call seals —
// sealing discards runs.

// writePlan is the encode work one mutator call decided on and has not
// built yet.
type writePlan struct {
	encodes []encodeJob
}

// encodeJob builds the postings of rows, a range captured at plan time,
// into sg.runs[run], or into sg.blocks when run < 0.
type encodeJob struct {
	rows []Signature
	sg   *segment
	run  int
}

// indexRun plans one run over the active segment's unindexed tail of
// the store rows sigs: the run slot exists from here on, its postings
// once the plan is built.
func (p *writePlan) indexRun(sigs []Signature, sg *segment) {
	p.encodes = append(p.encodes, encodeJob{rows: sigs[sg.runEnd:sg.end], sg: sg, run: len(sg.runs)})
	sg.runs = append(sg.runs, nil)
	sg.runEnd = sg.end
}

// seal makes sg — the active segment, or a fresh merge of sealed ones —
// immutable: its whole record range is encoded into one blockPostings
// from the rows and its runs are dropped, with them any this plan has
// not built yet. Query results are
// bit-identical before and after — runs, tail scan and sealed blocks all
// score a row from the same weights in the same order.
func (p *writePlan) seal(sigs []Signature, sg *segment) {
	p.encodes = slices.DeleteFunc(p.encodes, func(j encodeJob) bool { return j.sg == sg })
	p.encodes = append(p.encodes, encodeJob{rows: sigs[sg.start:sg.end], sg: sg, run: -1})
	sg.runs = nil
	sg.sealed = true
}

// build runs the plan's pending encodes over the cores and empties it:
// the encodes fan out across each other, and each one across its
// dimension ranges (encodeBlocks), so a plan of one encode — a 256-row
// AddAll's run, a seal — still uses every core. An empty plan (most
// Adds) builds no closure. Caller holds db.mu.
func (p *writePlan) build(dim int) {
	encodes := p.encodes
	if len(encodes) == 0 {
		return
	}
	_ = parallel.For(0, len(encodes), func(k int) error {
		j := &encodes[k]
		bp := encodeBlocks(dim, j.rows)
		if j.run < 0 {
			j.sg.blocks = bp
		} else {
			j.sg.runs[j.run] = bp
		}
		return nil
	})
	p.encodes = encodes[:0]
}

// SegmentSize is the seal threshold: an active segment rolls into an
// immutable sealed segment once it holds this many signatures. Seal cuts
// a segment short of it; Compact merges runs of adjacent short ones.
const SegmentSize = 8192

// segSizeLocked returns the seal threshold (db.segSize, a test override,
// defaulting to SegmentSize). Caller holds db.mu.
func (db *DB) segSizeLocked() int {
	if db.segSize > 0 {
		return db.segSize
	}
	return SegmentSize
}

// Segments returns the segment count (introspection for tests,
// benchmarks, and operators deciding whether to Compact). Segments are
// the units of persistence and compaction; an active segment counts
// once however many posting runs it holds.
func (db *DB) Segments() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.segs)
}

// SealedSegments returns the sealed segment count: one per SegmentSize
// rows ingested, plus one per Seal that cut a segment short, less what
// Compact merged (Segments minus SealedSegments is the active-segment
// count, at most one; an active segment's posting runs are not sealed
// segments and are not counted).
func (db *DB) SealedSegments() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := len(db.segs)
	if db.activeSegment() != nil {
		n--
	}
	return n
}

// DirtySegments returns how many segments would be rewritten by the next
// SaveDir to the current save directory — the incremental-save cost in
// segments. A DB never saved (or saved to a different directory) counts
// every segment. Posting runs are never persisted: a dirty active
// segment is one file of rows, rewritten whole.
func (db *DB) DirtySegments() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for _, sg := range db.segs {
		if sg.dirty {
			n++
		}
	}
	return n
}

// activeSegment returns the unsealed tail segment, or nil when the
// store is empty or its tail is sealed. Caller holds db.mu.
func (db *DB) activeSegment() *segment {
	if n := len(db.segs); n > 0 && !db.segs[n-1].sealed {
		return db.segs[n-1]
	}
	return nil
}

// appendSegment opens a fresh active segment at the tail.
func (db *DB) appendSegment() *segment {
	n := len(db.sigs)
	sg := &segment{id: db.nextSeg, start: n, end: n, runEnd: n, dirty: true}
	db.nextSeg++
	db.segs = append(db.segs, sg)
	return sg
}

// Seal seals the active segment, making the whole store immutable
// until the next Add (which opens a fresh active segment) and encoding
// the sealed segment's posting lists from its rows. Sealing
// is what lets SaveDir stop rewriting a segment: a sealed, saved
// segment costs nothing on later saves. An empty active segment is left
// alone — sealing it would push a zero-length sealed segment into the
// manifest and every later compaction run for no data at all.
//
// Concurrent queries keep the view they loaded: the new segment lists
// are published atomically afterward.
func (db *DB) Seal() {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return
	}
	var p writePlan
	if sg := db.activeSegment(); sg != nil && sg.len() > 0 {
		p.seal(db.sigs, sg)
	}
	p.build(db.dim)
	db.publishLocked()
}

// Compact merges each maximal run of adjacent small sealed segments
// (each below the segment size) into one sealed segment whose postings
// are encoded from its rows, exactly as sealing or loading that range
// would encode them: a compacted store holds the index its reload
// does. The merges of one call are built together over the cores.
// Active segments and full-sized sealed segments are left alone. Query
// results are bit-identical before and after; the merged segments take
// fresh ids, are rewritten by the next SaveDir and their old files
// removed. In-flight queries keep scoring the pre-merge segments from
// the view they loaded.
func (db *DB) Compact() {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return
	}
	small := func(sg *segment) bool { return sg.sealed && sg.len() < db.segSizeLocked() }
	var p writePlan
	segs := db.segs
	out := segs[:0]
	for i := 0; i < len(segs); {
		j := i + 1
		for small(segs[i]) && j < len(segs) && small(segs[j]) {
			j++
		}
		if j-i == 1 {
			out = append(out, segs[i])
		} else {
			merged := &segment{id: db.nextSeg, start: segs[i].start, end: segs[j-1].end, dirty: true}
			db.nextSeg++
			p.seal(db.sigs, merged)
			out = append(out, merged)
		}
		i = j
	}
	// Drop the tail references so merged-away segments can be collected.
	clear(segs[len(out):])
	db.segs = out
	p.build(db.dim)
	db.publishLocked()
}
