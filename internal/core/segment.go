package core

import (
	"sync"
	"sync/atomic"

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
// the writer records those rows as one pending run, a row range and
// nothing more. The first query whose view holds the run builds its
// immutable blockPostings from the rows (encodeBlocks, postingRun.build)
// and every later view walks it exactly like a small sealed segment —
// so at most activeRunLen-1 rows are ever scored row by row, nothing
// about the index is mutable once built, and a run no query walks
// costs no encode. Runs are a query-side structure only: they are not
// segments (Segments, the manifest, SaveDir and compaction never see
// them) and sealing discards them, built or not, encoding the whole
// range from the rows so the sealed postings — and the bytes SaveDir
// writes — do not depend on the run history.
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
	// runs holds the active segment's posting runs in row order, built
	// or pending: each covers the rows after the previous one's, the
	// first starting at start, the last ending at runEnd; rows
	// [runEnd, end) are the unindexed tail. Both are unused once sealed.
	runs   []*postingRun
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
// before they are recorded as one run. It bounds the row-by-row tail of
// a query (< activeRunLen gather dots) against the fixed cost of a run:
// a dim-sized directory and bound table (~46 KB at the paper's 3815
// dimensions), one more pruned walk per query, and one encode, paid by
// the first query that walks the run.
const activeRunLen = 256

// postingRun is one posting run of an active segment: rows
// [start, start+n) of the store. A writer only records the range; the
// run's postings are built at most once, by the first query whose view
// holds it (buildRuns) or by the introspection that counts them
// (DB.sumPostings), and published through blocks. The run holds no
// rows: it builds from the row array of the view or DB it is asked
// through, so a run that outlives its segment pins no superseded
// backing array.
type postingRun struct {
	start, n int
	once     sync.Once
	blocks   atomic.Pointer[blockPostings]
}

// build encodes the run's rows out of sigs, the store rows (any prefix
// holding them), unless another caller has; a caller arriving while the
// build runs waits for it. The postings depend only on the rows, so
// whichever caller wins builds the same bytes.
func (r *postingRun) build(dim int, sigs []Signature) {
	r.once.Do(func() { r.blocks.Store(encodeBlocks(dim, sigs[r.start:r.start+r.n])) })
}

// buildRuns builds the runs not yet built from sigs, unless every one
// is: the runs fan out over the cores and each one across its dimension
// ranges (encodeBlocks), the way a writer's plan builds its seals.
// Concurrent callers build each run once between them, and a caller
// that finds every run built returns without a closure.
func buildRuns(dim int, sigs []Signature, runs []*postingRun) {
	for _, r := range runs {
		if r.blocks.Load() == nil {
			_ = parallel.For(0, len(runs), func(i int) error {
				runs[i].build(dim, sigs)
				return nil
			})
			return
		}
	}
}

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
// appends, segment opens, run ranges, seal and merge decisions, segment
// ids — and record the seal encodes those decisions call for in a
// writePlan instead of running them. build runs the recorded encodes
// over the cores, still under db.mu, once, before the call's one
// publish. The result is byte-for-byte what encoding each segment at
// its decision point would give: an encode reads a row range captured
// when it was planned (rows never change once appended) and fills a
// slot no other encode touches. A writer builds no run: it records the
// range (indexRun), and a query builds it (postingRun).

// writePlan is the seal work one mutator call decided on and has not
// built yet.
type writePlan struct {
	encodes []encodeJob
}

// encodeJob builds the postings of rows, a range captured at plan time,
// into sg.blocks.
type encodeJob struct {
	rows []Signature
	sg   *segment
}

// indexRun records the active segment's unindexed tail as one pending
// run; its postings are built by the first query that walks it.
func (sg *segment) indexRun() {
	sg.runs = append(sg.runs, &postingRun{start: sg.runEnd, n: sg.end - sg.runEnd})
	sg.runEnd = sg.end
}

// seal makes sg — the active segment, or a fresh merge of sealed ones —
// immutable: its whole record range is encoded into one blockPostings
// from the rows and its runs are dropped, built or not (a view that
// holds one may still build and walk it). Query results are
// bit-identical before and after — runs, tail scan and sealed blocks all
// score a row from the same weights in the same order.
func (p *writePlan) seal(sigs []Signature, sg *segment) {
	p.encodes = append(p.encodes, encodeJob{rows: sigs[sg.start:sg.end], sg: sg})
	sg.runs = nil
	sg.sealed = true
}

// build runs the plan's seal encodes over the cores and empties it: the
// encodes fan out across each other, and each one across its dimension
// ranges (encodeBlocks), so a plan of one seal still uses every core.
// An empty plan (almost every Add and AddAll) builds no closure. Caller
// holds db.mu.
func (p *writePlan) build(dim int) {
	encodes := p.encodes
	if len(encodes) == 0 {
		return
	}
	_ = parallel.For(0, len(encodes), func(k int) error {
		j := &encodes[k]
		j.sg.blocks = encodeBlocks(dim, j.rows)
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
