package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// Segmented storage: the stored signatures live in a run of append-only
// segments, and the layout is a function of the row count alone:
// segment k holds rows [k·S, (k+1)·S), S being SegmentSize. A segment
// is a view over a contiguous range of the backing arrays (sigs/norms,
// which only ever append — the in-memory analogue of a log-structured
// store) plus the posting runs that index it. A segment holds no disk
// state: which files hold which rows is SaveDir's decision alone (see
// manifest.go).
// Every segment but the last is full; the last is *active* while it
// holds fewer than S rows, and Add appends into it.
//
// A segment is indexed in *runs*: every time the active segment's
// unindexed tail reaches activeRunLen rows, the writer records those
// rows as one pending run, a row range and nothing more. When the
// segment fills, its runs are dropped, built or not, and its whole range
// is recorded as one pending run the same way; Seal, and LoadDir for the
// segment it leaves active, do the same to the active segment, which
// stays active. No writer encodes: the first query whose view holds a
// run builds its immutable blockPostings from the rows (encodeBlocks,
// postingRun.build), so at most activeRunLen-1 rows are ever scored row
// by row, nothing about the index is mutable once built, and a run no
// query walks costs no encode. Runs are not segments: Segments, the
// manifest and SaveDir never see them.
//
// A full segment is immutable: its record range, posting lists, and
// cached norms never change again, which is what lets SaveDir persist
// it as one file, once, and keep that file on every later save. The
// active segment only grows, so each save writes just the rows it
// gained since the last one, as one more file.
//
// A whole-segment run's postings are encodeBlocks over the segment's
// rows, however it came to be: filled by Add, recorded by Seal, or
// cut by LoadDir. So one row range has one index, in memory as
// after a reload, and because every walk scores a row from the same
// weights in the same order, TopK is bit-identical across any run and
// seal history (see DESIGN-PERF.md Layers 5–6).
type segment struct {
	// start/end delimit the record range [start, end): row indexes,
	// which are insertion indexes.
	start, end int
	// runs holds the segment's posting runs in row order, built or
	// pending: each covers the rows after the previous one's, the first
	// starting at start, the last ending at runEnd; rows [runEnd, end)
	// are the unindexed tail. A full segment holds one run over its
	// whole range.
	runs   []*postingRun
	runEnd int
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

// postingRun is one posting run of a segment: rows [start, start+n) of
// the store. A writer records the range; the run's postings are built
// at most once — by the first query whose view holds it (buildRuns) or
// by the introspection that counts them (DB.sumPostings) — and
// published through blocks. The run holds no rows: it builds from the
// row array of the view it is asked through, so a run that outlives its
// segment's earlier layout pins no superseded backing array.
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
// ranges (encodeBlocks). Concurrent callers build each run once between
// them, and a caller that finds every run built returns without a
// closure.
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

// indexRun records the active segment's unindexed tail as one pending
// run; its postings are built by the first query that walks it.
func (sg *segment) indexRun() {
	sg.runs = append(sg.runs, &postingRun{start: sg.runEnd, n: sg.end - sg.runEnd})
	sg.runEnd = sg.end
}

// seal records sg's whole record range as one pending run: sg's runs
// are dropped, built or not (a view that holds one may still build and
// walk it), unless one run already covers the range. Query results are
// bit-identical before and after — runs, tail scan and whole-segment
// runs all score a row from the same weights in the same order.
func (sg *segment) seal() {
	if len(sg.runs) != 1 || sg.runEnd != sg.end {
		sg.runs = []*postingRun{{start: sg.start, n: sg.len()}}
		sg.runEnd = sg.end
	}
}

// SegmentSize is the segment length: segment k holds rows
// [k·SegmentSize, (k+1)·SegmentSize), and only the last may hold fewer.
const SegmentSize = 8192

// segSizeLocked returns the segment length (db.segSize, a test
// override, defaulting to SegmentSize). Caller holds db.mu.
func (db *DB) segSizeLocked() int {
	if db.segSize > 0 {
		return db.segSize
	}
	return SegmentSize
}

// Segments returns the segment count (introspection for tests,
// benchmarks and operators): one per SegmentSize rows, the last
// rounded up. An active segment counts once however many posting runs
// and snapshot files hold it.
func (db *DB) Segments() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.segs)
}

// SealedSegments returns the full segment count: one per SegmentSize
// rows stored (Segments minus SealedSegments is the active-segment
// count, at most one; Seal indexes the active segment but does not
// end it).
func (db *DB) SealedSegments() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := len(db.segs)
	if db.activeSegment() != nil {
		n--
	}
	return n
}

// activeSegment returns the last segment while it holds fewer than
// SegmentSize rows, or nil when the store is empty or its last segment
// is full. Caller holds db.mu.
func (db *DB) activeSegment() *segment {
	if n := len(db.segs); n > 0 && db.segs[n-1].len() < db.segSizeLocked() {
		return db.segs[n-1]
	}
	return nil
}

// appendSegment opens a fresh active segment at the tail.
func (db *DB) appendSegment() *segment {
	n := len(db.sigs)
	sg := &segment{start: n, end: n, runEnd: n}
	db.segs = append(db.segs, sg)
	return sg
}

// Seal records the active segment's whole record range as one posting
// run, which the first query that walks it builds, so queries walk it
// as they walk a full segment and no row is left to score one by one.
// The segment stays active: the next Add appends to it, and it ends
// only when it holds SegmentSize rows. An empty store is left alone.
//
// Concurrent queries keep the view they loaded: the new run is
// published atomically afterward.
func (db *DB) Seal() {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return
	}
	if sg := db.activeSegment(); sg != nil {
		sg.seal()
	}
	db.publishLocked()
}
