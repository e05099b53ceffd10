package core

import (
	"sync/atomic"

	"repro/internal/parallel"
)

// Epoch-pinned views: the concurrency backbone of the DB.
//
// Every query runs against a dbView — an immutable snapshot of the
// reader-visible state: the frozen prefixes of the backing arrays, the
// segment list (sealed segments and the active segment's
// posting runs by their compressed postings, the active segment's
// unindexed tail by its frozen bounds), and the query configuration.
// The current view is published through an atomic pointer; readers pin
// it with a refcount for the duration of one query (or one batch),
// writers mutate the writer-private structures under db.mu and publish
// a fresh view when the mutation completes.
//
// Why this is safe without a reader lock:
//
//   - Sealed segments are immutable (segment.go): their blockPostings
//     never change after seal, so any view may score them freely.
//   - The backing arrays (sigs/norms) are append-only. A
//     view captures length-clamped slices, so a writer's append — even
//     one that reallocates the backing array — never changes a byte a
//     reader can reach: appends beyond the captured length touch
//     distinct addresses, and a reallocation leaves the reader's old
//     slice header aliasing the old array.
//   - The active segment has no mutable index at all: its completed
//     posting runs are immutable blockPostings like a sealed segment's
//     (segment.go), and the < activeRunLen rows after the last run are
//     scored with the canonical gather dot over the frozen row prefix
//     (bit-identical to the indexed accumulation, see laneQuery.walk).
//   - Publication is an atomic pointer swap after the mutation is
//     complete, so a reader either sees the whole mutation or none of
//     it. The pin protocol (increment, then revalidate the pointer)
//     guarantees a validated pin was taken while the view was current,
//     and the view's current-pin reference keeps its refcount above
//     zero until the writer retires it — a validated pin therefore
//     always holds a view whose resources are still live.
//
// Deferred reclamation: resources that must outlive the views that can
// reach them — mmap'd posting blobs spliced away by Compact, snapshot
// files orphaned by SaveDir — are attached to the superseded view as
// reclaim actions. Retired views queue FIFO, and actions run only when
// a view and every older view have drained (refcount zero), preserving
// publication order; with no concurrent readers this happens
// synchronously inside the publish, so quiescent callers observe the
// exact pre-epoch behavior.
type dbView struct {
	// closed marks the terminal view Close publishes: every query
	// against it fails with the typed closed error before touching any
	// (released) segment state.
	closed bool
	// cfg snapshots the query configuration, so setters never race
	// in-flight queries.
	cfg viewCfg
	// sigs and norms are length-clamped aliases of the backing arrays:
	// the store prefix this view froze.
	sigs  []Signature
	norms []float64
	// segs is the frozen walk-unit list, in row order.
	segs []viewSegment
	// lanes is how many lanes a query walks (laneMinRows, laneChunk).
	lanes int
	// refs counts pins: 1 for being the current view (dropped on
	// retirement) plus 1 per in-flight reader.
	refs atomic.Int64
	// reclaim runs when this view and all older ones have drained;
	// set at retirement, executed exactly once under db.reclMu.
	reclaim []func()
}

// viewCfg is the query configuration frozen into a view. Values are
// normalized (floor >= 1) so query paths never consult the live DB
// fields.
type viewCfg struct {
	workers    int
	pruneFloor int
}

// viewSegment is one walk unit as a view sees it: a sealed segment or
// one posting run of the active segment (blocks is its immutable
// compressed postings over rows [start, end)), or — blocks nil — the
// active segment's unindexed tail, scored canonically.
type viewSegment struct {
	start, end int
	blocks     *blockPostings
}

// laneMinRows is the fewest rows a lane is given: a lane repeats the
// walk of the posting blocks it shares with the others and costs a
// goroutine hand-off, which a small store does not repay (measured in
// DESIGN-PERF.md Layer 3).
const laneMinRows = 4096

// laneChunk is how many consecutive rows the lanes are dealt at a time:
// lane l of p takes chunks l, l+p, l+2p, … (chunk c is rows
// [c·laneChunk, (c+1)·laneChunk)). A class of signatures arrives as a
// batch of consecutive rows, so its candidates split over the lanes,
// while each lane reads runs of rows and skips the posting blocks whose
// rows are all another lane's (pruneScratch.otherLanes).
const laneChunk = 512

// laneFirst returns the first row of lane l of p's first chunk that ends
// after row start. Lane l's rows from start on are therefore the chunks
// [c, c+laneChunk) for c = laneFirst, laneFirst + p·laneChunk, …, each
// cut to start.
func laneFirst(start, l, p int) int {
	c := start / laneChunk
	return (c + (l-c%p+p)%p) * laneChunk
}

// pinView returns the current view with a reader pin held. The
// increment-then-revalidate loop makes the pin race-free against
// publication: a pin that lands on a just-superseded view fails the
// revalidation (the view pointer moved) and retries — it never
// dereferences the stale view beyond its refcount, so reclamation
// already in flight is harmless.
func (db *DB) pinView() *dbView {
	for {
		v := db.cur.Load()
		v.refs.Add(1)
		if db.cur.Load() == v {
			return v
		}
		db.unpinView(v)
	}
}

// unpinView drops one pin; the last pin off a retired view triggers
// reclamation.
func (db *DB) unpinView(v *dbView) {
	if v.refs.Add(-1) == 0 {
		db.tryReclaim()
	}
}

// buildViewLocked assembles a fresh view from the writer state. Caller
// holds db.mu. The view starts with one reference — the current-pin —
// dropped when a later publish retires it.
//
// The view holds length-clamped array aliases (a later append can never
// write through them) and value copies of the segment bounds (seal and
// merge mutate segment structs in place, so views must never hold
// *segment). The active segment freezes into one viewSegment per
// posting run plus one blocks == nil segment for the rows no run covers
// yet.
func (db *DB) buildViewLocked() *dbView {
	n := len(db.sigs)
	nv := &dbView{
		closed: db.closed,
		cfg: viewCfg{
			workers:    db.workers,
			pruneFloor: db.pruneRowFloorLocked(),
		},
		sigs:  db.sigs[:n:n],
		norms: db.norms[:n:n],
	}
	nv.refs.Store(1)
	units := len(db.segs)
	if sg := db.activeSegment(); sg != nil {
		units += len(sg.runs)
	}
	nv.segs = make([]viewSegment, 0, units)
	for _, sg := range db.segs {
		if sg.sealed {
			nv.segs = append(nv.segs, viewSegment{start: sg.start, end: sg.end, blocks: sg.blocks})
			continue
		}
		at := sg.start
		for _, r := range sg.runs {
			nv.segs = append(nv.segs, viewSegment{start: at, end: at + r.n, blocks: r})
			at += r.n
		}
		if at < sg.end {
			nv.segs = append(nv.segs, viewSegment{start: at, end: sg.end})
		}
	}
	floor := laneMinRows
	if db.laneFloor > 0 {
		floor = db.laneFloor
	}
	nv.lanes = max(1, min(parallel.Workers(db.workers), n/floor))
	return nv
}

// publishLocked swaps in a freshly built view and retires the old one,
// attaching actions to run when it (and every older view) drains.
// Caller holds db.mu.
func (db *DB) publishLocked(actions ...func()) {
	db.publishViewLocked(db.buildViewLocked(), actions)
}

// publishViewLocked installs nv as the current view and queues the old
// one for in-order reclamation. Caller holds db.mu.
func (db *DB) publishViewLocked(nv *dbView, actions []func()) {
	old := db.cur.Swap(nv)
	db.publishes.Add(1)
	db.reclMu.Lock()
	old.reclaim = actions
	db.pendingViews = append(db.pendingViews, old)
	db.reclMu.Unlock()
	// Drop the current-pin. With no concurrent readers this drains the
	// queue synchronously, so quiescent callers see deferred work (map
	// releases, orphan removal) complete before their call returns.
	db.unpinView(old)
}

// tryReclaim pops drained views off the head of the retirement queue in
// FIFO order and runs their reclaim actions. A view is popped before
// its actions run and the queue is walked under db.reclMu, so each
// action runs exactly once; younger drained views wait for older pinned
// ones, preserving publication order (a Compact's map release always
// precedes a later Close's).
func (db *DB) tryReclaim() {
	db.reclMu.Lock()
	for len(db.pendingViews) > 0 && db.pendingViews[0].refs.Load() == 0 {
		v := db.pendingViews[0]
		db.pendingViews[0] = nil
		db.pendingViews = db.pendingViews[1:]
		for _, f := range v.reclaim {
			f()
		}
	}
	if len(db.pendingViews) == 0 {
		db.reclCond.Broadcast()
	}
	db.reclMu.Unlock()
}

// waitReclaimed blocks until every retired view has drained and its
// reclaim actions have run, then returns (and clears) the first
// recorded reclaim error. Close uses it to guarantee all mappings are
// released before it returns.
func (db *DB) waitReclaimed() error {
	db.reclMu.Lock()
	for len(db.pendingViews) > 0 {
		db.reclCond.Wait()
	}
	err := db.closeErr
	db.closeErr = nil
	db.reclMu.Unlock()
	return err
}
