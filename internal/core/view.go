package core

import "repro/internal/parallel"

// Epoch views: the concurrency backbone of the DB.
//
// Every query runs against a dbView — an immutable snapshot of the
// reader-visible state: the frozen prefixes of the backing arrays, the
// walk units (each segment's posting runs by their postings or, still
// pending, by the run that builds them, the active segment's unindexed
// tail by its frozen bounds), and the query configuration.
// The current view is published through an atomic pointer; a query
// loads it once for its whole duration, writers mutate the
// writer-private structures under db.mu and publish a fresh view when
// the mutation completes.
//
// Why this is safe without a reader lock:
//
//   - Built runs are immutable (segment.go): their blockPostings never
//     change once published, so any view may score them freely.
//   - The backing arrays (sigs/norms) are append-only. A
//     view captures length-clamped slices, so a writer's append — even
//     one that reallocates the backing array — never changes a byte a
//     reader can reach: appends beyond the captured length touch
//     distinct addresses, and a reallocation leaves the reader's old
//     slice header aliasing the old array.
//   - The active segment has no mutable index at all: each completed
//     posting run is an immutable blockPostings once built
//     (segment.go), and the < activeRunLen rows after the last run are
//     scored with the canonical gather dot over the frozen
//     row prefix (bit-identical to the indexed accumulation, see
//     laneQuery.walk). A run a view holds unbuilt is built once, by
//     whichever query gets to its sync.Once first, from rows every
//     holder of the view can reach, and published through the run's
//     atomic pointer: the view itself never changes.
//   - Publication is an atomic pointer swap after the mutation is
//     complete, so a reader either sees the whole mutation or none of
//     it.
//
// Everything a view reaches lives on the heap, so a superseded view
// needs no reclamation: a reader still holding it keeps what it scores
// alive, and the garbage collector frees it when the last reader lets
// go.
type dbView struct {
	// closed marks the terminal view Close publishes: every query
	// against it fails with the typed closed error (it holds no
	// segments).
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
	// runs are the posting runs still pending when the view was built;
	// a query builds them before its walk (buildRuns).
	runs []*postingRun
	// lanes is how many lanes a query walks (laneMinRows, laneChunk).
	lanes int
}

// viewCfg is the query configuration frozen into a view. Values are
// normalized (floor >= 1) so query paths never consult the live DB
// fields.
type viewCfg struct {
	workers    int
	pruneFloor int
}

// viewSegment is one walk unit as a view sees it: one built posting run
// (blocks is its immutable compressed postings over rows [start, end)),
// a full segment's or the active segment's; a run still pending when
// the view was built (run, whose postings the query builds and unit
// reads); or — blocks and run nil — the active segment's unindexed
// tail, scored canonically. No unit holds more than SegmentSize rows.
type viewSegment struct {
	start, end int
	blocks     *blockPostings
	run        *postingRun
}

// unit returns walk unit i with its postings in blocks, a pending run's
// as the query built them (buildRuns) — the copy the walk reads.
func (v *dbView) unit(i int) viewSegment {
	sg := v.segs[i]
	if sg.run != nil {
		sg.blocks = sg.run.blocks.Load()
	}
	return sg
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

// buildViewLocked assembles a fresh view from the writer state. Caller
// holds db.mu.
//
// The view holds length-clamped array aliases (a later append can never
// write through them) and value copies of the run bounds (Add and seal
// mutate segment structs in place, so views must never hold *segment).
// Each segment freezes into one viewSegment per posting run — its
// blocks when built, else the pending run — plus one blocks == nil
// segment for the rows no run covers yet.
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
	units := len(db.segs)
	if sg := db.activeSegment(); sg != nil {
		units += len(sg.runs)
	}
	nv.segs = make([]viewSegment, 0, units)
	for _, sg := range db.segs {
		for _, r := range sg.runs {
			u := viewSegment{start: r.start, end: r.start + r.n, blocks: r.blocks.Load()}
			if u.blocks == nil {
				u.run = r
				nv.runs = append(nv.runs, r)
			}
			nv.segs = append(nv.segs, u)
		}
		if sg.runEnd < sg.end {
			nv.segs = append(nv.segs, viewSegment{start: sg.runEnd, end: sg.end})
		}
	}
	floor := laneMinRows
	if db.laneFloor > 0 {
		floor = db.laneFloor
	}
	nv.lanes = max(1, min(parallel.Workers(db.workers), n/floor))
	return nv
}

// publishLocked swaps in a freshly built view. Caller holds db.mu.
func (db *DB) publishLocked() {
	db.cur.Store(db.buildViewLocked())
	db.publishes.Add(1)
}
