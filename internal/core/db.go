package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/percpu"
	"repro/internal/vecmath"
)

// Metric is one of the two similarity measures the store ranks by:
// CosineMetric or EuclideanMetric, the two §2.1 metrics the paper's
// evaluation compares signatures with. A query scores both from the
// query–signature dot product and the two cached squared norms
// (cosineDotScore, euclideanDotScore), which is what lets it route
// through the inverted index, scoring only the posting lists in the
// query's support. The set is closed: every query entry answers any
// other Metric, the zero value and a hand-built copy of a built-in
// included, with a typed *ConfigError.
type Metric struct {
	// Name identifies the metric in reports.
	Name string
	// Score computes the metric value for two dense vectors of equal
	// dimension. The store never calls it; it serves callers comparing
	// dense vectors outside a DB.
	Score func(x, y vecmath.Vector) (float64, error)
	// HigherIsCloser is true for similarities (cosine) and false for
	// distances (Euclidean).
	HigherIsCloser bool
	// kind tags the built-in metric; only the package constructors can
	// set it.
	kind metricKind
}

// metricKind discriminates the built-in metrics; the zero value is none
// of them.
type metricKind uint8

const (
	metricKindNone metricKind = iota
	metricKindCosine
	metricKindEuclidean
)

// checkMetric rejects any Metric a constructor did not build: no kind,
// or an ordering that contradicts it.
//
//fmeter:errdomain config
func checkMetric(m Metric) error {
	if m.kind == metricKindNone || m.HigherIsCloser != (m.kind == metricKindCosine) {
		return &ConfigError{Param: "metric", Msg: fmt.Sprintf("metric %q is neither CosineMetric nor EuclideanMetric", m.Name)}
	}
	return nil
}

// cosineDotScore mirrors vecmath's test oracle Sparse.Cosine exactly:
// same zero-norm guard, same divisor association, same clamp.
func cosineDotScore(dot, qNorm2, sNorm2 float64) float64 {
	if qNorm2 == 0 || sNorm2 == 0 {
		return 0
	}
	c := dot / (math.Sqrt(qNorm2) * math.Sqrt(sNorm2))
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// euclideanDotScore mirrors vecmath's test oracles Sparse.Euclidean and
// SquaredDistance exactly: same evaluation order, same negative clamp,
// same sqrt.
func euclideanDotScore(dot, qNorm2, sNorm2 float64) float64 {
	d2 := qNorm2 - 2*dot + sNorm2
	if d2 < 0 {
		d2 = 0
	}
	return math.Sqrt(d2)
}

// CosineMetric is the cosine similarity of §2.1. The store's score is
// bit-identical to the dense one (both accumulate in index order).
func CosineMetric() Metric {
	return Metric{
		Name:           "cosine",
		Score:          vecmath.Cosine,
		HigherIsCloser: true,
		kind:           metricKindCosine,
	}
}

// EuclideanMetric is the L2-induced distance, the paper's default. The
// store scores it with the cached-norm identity ||x||²-2x·y+||y||²,
// which agrees with the dense loop to ~1e-9 relative but is not
// bit-identical.
func EuclideanMetric() Metric {
	return Metric{
		Name:           "euclidean",
		Score:          vecmath.Euclidean,
		HigherIsCloser: false,
		kind:           metricKindEuclidean,
	}
}

// DimensionError reports a signature or query whose dimension does not
// match the database's term space. It is a typed error so callers can
// distinguish a mis-sized input from scan-time failures.
type DimensionError struct {
	// What identifies the offending input ("query 0", "signature <id>").
	What string
	// Got and Want are the mismatched dimensions.
	Got, Want int
}

// Error implements error.
func (e *DimensionError) Error() string {
	return fmt.Sprintf("core: %s has dimension %d, want %d", e.What, e.Got, e.Want)
}

// ConfigError reports a construction or configuration parameter outside
// its accepted range (a non-positive dimension, a k below 1). It is a
// typed error so callers can
// distinguish a bad knob from runtime failures.
type ConfigError struct {
	// Param names the offending parameter ("dimension", "k")
	// or, for usage errors, the misused object ("database").
	Param string
	// Value is the rejected value.
	Value int
	// Min is the smallest accepted value.
	Min int
	// Msg, when non-empty, replaces the range text: the error is a
	// usage violation (an operation on a closed database) rather than
	// an out-of-range knob.
	Msg string
	// Err, when non-nil, is the underlying cause (a malformed weight
	// vector rejected by vecmath, say) exposed through Unwrap.
	Err error
}

// Error implements error.
func (e *ConfigError) Error() string {
	switch {
	case e.Msg != "" && e.Err != nil:
		return fmt.Sprintf("core: %s: %v", e.Msg, e.Err)
	case e.Msg != "":
		return "core: " + e.Msg
	case e.Err != nil:
		return fmt.Sprintf("core: %s: %v", e.Param, e.Err)
	}
	return fmt.Sprintf("core: %s %d must be >= %d", e.Param, e.Value, e.Min)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *ConfigError) Unwrap() error { return e.Err }

// errClosed is the typed error every operation on a closed DB returns.
//
//fmeter:errdomain config
func errClosed() error {
	return &ConfigError{Param: "database", Msg: "operation on closed database"}
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return x-x == 0 }

// errNonFinite is the typed error for a signature or query (param) whose
// cached squared norm is NaN or +Inf: it holds a NaN or ±Inf weight, or
// finite weights so large their squares overflow.
//
//fmeter:errdomain config
func errNonFinite(param, what string, norm2 float64) error {
	return &ConfigError{Param: param, Msg: fmt.Sprintf("%s has non-finite weights (squared norm %v)", what, norm2)}
}

// ErrEmptyDB is returned by similarity queries against a database with no
// stored signatures.
var ErrEmptyDB = errors.New("core: empty database")

// SearchResult is one hit of a similarity query.
type SearchResult struct {
	Signature Signature
	// Score is the metric value against the query.
	Score float64
}

// DB is the labeled signature database the paper envisions operators
// maintaining (§2.2): signatures of forensically identified behaviours,
// stored for later retrieval, comparison, and classifier training.
//
// Storage is sparse-first and segmented: signatures live once, in
// insertion order — a signature's row index is its insertion index, the
// (score, index) tie-break key — and the rows are cut into segments of
// SegmentSize rows each, the last possibly shorter: segment k holds rows
// [k·SegmentSize, (k+1)·SegmentSize) whatever the history of adds,
// seals, saves and loads. Add appends to the last, active segment
// (indexed in immutable posting runs as it grows); a segment that fills
// becomes immutable, its whole range one posting run that the first
// query to walk it encodes from its rows (see segment.go). A query
// accumulates dot products down only the posting lists in its support.
// It walks the segments in lanes, one per worker (view.go deals them
// the rows), each pruning against the one store-wide seed threshold,
// and merges the lanes' survivors through a heap keyed on (score,
// insertion index), a total order, so a query returns identical results
// at every segment layout and worker count.
//
// Persistence has one format: SaveDir/LoadDir keep a snapshot directory
// (manifest + CRC-checked files of row ranges, see manifest.go) where a
// save writes only the rows no file holds yet.
//
// Query-time working state (heaps, score accumulators, merge buffers,
// vote counters) lives in a pool of per-worker scratch, so steady-state
// queries do not allocate.
//
// Concurrency contract (epoch views, see view.go): reads (Query
// and its shorthands, Len, All) may run concurrently with each other
// AND with mutations. Each Query call loads the current immutable view —
// the full segments plus a frozen prefix of the active segment (its
// posting runs and the unindexed rows after them) — once,
// for all its queries, and computes exactly the result a quiescent DB
// holding that view's signatures would return. Mutations (Add,
// AddAll, Seal, SaveDir, Close, and every Set*) remain
// single-writer: they serialize on an internal mutex, so concurrent
// mutators are safe but take turns, and each publishes a new view
// atomically when it completes. Close publishes a terminal view that
// fails late arrivals with a typed *ConfigError; a query already
// running finishes on the view it loaded.
type DB struct {
	dim     int
	workers int
	// pruneFloor (0 meaning pruneMinRows) is the store-size floor below
	// which pruning is not attempted — see prune.go.
	pruneFloor int
	// runLen (0 meaning activeRunLen) is the active-segment run length,
	// segSize (0 meaning SegmentSize) the seal threshold and laneFloor
	// (0 meaning laneMinRows) the fewest rows a query lane is given;
	// only tests override them — see segment.go, view.go.
	runLen    int
	segSize   int
	laneFloor int
	// saveDir is the snapshot directory this DB last saved to durably
	// or was loaded from, and files are its manifest's entries in row
	// order; nextSeg is the next file id, past every id that manifest or
	// this DB has used. SaveDir keeps what files it can (see
	// manifest.go); saving elsewhere starts from no files.
	saveDir string
	files   []manifestSegment
	nextSeg uint64
	// closed marks a DB whose Close ran: every query or mutation
	// returns a typed *ConfigError.
	closed bool
	// sigs and norms are the stored rows in insertion order and their
	// cached squared norms, append-only; segs partitions them (see
	// segment.go).
	sigs    []Signature
	norms   []float64
	segs    []*segment
	scratch *percpu.Pool[*dbScratch]

	// mu serializes every mutation (and the writer-side accessors that
	// read the segments or the snapshot state); queries never take it —
	// they load views (view.go).
	mu sync.Mutex
	// cur is the published view every query loads.
	cur atomic.Pointer[dbView]
	// publishes counts view publications (every Add/AddAll/Seal/
	// setter that swapped cur) — the currency batched ingest
	// saves, observable via Publishes().
	publishes atomic.Uint64
}

// NewDB creates an empty database for signatures of the given
// dimension.
//
//fmeter:errdomain config
func NewDB(dim int) (*DB, error) {
	if dim < 1 {
		return nil, &ConfigError{Param: "dimension", Value: dim, Min: 1}
	}
	db := &DB{dim: dim}
	db.scratch = percpu.NewPool(func() *dbScratch {
		return &dbScratch{qd: vecmath.NewVector(dim)}
	})
	db.cur.Store(db.buildViewLocked())
	return db, nil
}

// SetWorkers bounds the worker-pool fan-out of a query across its lanes
// — and of a multi-query request across queries (parallel.Workers
// semantics: 0 = one per CPU, <0 = sequential). A query walks its view
// in parallel.Workers(n) lanes, fewer on a store too small to pay for
// them (laneMinRows). In-flight queries keep the setting they loaded.
func (db *DB) SetWorkers(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.workers = n
	db.publishLocked()
}

// Len returns the number of stored signatures in the current view.
func (db *DB) Len() int {
	return len(db.cur.Load().sigs)
}

// Dim returns the signature dimension.
func (db *DB) Dim() int { return db.dim }

// Publishes returns how many view publications the DB has performed —
// one per completed mutation (Add, AddAll, Seal, setters). Batched
// ingest exists to keep this number small: AddAll publishes once for
// the whole batch where per-signature Add publishes once per signature.
func (db *DB) Publishes() uint64 { return db.publishes.Load() }

// Add stores a signature, appending it to the active segment (the row
// into the backing arrays, its squared norm into the norm cache; every
// activeRunLen-th row records the rows since the last run as a pending
// run, which the first query that walks it builds). An active
// segment that reaches the segment size is recorded whole as one such
// run and the next Add opens a fresh one. Add is safe to call
// concurrently with queries (which keep the view they loaded) and with
// other mutators (which serialize); the new signature is visible to
// every query that starts after Add returns.
func (db *DB) Add(sig Signature) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed()
	}
	if err := db.checkSig(sig); err != nil {
		return err
	}
	db.addLocked(sig)
	db.publishLocked()
	return nil
}

// checkSig validates one signature for storage: it carries a weight
// vector of the store's dimension whose cached squared norm is finite.
// The norm is a sum of squares, so a finite one proves every weight
// finite in O(1) — the gather dot's precondition: a stored ±Inf times
// the 0 of a dimension the query lacks would be a NaN where the merge
// dot skipped the term.
func (db *DB) checkSig(sig Signature) error {
	switch {
	case sig.W == nil:
		return &ConfigError{Param: "signature", Msg: fmt.Sprintf("signature %s has no weight vector", sig.DocID)}
	case sig.Dim() != db.dim:
		return &DimensionError{What: fmt.Sprintf("signature %s", sig.DocID), Got: sig.Dim(), Want: db.dim}
	case !finite(sig.W.Norm2()):
		return errNonFinite("signature", "signature "+sig.DocID, sig.W.Norm2())
	}
	return nil
}

// addLocked appends one validated signature without publishing,
// recording the run or seal the row completes. Caller holds db.mu and
// publishes afterwards.
func (db *DB) addLocked(sig Signature) {
	sg := db.activeSegment()
	if sg == nil {
		sg = db.appendSegment()
	}
	db.sigs = append(db.sigs, sig)
	db.norms = append(db.norms, sig.W.Norm2())
	sg.end++
	// The first query whose view holds a recorded run builds its
	// postings.
	if sg.len() == db.segSizeLocked() {
		sg.seal()
	} else if sg.end-sg.runEnd >= db.runLenLocked() {
		// The unindexed tail is a full run: record exactly those rows.
		sg.indexRun()
	}
}

// sumPostings folds f over every posting structure a query of the
// published view walks, building its pending runs first, as the query
// would. It takes no lock: the view is immutable and its runs build
// once.
func (db *DB) sumPostings(f func(*blockPostings) int64) int64 {
	v := db.cur.Load()
	buildRuns(db.dim, v.sigs, v.runs)
	var n int64
	for i := range v.segs {
		if u := v.unit(i); u.blocks != nil {
			n += f(u.blocks)
		}
	}
	return n
}

// IndexBytes returns the resident heap footprint of the postings a
// query walks: every segment's posting runs, pending runs built first
// (rows no run covers yet have no postings and cost nothing here).
func (db *DB) IndexBytes() int64 { return db.sumPostings((*blockPostings).memBytes) }

// ActiveUnindexedRows returns how many stored signatures no posting
// structure covers yet — the rows after the active segment's last run,
// which queries score one by one. It stays below the run length (256)
// and returns to zero on Seal.
func (db *DB) ActiveUnindexedRows() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	if sg := db.activeSegment(); sg != nil {
		return sg.end - sg.runEnd
	}
	return 0
}

// MappedBytes returns 0: every loaded segment lives on the heap and is
// counted by IndexBytes.
//
// Deprecated: snapshots are no longer memory-mapped; use IndexBytes.
func (db *DB) MappedBytes() int64 { return 0 }

// Close marks the database closed, drops its segments and publishes a
// terminal view: any query or mutation arriving after Close begins
// returns a typed *ConfigError, while a query already running finishes
// on the view it loaded; Len and All still answer. Close is idempotent,
// safe to call concurrently with queries and mutators, and returns nil.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	// The terminal view keeps the signature rows but no segments, and
	// fails every query with the typed closed error before it can walk
	// anything.
	db.segs = nil
	db.publishLocked()
	return nil
}

// AddAll stores a batch of signatures, validating each, and publishes
// them as one atomic step: a concurrent query sees either none of the
// batch or all of it. A batch holding an invalid signature is rejected
// whole, before anything is stored. Its posting runs, the segments it
// fills included, are only recorded, for the first query that walks
// them to build.
func (db *DB) AddAll(sigs []Signature) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errClosed()
	}
	for _, s := range sigs {
		if err := db.checkSig(s); err != nil {
			return err
		}
	}
	for _, s := range sigs {
		db.addLocked(s)
	}
	db.publishLocked()
	return nil
}

// All returns the stored signatures of the current view in insertion
// order. The slice is freshly assembled; the signatures share storage
// with the database and must not be mutated.
func (db *DB) All() []Signature {
	return slices.Clone(db.cur.Load().sigs)
}

// dbScratch is the per-worker working state of one query evaluation:
// per-lane bounded heaps and score accumulators, the dense view of the
// query, and the classification vote state (a reused
// label-count map plus a hit buffer, so labelling allocates nothing in
// steady state). A scratch is checked out of the DB's pool for the
// duration of one query, so concurrent readers never share one and a
// steady query stream allocates nothing.
type dbScratch struct {
	lanes []laneScratch
	// qd is all-zero between queries; topk scatters the query into it
	// before the lanes run (they only read it) and un-scatters it
	// afterwards over the query's own support.
	qd    vecmath.Vector
	votes map[string]int
	hits  []SearchResult
}

// laneScratch is one lane's slice of the query working state.
type laneScratch struct {
	heap  topkHeap
	acc   vecmath.Accumulator
	prune pruneScratch
	// stats collects this lane's pruning counters for the current query
	// (reset by topk); queryOne sums them when asked.
	stats PruneStats
}

// topkHeap is a bounded binary heap holding the k best candidates seen so
// far, worst at the root. "Worse" means farther under the metric, ties
// broken toward the larger insertion index — (score, index) is a total
// order, which is what makes the result independent of scan and merge
// order and hence of the segment layout and the worker count.
type topkHeap struct {
	idx    []int
	score  []float64
	higher bool // metric.HigherIsCloser
}

// reset empties the heap for a new query, keeping its capacity.
//
//fmeter:noalloc
func (h *topkHeap) reset(higher bool) {
	h.idx = h.idx[:0]
	h.score = h.score[:0]
	h.higher = higher
}

// worseAt reports whether the candidate at position a ranks strictly
// worse than the one at position b.
//
//fmeter:noalloc
func (h *topkHeap) worseAt(a, b int) bool {
	if h.score[a] != h.score[b] {
		if h.higher {
			return h.score[a] < h.score[b]
		}
		return h.score[a] > h.score[b]
	}
	return h.idx[a] > h.idx[b]
}

//fmeter:noalloc
func (h *topkHeap) swap(a, b int) {
	h.idx[a], h.idx[b] = h.idx[b], h.idx[a]
	h.score[a], h.score[b] = h.score[b], h.score[a]
}

//fmeter:noalloc
func (h *topkHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.worseAt(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

//fmeter:noalloc
func (h *topkHeap) down(i int) {
	n := len(h.idx)
	for {
		worst := i
		if l := 2*i + 1; l < n && h.worseAt(l, worst) {
			worst = l
		}
		if r := 2*i + 2; r < n && h.worseAt(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		h.swap(i, worst)
		i = worst
	}
}

// offer considers candidate (i, score); once the heap holds k entries it
// displaces the root only when the root ranks strictly worse under the
// (score, index) total order. Candidates may arrive in any order — the
// kept set is always the k best overall.
//
//fmeter:noalloc
func (h *topkHeap) offer(k int, i int, score float64) {
	//fmeter:alloc-ok the heap grows to k once; the scratch pool reuses it across queries
	if len(h.idx) < k {
		h.idx = append(h.idx, i)
		h.score = append(h.score, score)
		h.up(len(h.idx) - 1)
		return
	}
	rootWorse := false
	if h.score[0] != score {
		if h.higher {
			rootWorse = h.score[0] < score
		} else {
			rootWorse = h.score[0] > score
		}
	} else {
		rootWorse = h.idx[0] > i
	}
	if !rootWorse {
		return
	}
	h.idx[0], h.score[0] = i, score
	h.down(0)
}

// pop removes and returns the worst remaining candidate. Draining the
// heap therefore yields candidates in worst-to-best (score, index)
// order — the allocation-free replacement for sorting the survivors.
//
//fmeter:noalloc
func (h *topkHeap) pop() (int, float64) {
	gid, score := h.idx[0], h.score[0]
	last := len(h.idx) - 1
	h.idx[0], h.score[0] = h.idx[last], h.score[last]
	h.idx, h.score = h.idx[:last], h.score[:last]
	h.down(0)
	return gid, score
}

// Query is one request to the store: the K stored signatures nearest each
// of Queries under Metric, as hits or as their majority label (§2.2's
// similarity-based retrieval). The fields are one call's inputs and
// outputs; the caller owns every slice and may reuse them across calls.
type Query struct {
	// Queries are in canonical sparse form, each of the store's dimension.
	Queries []*vecmath.Sparse
	// K is the neighbour count; K larger than the store returns everything.
	K      int
	Metric Metric
	// Exactly one of Hits and Labels is non-nil, one slot per query.
	// Hits[i] is overwritten (reusing its capacity) with query i's hits,
	// best first; Labels[i] with their majority label, ties broken toward
	// the nearest — hits and votes then stay in pooled scratch. With warm
	// capacity a steady-state call allocates nothing.
	Hits   [][]SearchResult
	Labels []string
	// Stats, when non-nil, has one slot per query for that query's
	// pruning counters; the answers are the same either way.
	Stats []PruneStats
}

// Query answers one request — the only way into the query path; the
// shorthands below are this call with the slots made for the caller. The
// whole request loads one view, so every answer reflects the same store
// prefix even under concurrent writes, and each is bit-identical to
// asking that query alone, at any worker count (see batchFanout). Once
// ctx has ended no further query starts and its error is returned. On
// error the slots hold a mix of old and new answers: do not read them.
func (db *DB) Query(ctx context.Context, q *Query) error {
	n := len(q.Queries)
	switch {
	case (q.Hits == nil) == (q.Labels == nil):
		return &ConfigError{Param: "out", Msg: "Query: exactly one of Hits and Labels must be set"}
	case len(q.Hits)+len(q.Labels) != n:
		return &ConfigError{Param: "out", Msg: fmt.Sprintf("Query: %d result slots for %d queries", len(q.Hits)+len(q.Labels), n)}
	case q.Stats != nil && len(q.Stats) != n:
		return &ConfigError{Param: "stats", Msg: fmt.Sprintf("Query: %d stats slots for %d queries", len(q.Stats), n)}
	}
	v := db.cur.Load()
	seq, sw := v.batchFanout(n)
	if !seq {
		// By value: the closure boxes a copy, and the caller's Query (with
		// the slices behind it) need not escape to the heap.
		return db.queryParallel(ctx, v, *q)
	}
	// Direct calls keep a sequential request's steady state at zero
	// allocations (no closure, no worker bookkeeping).
	for qi := range q.Queries {
		if err := db.querySlot(ctx, v, q, qi, sw); err != nil {
			return err
		}
	}
	return nil
}

// queryParallel fans a request's queries over the worker pool, lanes
// sequential; split out of Query so the closure exists only on this path.
func (db *DB) queryParallel(ctx context.Context, v *dbView, q Query) error {
	return parallel.For(v.cfg.workers, len(q.Queries), func(qi int) error {
		return db.querySlot(ctx, v, &q, qi, -1)
	})
}

// querySlot answers query qi of q into its slots unless ctx has ended.
func (db *DB) querySlot(ctx context.Context, v *dbView, q *Query, qi, laneWorkers int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var hits *[]SearchResult
	var label *string
	var stats *PruneStats
	if q.Hits != nil {
		hits = &q.Hits[qi]
	} else {
		label = &q.Labels[qi]
	}
	if q.Stats != nil {
		stats = &q.Stats[qi]
	}
	return db.queryOne(v, q.Queries[qi], qi, q.K, q.Metric, laneWorkers, hits, label, stats)
}

// batchFanout decides how a request of nq queries uses the worker pool:
// seq means the queries run in order on the caller's goroutine, each
// running its lanes over laneWorkers (parallel.Workers semantics, -1 =
// sequential); otherwise the queries fan out and each runs its lanes one
// after another. Queries fan out whenever there are enough of them to
// occupy the pool; a request too small for that — the lone query almost
// every serving request carries — runs its lanes in parallel instead, so
// no core idles. Either way a query walks the same lanes, so its answer
// and its PruneStats do not depend on the fan-out.
func (v *dbView) batchFanout(nq int) (seq bool, laneWorkers int) {
	switch w := parallel.Workers(v.cfg.workers); {
	case w == 1:
		return true, -1
	case nq < min(w, v.lanes):
		return true, v.cfg.workers
	}
	return false, -1
}

// queryOne answers query qi of a request against a loaded view on one
// checked-out scratch, its lanes run over laneWorkers: the hits into
// *hits (reusing its capacity) or, when hits is nil, their majority label
// into *label; the lanes' pruning counters into *stats when non-nil.
func (db *DB) queryOne(v *dbView, query *vecmath.Sparse, qi, k int, metric Metric, laneWorkers int, hits *[]SearchResult, label *string, stats *PruneStats) error {
	if query == nil {
		return &ConfigError{Param: "query", Msg: fmt.Sprintf("query %d is nil", qi)}
	}
	if query.Dim() != db.dim {
		return &DimensionError{What: fmt.Sprintf("query %d", qi), Got: query.Dim(), Want: db.dim}
	}
	sc := db.scratch.Get()
	defer db.scratch.Put(sc)
	out := sc.hits[:0]
	if hits != nil {
		out = (*hits)[:0]
	}
	res, err := db.topk(v, sc, query, k, metric, laneWorkers, out)
	if err != nil {
		return err
	}
	if stats != nil {
		*stats = PruneStats{}
		for l := range v.lanes {
			stats.Add(&sc.lanes[l].stats)
		}
	}
	if hits != nil {
		*hits = res
		return nil
	}
	sc.hits = res
	*label = voteLabel(res, sc.voteMap())
	return nil
}

// TopKSparse returns the k stored signatures closest to query under
// metric, best first, in a fresh slice.
func (db *DB) TopKSparse(query *vecmath.Sparse, k int, metric Metric) ([]SearchResult, error) {
	hits, _, err := db.TopKSparseStats(query, k, metric)
	return hits, err
}

// TopKSparseStats is TopKSparse plus the query's pruning counters.
func (db *DB) TopKSparseStats(query *vecmath.Sparse, k int, metric Metric) ([]SearchResult, PruneStats, error) {
	v := db.cur.Load()
	var hits []SearchResult
	var st PruneStats
	err := db.queryOne(v, query, 0, k, metric, v.cfg.workers, &hits, nil, &st)
	return hits, st, err
}

// ClassifySparse labels a query by majority vote among its k nearest
// stored signatures, ties broken toward the nearest.
func (db *DB) ClassifySparse(query *vecmath.Sparse, k int, metric Metric) (string, error) {
	v := db.cur.Load()
	var label string
	err := db.queryOne(v, query, 0, k, metric, v.cfg.workers, nil, &label, nil)
	return label, err
}

// TopKBatch is Query into fresh hit slices: out[i] is bit-identical to
// TopKSparse(queries[i], ...).
func (db *DB) TopKBatch(queries []*vecmath.Sparse, k int, metric Metric) ([][]SearchResult, error) {
	out := make([][]SearchResult, len(queries))
	if err := db.Query(context.Background(), &Query{Queries: queries, K: k, Metric: metric, Hits: out}); err != nil {
		return nil, err
	}
	return out, nil
}

// ClassifyBatch is Query into a fresh label slice: out[i] is
// bit-identical to ClassifySparse(queries[i], ...).
func (db *DB) ClassifyBatch(queries []*vecmath.Sparse, k int, metric Metric) ([]string, error) {
	out := make([]string, len(queries))
	if err := db.Query(context.Background(), &Query{Queries: queries, K: k, Metric: metric, Labels: out}); err != nil {
		return nil, err
	}
	return out, nil
}

// topk evaluates one query against a loaded view on the caller-held
// scratch: the query builds the view's pending posting runs (the first
// one on a view pays for them, buildRuns), one seed
// pass fills lane 0's heap, every other lane's heap
// starts as a copy of it (seed), the lanes score their rows over
// workers, and the other lanes' non-seed survivors merge into lane 0's
// heap, which drains into out[:0] when it has capacity — exact at any
// lane count (DESIGN-PERF.md Layer 3). It touches only the loaded view,
// never the live writer state — the whole serialized-equivalence
// argument: the result is exactly what a quiescent DB holding the
// view's signatures returns.
func (db *DB) topk(v *dbView, sc *dbScratch, query *vecmath.Sparse, k int, metric Metric, workers int, out []SearchResult) ([]SearchResult, error) {
	if v.closed {
		// The terminal view holds no segments: fail with the typed
		// usage error.
		return nil, errClosed()
	}
	if k < 1 {
		return nil, &ConfigError{Param: "k", Value: k, Min: 1}
	}
	if err := checkMetric(metric); err != nil {
		return nil, err
	}
	qNorm2 := query.Norm2()
	if !finite(qNorm2) {
		return nil, errNonFinite("query", "query", qNorm2)
	}
	n := len(v.sigs)
	if n == 0 {
		return nil, ErrEmptyDB
	}
	buildRuns(db.dim, v.sigs, v.runs)
	k = min(k, n)
	nl := v.lanes
	lq := laneQuery{v: v, query: query, qd: sc.qd, k: k, cosine: metric.kind == metricKindCosine, qNorm2: qNorm2, p: nl}
	// Every canonical dot is gathered from a dense view of the query: the
	// pooled vector, scattered once here, only read by the lanes, and
	// zeroed again over the query's own support on the way out.
	query.Scatter(lq.qd)
	defer query.Unscatter(lq.qd)
	for len(sc.lanes) < nl {
		sc.lanes = append(sc.lanes, laneScratch{})
	}
	lanes := sc.lanes[:nl]
	for l := range lanes {
		lanes[l].stats = PruneStats{}
	}
	if nl == 1 || parallel.Workers(workers) == 1 {
		// Sequential lanes: direct calls, so the hot batched path
		// (queries fan out, lanes run one after another) builds no
		// closure and stays allocation-free.
		lq.seed(lanes)
		for l := range lanes {
			lq.walk(&lanes[l], l)
		}
	} else {
		lq.seeds = walkLanesParallel(lq, workers, lanes)
	}
	h := &lanes[0].heap
	for l := 1; l < nl; l++ {
		lh := &lanes[l].heap
		for j, gid := range lh.idx {
			if _, seed := slices.BinarySearch(lq.seeds, int32(gid)); !seed {
				h.offer(k, gid, lh.score[j])
			}
		}
	}
	// Drain the heap worst-first into the tail of out, leaving the hits
	// best-first. The (score, index) total order makes this the exact
	// sequence a stable sort of all scores would produce.
	m := len(h.idx)
	if cap(out) < m {
		out = make([]SearchResult, m)
	}
	out = out[:m]
	for j := m - 1; j >= 0; j-- {
		gid, score := h.pop()
		out[j] = SearchResult{Signature: v.sigs[gid], Score: score}
	}
	return out, nil
}

// laneQuery is what the p lanes of one query read: the loaded view, the
// query and its dense view, the metric (cosine or Euclidean), and the
// seed pass's rows (ascending) and whether it filled the heaps, so
// indexed units may take the pruned walk.
type laneQuery struct {
	v      *dbView
	query  *vecmath.Sparse
	qd     vecmath.Vector
	k      int
	cosine bool
	qNorm2 float64
	p      int
	prune  bool
	seeds  []int32
}

// seed fills lane 0's heap and starts every other lane's heap as a copy
// of it: with the store at or above the prune floor and its first rows
// indexed, seedHeap gives every lane a displacement threshold before
// any unit is walked, and indexed units take the pruned walk (prune.go).
func (lq *laneQuery) seed(lanes []laneScratch) {
	h := &lanes[0].heap
	h.reset(lq.cosine)
	if lq.v.unit(0).blocks != nil && len(lq.v.sigs) >= lq.v.cfg.pruneFloor {
		lq.seeds = seedHeap(lq, &lanes[0].prune, h)
		lq.prune = len(h.idx) == lq.k
	}
	for l := 1; l < len(lanes); l++ {
		lh := &lanes[l].heap
		lh.idx, lh.score, lh.higher = append(lh.idx[:0], h.idx...), append(lh.score[:0], h.score...), h.higher
	}
}

// walkLanesParallel seeds and runs the lanes over the worker pool and
// returns the seed rows; the other lanes start up while lane 0 seeds.
// The closure (and the copy of lq it boxes) exists only on this path,
// so the sequential path stays allocation-free.
func walkLanesParallel(lq laneQuery, workers int, lanes []laneScratch) []int32 {
	seeded := make(chan struct{})
	parallel.For(workers, len(lanes), func(l int) error {
		if l == 0 {
			lq.seed(lanes)
			close(seeded)
		} else {
			<-seeded
		}
		lq.walk(&lanes[l], l)
		return nil
	})
	return lq.seeds
}

// walk scores lane l's rows against the query into the lane's heap,
// unit by unit in order, passing over a unit that holds none of the
// lane's rows. Every score that reaches the heap is the same float
// sequence whichever arm produces it: the row's products with the query
// in ascending dimension order, through the cached-norm algebra. The
// posting walk (blockPostings.dots) accumulates them down the query's
// lists and scores the rows it touched from their sums in O(1), the
// untouched ones only if a zero dot could still get in (offerWalk); the
// gather dot (dbView.score) sums them for one row at a time, and scores
// the active segment's unindexed tail, the seeds, the pruned walk's
// survivors, and any indexed unit the walk would cost more than scanning
// (scanBeatsWalk). Unit boundaries never change a score, and the heap's
// (score, insertion index) total order never depends on arrival order,
// so results are bit-identical at any segment layout and lane count.
func (lq *laneQuery) walk(ls *laneScratch, l int) {
	v, h, k, p := lq.v, &ls.heap, lq.k, lq.p
	for i := range v.segs {
		sg := v.unit(i)
		if laneFirst(sg.start, l, p) >= sg.end {
			continue // the unit holds none of the lane's rows
		}
		ls.stats.Segments++
		if lq.prune && sg.blocks != nil && prunedSegment(lq, sg, ls, l) {
			continue
		}
		if sg.blocks == nil || sg.blocks.scanBeatsWalk(lq.query) {
			ls.stats.SegmentsScanned++
			offerCanonical(h, k, v, sg, lq.qd, lq.cosine, lq.qNorm2, lq.seeds, l, p)
			continue
		}
		ls.prune.beginStamps(sg.start, sg.blocks.n, lq.seeds, l, p)
		sg.blocks.dots(lq.query, &ls.acc, &ls.prune)
		offerWalk(h, k, v, sg, &ls.acc, &ls.prune, lq.cosine, lq.qNorm2)
	}
}

// score is the canonical score of row j: the row's
// gather dot against the dense query qd — the products Sparse.Dot sums,
// in the same ascending order, plus an exact ±0 for every dimension of
// the row the query lacks (vecmath.Sparse.Scatter) — put through the
// metric's cached-norm algebra.
//
//fmeter:noalloc
func (v *dbView) score(j int, qd vecmath.Vector, cosine bool, qNorm2 float64) float64 {
	return dotScore(v.sigs[j].W.DotDense(qd), qNorm2, v.norms[j], cosine)
}

// dotScore puts a dot product through the metric's cached-norm algebra
// — the one score formula of the store.
func dotScore(dot, qNorm2, sNorm2 float64, cosine bool) float64 {
	if cosine {
		return cosineDotScore(dot, qNorm2, sNorm2)
	}
	return euclideanDotScore(dot, qNorm2, sNorm2)
}

// offerCanonical scores lane l of p's rows of one walk unit with the
// canonical gather dot and offers the results, skipping the rows in
// seeds like the other offer loops. It is the store's dense scan:
// the active segment's unindexed tail (the rows no posting run covers
// yet) and the indexed units scanBeatsWalk hands it.
//
//fmeter:noalloc
func offerCanonical(h *topkHeap, k int, v *dbView, sg viewSegment, qd vecmath.Vector, cosine bool, qNorm2 float64, seeds []int32, l, p int) {
	si := 0
	for c := laneFirst(sg.start, l, p); c < sg.end; c += p * laneChunk {
		for j := max(c, sg.start); j < min(c+laneChunk, sg.end); j++ {
			for si < len(seeds) && int(seeds[si]) < j {
				si++
			}
			if si < len(seeds) && int(seeds[si]) == j {
				continue
			}
			h.offer(k, j, v.score(j, qd, cosine, qNorm2))
		}
	}
}

// offerWalk scores one walked unit from its accumulated dots and offers
// the rows to the lane heap: the rows dots listed in ps.touched, then —
// only if some could still get in — the rest of the lane's rows of the
// unit outside the seeds, which ps.stamp leaves unmarked. An untouched row shares no
// dim with the query, so its dot is an exact zero and its score at best
// cosineDotScore(0, …) = 0 or euclideanDotScore(0, qNorm2, minNorm2):
// rootSafe(0), the bound the pruned walk's cut is decided on, rules them
// all out at once. The heap's (score, index) total order keeps the same
// set whatever order the rows arrive in.
//
//fmeter:noalloc
func offerWalk(h *topkHeap, k int, v *dbView, sg viewSegment, acc *vecmath.Accumulator, ps *pruneScratch, cosine bool, qNorm2 float64) {
	for _, l := range ps.touched {
		j := sg.start + int(l)
		h.offer(k, j, dotScore(acc.Get(int(l)), qNorm2, v.norms[j], cosine))
	}
	if len(h.idx) == k && rootSafe(h, sg.blocks, cosine, qNorm2, 0) {
		return
	}
	for c := laneFirst(sg.start, ps.lane, ps.lanes); c < sg.end; c += ps.lanes * laneChunk {
		for j := max(c, sg.start); j < min(c+laneChunk, sg.end); j++ {
			if ps.stamp[j-sg.start] != ps.epoch {
				h.offer(k, j, dotScore(0, qNorm2, v.norms[j], cosine))
			}
		}
	}
}

// voteMap returns the scratch's vote counter, cleared for a new query
// (clearing keeps the map's buckets, so steady state allocates nothing).
func (sc *dbScratch) voteMap() map[string]int {
	if sc.votes == nil {
		sc.votes = make(map[string]int)
	}
	clear(sc.votes)
	return sc.votes
}

// voteLabel majority-votes over hits, nearest-first tie-break, counting
// into votes (which the caller supplies empty).
func voteLabel(hits []SearchResult, votes map[string]int) string {
	for _, h := range hits {
		votes[h.Signature.Label]++
	}
	best, bestN := "", -1
	for _, h := range hits { // iterate hits (nearest first) for tie-breaks
		if n := votes[h.Signature.Label]; n > bestN {
			best, bestN = h.Signature.Label, n
		}
	}
	return best
}
