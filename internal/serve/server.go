// Package serve is the HTTP/JSON serving layer over the fmeter DB: a
// query + ingest API in which every query request is one core.Query,
// answered by DB.Query on the request's own goroutine and under its
// context, behind one admission gate (gate.go) bounding the requests
// admitted and the requests running at once. The production shape
// follows the translation services the Marian line of work converged
// on: bounded admission, Retry-After backpressure instead of unbounded
// goroutines, health and metrics endpoints, and a graceful shutdown
// that lets every admitted request finish first.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/vecmath"
)

// Config tunes the server. The zero value is usable: every field below
// has a default applied by withDefaults.
type Config struct {
	// MaxQueue bounds the query requests admitted at once, running +
	// waiting for a core; one more is rejected with 429 + Retry-After.
	// Default 1024.
	MaxQueue int
	// SnapshotDir, when non-empty, enables the periodic incremental
	// SaveDir loop: every 2 s the server checks the full segment count
	// and snapshots when it has advanced past the last saved watermark,
	// and Shutdown snapshots once more. Each save writes only the rows
	// no file in the directory holds yet: a segment that filled as one
	// file, and the rows the active segment gained as one more.
	SnapshotDir string
	// Warnf, when non-nil, receives operational warnings (snapshot
	// failures). Default drops them.
	Warnf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxQueue == 0 {
		c.MaxQueue = 1024
	}
	if c.Warnf == nil {
		c.Warnf = func(string, ...any) {}
	}
	return c
}

const (
	// maxK bounds the per-request k.
	maxK = 100
	// maxQueriesPerRequest bounds the queries one request body may carry.
	maxQueriesPerRequest = 256
	// maxBodyBytes bounds request bodies.
	maxBodyBytes = 8 << 20
	// snapshotEvery is the snapshot loop's watermark poll interval.
	snapshotEvery = 2 * time.Second
	// pruneSampleEvery is the PruneStats sample period: every
	// pruneSampleEvery-th TopK request feeds the /metrics aggregates.
	pruneSampleEvery = 32
)

// Server is the HTTP serving layer. Create with New, mount via Handler
// (or pass directly to http.Server), stop with Shutdown.
type Server struct {
	db    *core.DB
	model *core.Model
	cfg   Config
	met   *metrics
	gate  *gate
	mux   *http.ServeMux
	// pruneEvery is the PruneStats sample period, pruneSampleEvery
	// unless a test lowers it before the first request.
	pruneEvery uint64

	// ingestMu serializes ingest bodies so each body's Transform →
	// Normalize → AddAll runs as one unit (one RCU publish per body).
	ingestMu sync.Mutex

	shutdown   atomic.Bool
	snapStop   chan struct{}
	snapDone   chan struct{}
	lastSealed int
}

// New builds a Server over db. model may be nil, in which case
// /v1/ingest answers 503 (query-only deployments serving a prebuilt
// snapshot).
func New(db *core.DB, model *core.Model, cfg Config) (*Server, error) {
	if db == nil {
		return nil, &core.ConfigError{Param: "database", Msg: "serve.New requires a non-nil DB"}
	}
	cfg = cfg.withDefaults()
	s := &Server{
		db:         db,
		model:      model,
		cfg:        cfg,
		met:        newMetrics(),
		gate:       newGate(cfg.MaxQueue),
		pruneEvery: pruneSampleEvery,
		snapStop:   make(chan struct{}),
		snapDone:   make(chan struct{}),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/topk", s.handleTopK)
	s.mux.HandleFunc("POST /v1/classify", s.handleClassify)
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.SnapshotDir != "" {
		go s.snapshotLoop()
	} else {
		close(s.snapDone)
	}
	return s, nil
}

// Handler returns the root handler (method-routed mux).
func (s *Server) Handler() http.Handler { return s.mux }

const ( // what one connection may hold open under HTTPServer
	readHeaderTimeout = 5 * time.Second
	minBodyRate       = 256 << 10 // bytes per second a body must arrive at
	idleTimeout       = 2 * time.Minute
	writeSlack        = 60 * time.Second // a response's time past the read budget: the Retry-After ceiling, so a wait at the gate is never cut

	readTimeout = readHeaderTimeout + maxBodyBytes/minBodyRate*time.Second // a maxBodyBytes body at minBodyRate
)

// HTTPServer returns an http.Server over Handler with read-header, read
// (sized for a maxBodyBytes body at minBodyRate), write and idle
// timeouts set, so a connection that stalls, is abandoned or stops
// reading its response cannot hold a goroutine forever. The caller owns
// the listener and the http.Server's own Shutdown.
func (s *Server) HTTPServer() *http.Server {
	return &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      readTimeout + writeSlack,
		IdleTimeout:       idleTimeout,
	}
}

// Metrics returns a point-in-time snapshot of the server counters.
func (s *Server) Metrics() MetricsSnapshot {
	return s.met.snapshot(s.db, s.gate.depth(), s.cfg.MaxQueue)
}

// Shutdown stops intake, waits for every admitted query request to
// finish, takes a final snapshot when configured, and closes the DB.
// ctx bounds the wait; on expiry the drain keeps running in the
// background but Shutdown returns ctx.Err(). Idempotent: later calls
// return what closing the DB again returns.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.shutdown.CompareAndSwap(false, true) {
		return s.db.Close()
	}
	done := make(chan error, 1)
	go func() {
		s.gate.drain()
		close(s.snapStop)
		<-s.snapDone
		if s.cfg.SnapshotDir != "" {
			if err := s.db.SaveDir(s.cfg.SnapshotDir); err != nil {
				s.met.snapshotErrors.Add(1)
				s.cfg.Warnf("serve: final snapshot: %v", err)
			} else {
				s.met.snapshots.Add(1)
			}
		}
		done <- s.db.Close()
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TopK is the programmatic entry to the query path: identical
// semantics to POST /v1/topk but skipping HTTP, so embedders get the
// same admission bound and backpressure. out[i] is queries[i]'s hits,
// bit-identical to db.TopKSparse(queries[i], k, metric).
func (s *Server) TopK(queries []*vecmath.Sparse, k int, metric core.Metric) ([][]core.SearchResult, error) {
	q := core.Query{Queries: queries, K: k, Metric: metric, Hits: make([][]core.SearchResult, len(queries))}
	if err := s.run(context.Background(), &q); err != nil {
		return nil, err
	}
	return q.Hits, nil
}

// Classify is the programmatic classify twin of TopK.
func (s *Server) Classify(queries []*vecmath.Sparse, k int, metric core.Metric) ([]string, error) {
	q := core.Query{Queries: queries, K: k, Metric: metric, Labels: make([]string, len(queries))}
	if err := s.run(context.Background(), &q); err != nil {
		return nil, err
	}
	return q.Labels, nil
}

// run passes the gate and answers q, one request, on the caller's
// goroutine and one view. A request refused by the gate, or whose ctx
// ends while it waits for a run slot or between two of its queries,
// counts in neither Queries nor Batches. Every pruneSampleEvery-th TopK
// request also asks for PruneStats — same call, same view, same hits —
// and its first query's counters feed the /metrics aggregates.
//
//fmeter:nondeterministic-ok serving telemetry: per-request kernel wall-clock feeds the Retry-After EWMA
func (s *Server) run(ctx context.Context, q *core.Query) error {
	if err := s.gate.enter(ctx); err != nil {
		return err
	}
	if len(q.Hits) > 0 && s.samplePrune() {
		q.Stats = make([]core.PruneStats, len(q.Queries))
	}
	start := time.Now()
	err := s.db.Query(ctx, q)
	s.gate.exit(time.Since(start))
	if err != nil {
		return err
	}
	s.met.observeBatch(len(q.Queries))
	if len(q.Stats) > 0 {
		s.met.observePrune(&q.Stats[0])
	}
	return nil
}

// samplePrune reports whether this TopK request is the every-Nth one
// whose first query feeds the /metrics PruneStats aggregates.
func (s *Server) samplePrune() bool {
	return s.met.pruneTick.Add(1)%s.pruneEvery == 0
}

// snapshotLoop polls the full-segment watermark and snapshots
// incrementally when it advances — SaveDir writes only the rows no file
// holds yet, and a quiet store costs one counter read per tick.
func (s *Server) snapshotLoop() {
	defer close(s.snapDone)
	ticker := time.NewTicker(snapshotEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-ticker.C:
			sealed := s.db.SealedSegments()
			if sealed == s.lastSealed {
				continue
			}
			if err := s.db.SaveDir(s.cfg.SnapshotDir); err != nil {
				s.met.snapshotErrors.Add(1)
				s.cfg.Warnf("serve: snapshot: %v", err)
				continue
			}
			s.lastSealed = sealed
			s.met.snapshots.Add(1)
		}
	}
}

// --- wire types ---

// wireQuery is one sparse query vector on the wire: parallel arrays of
// strictly ascending in-range indices and their non-zero values.
type wireQuery struct {
	Idx []int32   `json:"idx"`
	Val []float64 `json:"val"`
}

// queryRequest is the POST /v1/topk and /v1/classify body.
type queryRequest struct {
	Queries []wireQuery `json:"queries"`
	K       int         `json:"k,omitempty"`      // default 10
	Metric  string      `json:"metric,omitempty"` // "cosine" (default) | "euclidean"
	Dim     int         `json:"dim,omitempty"`    // optional cross-check against the store
}

// wireHit is one TopK result on the wire.
type wireHit struct {
	DocID string  `json:"doc_id"`
	Label string  `json:"label,omitempty"`
	Score float64 `json:"score"`
}

type topkResponse struct {
	Results [][]wireHit `json:"results"`
}

type classifyResponse struct {
	Labels []string `json:"labels"`
}

// ingestRequest is the POST /v1/ingest body: raw documents the server
// embeds with its fitted model and publishes in one AddAll.
type ingestRequest struct {
	Documents []*core.Document `json:"documents"`
}

type ingestResponse struct {
	Added int `json:"added"`
}

// errorPayload is every non-2xx body: a machine-readable kind plus the
// human message.
type errorPayload struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// --- handlers ---

//fmeter:nondeterministic-ok serving telemetry: request latency measurement is wall-clock by definition
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.met.topkRequests.Add(1)
	var q core.Query
	if !s.decodeQueryRequest(w, r, &q) {
		return
	}
	q.Hits = make([][]core.SearchResult, len(q.Queries))
	if err := s.run(r.Context(), &q); err != nil {
		s.writeError(w, err)
		return
	}
	resp := topkResponse{Results: make([][]wireHit, len(q.Hits))}
	for i, hs := range q.Hits {
		row := make([]wireHit, len(hs))
		for j, h := range hs {
			row[j] = wireHit{DocID: h.Signature.DocID, Label: h.Signature.Label, Score: h.Score}
		}
		resp.Results[i] = row
	}
	s.writeJSON(w, http.StatusOK, resp)
	s.met.observeLatency(time.Since(start))
}

//fmeter:nondeterministic-ok serving telemetry: request latency measurement is wall-clock by definition
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.met.classifyRequests.Add(1)
	var q core.Query
	if !s.decodeQueryRequest(w, r, &q) {
		return
	}
	q.Labels = make([]string, len(q.Queries))
	if err := s.run(r.Context(), &q); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, classifyResponse{Labels: q.Labels})
	s.met.observeLatency(time.Since(start))
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.met.ingestRequests.Add(1)
	if s.shutdown.Load() {
		s.writeError(w, errDraining)
		return
	}
	var req ingestRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Documents) == 0 {
		s.writeTyped(w, http.StatusBadRequest, "bad_request", "ingest body carries no documents")
		return
	}
	if s.model == nil {
		s.writeTyped(w, http.StatusServiceUnavailable, "unavailable", "server has no fitted model; ingest is disabled")
		return
	}
	// The bulk-load embedding; a refused document is named by its ID in
	// the *ConfigError.
	sigs, err := s.model.TransformAll(req.Documents)
	if err != nil {
		s.writeError(w, err)
		return
	}
	core.Normalize(sigs)
	// One publish for the whole body — the batched-ingest amortization.
	s.ingestMu.Lock()
	err = s.db.AddAll(sigs)
	s.ingestMu.Unlock()
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.met.docsIngested.Add(uint64(len(sigs)))
	s.writeJSON(w, http.StatusOK, ingestResponse{Added: len(sigs)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.shutdown.Load() {
		s.writeTyped(w, http.StatusServiceUnavailable, "unavailable", "server is draining")
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"signatures": s.db.Len(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Metrics())
}

// --- request decoding ---

// requestError refuses a request before admission: a 400 whose payload
// names kind.
type requestError struct{ kind, msg string }

func (e *requestError) Error() string { return e.msg }

// decodeBody strictly decodes one /v1/ingest JSON body into dst, mapping
// failures to 400 bad_request. The body is size-capped and must hold
// exactly one JSON value and nothing after it but whitespace.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.writeTyped(w, http.StatusBadRequest, "bad_request", "malformed JSON body: "+err.Error())
		return false
	}
	// Token, not More: More reports false before a closing bracket, which
	// let a stray '}' or ']' after the body through.
	if _, err := dec.Token(); err != io.EOF {
		s.writeTyped(w, http.StatusBadRequest, "bad_request", "trailing data after JSON body")
		return false
	}
	return true
}

// decodeQueryRequest reads a topk/classify body once, under the body
// limit, decodes it with parseQueryRequest (decode.go) and validates it
// into q's inputs (Queries, K, Metric). On failure it has already
// written the error response.
func (s *Server) decodeQueryRequest(w http.ResponseWriter, r *http.Request, q *core.Query) bool {
	var req queryRequest
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	if err == nil {
		err = parseQueryRequest(body, &req)
	}
	if err != nil {
		err = &requestError{"bad_request", "malformed JSON body: " + err.Error()}
	} else {
		err = s.queryOf(&req, q)
	}
	if err != nil {
		s.writeError(w, err)
		return false
	}
	return true
}

// readBody reads r to the end into one buffer, sized up front from the
// declared length up to bodyHint so a claimed length alone cannot make
// the server allocate.
func readBody(r io.Reader, declared int64) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, min(max(declared, 0), bodyHint)+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// bodyHint bounds the buffer readBody sizes from a declared length (over
// 150 queries of 200 terms); a longer body grows it as it arrives.
const bodyHint = 1 << 20

// queryOf validates a decoded topk/classify body into q's inputs
// (Queries, K, Metric): a *requestError or *core.DimensionError names
// what is wrong.
func (s *Server) queryOf(req *queryRequest, q *core.Query) error {
	if len(req.Queries) == 0 {
		return &requestError{"bad_request", "request carries no queries"}
	}
	if len(req.Queries) > maxQueriesPerRequest {
		return &requestError{"bad_request", fmt.Sprintf("request carries %d queries, limit %d", len(req.Queries), maxQueriesPerRequest)}
	}
	q.K = req.K
	if q.K == 0 {
		q.K = 10
	}
	if q.K < 1 || q.K > maxK {
		return &requestError{"config", fmt.Sprintf("k=%d outside [1, %d]", q.K, maxK)}
	}
	switch req.Metric {
	case "", "cosine":
		q.Metric = core.CosineMetric()
	case "euclidean":
		q.Metric = core.EuclideanMetric()
	default:
		return &requestError{"config", fmt.Sprintf("unknown metric %q (want cosine or euclidean)", req.Metric)}
	}
	dim := s.db.Dim()
	if req.Dim != 0 && req.Dim != dim {
		return &core.DimensionError{What: "request", Got: req.Dim, Want: dim}
	}
	q.Queries = make([]*vecmath.Sparse, len(req.Queries))
	for i, wq := range req.Queries {
		sp, err := vecmath.SparseFromSorted(dim, wq.Idx, wq.Val)
		if err != nil {
			// Out-of-range or unsorted indices are dimension-class
			// errors on the wire: the query doesn't fit the store's
			// vector space.
			return &requestError{"dimension", fmt.Sprintf("query %d: %v", i, err)}
		}
		if n2 := sp.Norm2(); math.IsNaN(n2) || math.IsInf(n2, 0) {
			// The kernel rejects such a query too, but only once it holds
			// a run slot: refusing it here costs no admission.
			return &requestError{"config", fmt.Sprintf("query %d has non-finite weights (squared norm %v)", i, n2)}
		}
		q.Queries[i] = sp
	}
	return nil
}

// --- response writing ---

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeTyped writes an errorPayload with the given kind, counting it in
// the right error class.
func (s *Server) writeTyped(w http.ResponseWriter, status int, kind, msg string) {
	switch {
	case status == http.StatusTooManyRequests:
		s.met.rejected.Add(1)
	case status >= 500:
		s.met.serverErrors.Add(1)
	case status >= 400:
		s.met.clientErrors.Add(1)
	}
	s.writeJSON(w, status, errorPayload{Error: errorBody{Kind: kind, Message: msg}})
}

// writeError maps the repo's typed errors onto wire payloads:
//
//	*requestError            → 400 kind=its kind
//	*DimensionError          → 400 kind=dimension
//	*OverloadError           → 429 kind=overload + Retry-After
//	draining / closed DB     → 503 kind=unavailable
//	request context ended    → 503 kind=unavailable
//	*ConfigError (other)     → 400 kind=config
//	ErrEmptyDB               → 409 kind=empty_db
//	anything else            → 500 kind=internal
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var re *requestError
	var de *core.DimensionError
	var oe *OverloadError
	var ce *core.ConfigError
	switch {
	case errors.As(err, &re):
		s.writeTyped(w, http.StatusBadRequest, re.kind, re.msg)
	case errors.As(err, &de):
		s.writeTyped(w, http.StatusBadRequest, "dimension", de.Error())
	case errors.As(err, &oe):
		w.Header().Set("Retry-After", strconv.Itoa(int(oe.RetryAfter.Seconds())))
		s.writeTyped(w, http.StatusTooManyRequests, "overload", oe.Error())
	case errors.As(err, &ce):
		if ce.Param == "database" || ce.Param == "server" {
			// Closed DB or draining server: the store is going away,
			// not a bad request.
			s.writeTyped(w, http.StatusServiceUnavailable, "unavailable", ce.Error())
			return
		}
		s.writeTyped(w, http.StatusBadRequest, "config", ce.Error())
	case errors.Is(err, core.ErrEmptyDB):
		s.writeTyped(w, http.StatusConflict, "empty_db", err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client left, or its deadline passed, waiting for a run slot
		// or between two of its queries.
		s.writeTyped(w, http.StatusServiceUnavailable, "unavailable", err.Error())
	default:
		s.writeTyped(w, http.StatusInternalServerError, "internal", err.Error())
	}
}
