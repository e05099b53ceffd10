package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vecmath"
)

const testDim = 48

// testSigs builds n deterministic signatures in testDim dimensions.
func testSigs(seed int64, n, nnz int) []core.Signature {
	r := rand.New(rand.NewSource(seed))
	out := make([]core.Signature, n)
	for i := range out {
		v := vecmath.NewVector(testDim)
		for j := 0; j < nnz; j++ {
			v[r.Intn(testDim)] = r.Float64()
		}
		out[i] = core.SignatureFromDense(fmt.Sprintf("d%d", i), fmt.Sprintf("l%d", i%3), v)
	}
	return out
}

// newTestServer builds a server over a fresh 2-shard DB seeded with n
// signatures. Callers own shutdown.
func newTestServer(t *testing.T, cfg Config, n int) (*Server, []core.Signature) {
	t.Helper()
	db, err := core.NewShardedDB(testDim, 2)
	if err != nil {
		t.Fatal(err)
	}
	sigs := testSigs(1, n, 8)
	if err := db.AddAll(sigs); err != nil {
		t.Fatal(err)
	}
	s, err := New(db, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, sigs
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, bytes.NewBufferString(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeErrorKind(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var p errorPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("error body is not an errorPayload: %v (body %q)", err, rec.Body.String())
	}
	if p.Error.Kind == "" {
		t.Fatalf("error payload has empty kind: %q", rec.Body.String())
	}
	return p.Error.Kind
}

// wireFromSparse renders a query vector into the wire's parallel-array
// form.
func wireFromSparse(sp *vecmath.Sparse) wireQuery {
	var q wireQuery
	sp.ForEach(func(i int, v float64) {
		q.Idx = append(q.Idx, int32(i))
		q.Val = append(q.Val, v)
	})
	return q
}

func TestHandlerBadRequests(t *testing.T) {
	s, sigs := newTestServer(t, Config{}, 50)
	defer s.Shutdown(t.Context())
	h := s.Handler()

	cases := []struct {
		name     string
		path     string
		body     string
		status   int
		kind     string
		hasRetry bool
	}{
		{"malformed json", "/v1/topk", `{"queries": [`, http.StatusBadRequest, "bad_request", false},
		{"unknown field", "/v1/topk", `{"nope": 1}`, http.StatusBadRequest, "bad_request", false},
		{"no queries", "/v1/topk", `{"queries": []}`, http.StatusBadRequest, "bad_request", false},
		{"dim mismatch", "/v1/topk", `{"dim": 7, "queries": [{"idx":[0],"val":[1]}]}`, http.StatusBadRequest, "dimension", false},
		{"index out of range", "/v1/topk", fmt.Sprintf(`{"queries": [{"idx":[%d],"val":[1]}]}`, testDim), http.StatusBadRequest, "dimension", false},
		{"unsorted indices", "/v1/topk", `{"queries": [{"idx":[3,1],"val":[1,1]}]}`, http.StatusBadRequest, "dimension", false},
		{"overflowing topk weights", "/v1/topk", `{"queries": [{"idx":[0],"val":[1]}, {"idx":[0,2],"val":[1,1e200]}]}`, http.StatusBadRequest, "config", false},
		{"overflowing classify weights", "/v1/classify", `{"queries": [{"idx":[1],"val":[-1e200]}]}`, http.StatusBadRequest, "config", false},
		{"bad k", "/v1/topk", `{"k": -2, "queries": [{"idx":[0],"val":[1]}]}`, http.StatusBadRequest, "config", false},
		{"k over limit", "/v1/topk", `{"k": 1000, "queries": [{"idx":[0],"val":[1]}]}`, http.StatusBadRequest, "config", false},
		{"bad metric", "/v1/classify", `{"metric": "manhattan", "queries": [{"idx":[0],"val":[1]}]}`, http.StatusBadRequest, "config", false},
		{"malformed ingest", "/v1/ingest", `{]`, http.StatusBadRequest, "bad_request", false},
		{"no model", "/v1/ingest", `{"documents": [{"ID":"x","Counts":{"0":1}}]}`, http.StatusServiceUnavailable, "unavailable", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(t, h, tc.path, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d (body %q)", rec.Code, tc.status, rec.Body.String())
			}
			if kind := decodeErrorKind(t, rec); kind != tc.kind {
				t.Fatalf("error kind %q, want %q", kind, tc.kind)
			}
		})
	}
	_ = sigs

	// Wrong method on a POST route gets the mux's 405.
	req := httptest.NewRequest("GET", "/v1/topk", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/topk: status %d, want 405", rec.Code)
	}
}

// TestCoalescedBitIdentical proves the coalesced path returns exactly
// what per-request TopKSparse/ClassifySparse return: same doc ids, same
// labels, same float bits. Many goroutines submit concurrently so the
// dispatcher actually forms multi-task batches.
func TestCoalescedBitIdentical(t *testing.T) {
	s, sigs := newTestServer(t, Config{MaxBatch: 16, MaxWait: 2 * time.Millisecond, MaxQueue: 256}, 120)
	defer s.Shutdown(t.Context())
	db := s.db
	const k = 5

	queries := make([]*vecmath.Sparse, 24)
	for i := range queries {
		queries[i] = sigs[i*3].W
	}
	type want struct {
		hits  []core.SearchResult
		label string
	}
	wants := make([]want, len(queries))
	for i, q := range queries {
		hits, err := db.TopKSparse(q, k, core.CosineMetric())
		if err != nil {
			t.Fatal(err)
		}
		label, err := db.ClassifySparse(q, k, core.CosineMetric())
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want{hits: hits, label: label}
	}

	done := make(chan error, 2*len(queries))
	for i, q := range queries {
		go func(i int, q *vecmath.Sparse) {
			hits, err := s.TopK([]*vecmath.Sparse{q}, k, core.CosineMetric())
			if err != nil {
				done <- fmt.Errorf("TopK %d: %v", i, err)
				return
			}
			got := hits[0]
			wantHits := wants[i].hits
			if len(got) != len(wantHits) {
				done <- fmt.Errorf("query %d: %d hits, want %d", i, len(got), len(wantHits))
				return
			}
			for j := range got {
				if got[j].Signature.DocID != wantHits[j].Signature.DocID ||
					got[j].Signature.Label != wantHits[j].Signature.Label ||
					got[j].Score != wantHits[j].Score {
					done <- fmt.Errorf("query %d hit %d: got (%s,%s,%v) want (%s,%s,%v)",
						i, j, got[j].Signature.DocID, got[j].Signature.Label, got[j].Score,
						wantHits[j].Signature.DocID, wantHits[j].Signature.Label, wantHits[j].Score)
					return
				}
			}
			done <- nil
		}(i, q)
		go func(i int, q *vecmath.Sparse) {
			labels, err := s.Classify([]*vecmath.Sparse{q}, k, core.CosineMetric())
			if err != nil {
				done <- fmt.Errorf("Classify %d: %v", i, err)
				return
			}
			if labels[0] != wants[i].label {
				done <- fmt.Errorf("query %d: label %q, want %q", i, labels[0], wants[i].label)
				return
			}
			done <- nil
		}(i, q)
	}
	for range 2 * len(queries) {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}

	// The dispatcher must have coalesced at least once: fewer batched
	// kernel calls than queries answered.
	m := s.Metrics()
	if m.Queries < uint64(2*len(queries)) {
		t.Fatalf("metrics count %d queries, want >= %d", m.Queries, 2*len(queries))
	}
	t.Logf("queries=%d batches=%d mean batch=%.2f", m.Queries, m.Batches, m.MeanBatchSize)
}

// TestHandlerBitIdenticalHTTP drives the full HTTP path and compares
// wire results against direct DB calls.
func TestHandlerBitIdenticalHTTP(t *testing.T) {
	s, sigs := newTestServer(t, Config{}, 80)
	defer s.Shutdown(t.Context())
	h := s.Handler()
	const k = 4

	q := sigs[7].W
	wantHits, err := s.db.TopKSparse(q, k, core.EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(queryRequest{Queries: []wireQuery{wireFromSparse(q)}, K: k, Metric: "euclidean"})
	rec := postJSON(t, h, "/v1/topk", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp topkResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0]) != len(wantHits) {
		t.Fatalf("got %v, want %d hits", resp.Results, len(wantHits))
	}
	for j, hit := range resp.Results[0] {
		if hit.DocID != wantHits[j].Signature.DocID || hit.Score != wantHits[j].Score {
			t.Fatalf("hit %d: got (%s,%v) want (%s,%v)", j, hit.DocID, hit.Score,
				wantHits[j].Signature.DocID, wantHits[j].Score)
		}
	}
}

// TestOverload429 fills the queue with slow-to-drain work and asserts
// rejected submissions get 429 plus a positive integer Retry-After.
func TestOverload429(t *testing.T) {
	// MaxQueue 1 with a dispatcher stalled by an in-flight batch makes
	// overload deterministic: park one task in the kernel, one in the
	// queue, and the next submission must bounce.
	s, sigs := newTestServer(t, Config{MaxBatch: 2, MaxWait: time.Microsecond, MaxQueue: 1}, 4000)
	defer s.Shutdown(t.Context())
	h := s.Handler()

	body, _ := json.Marshal(queryRequest{Queries: []wireQuery{wireFromSparse(sigs[0].W)}, K: 50})
	var saw429 bool
	results := make(chan *httptest.ResponseRecorder, 64)
	for i := 0; i < 64; i++ {
		go func() { results <- postJSON(t, h, "/v1/topk", string(body)) }()
	}
	for i := 0; i < 64; i++ {
		rec := <-results
		switch rec.Code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			saw429 = true
			if kind := decodeErrorKind(t, rec); kind != "overload" {
				t.Fatalf("429 kind %q, want overload", kind)
			}
			ra := rec.Header().Get("Retry-After")
			secs, err := strconv.Atoi(ra)
			if err != nil || secs < 1 {
				t.Fatalf("Retry-After %q, want a positive integer", ra)
			}
		default:
			t.Fatalf("unexpected status %d: %s", rec.Code, rec.Body.String())
		}
	}
	if !saw429 {
		t.Skip("queue never filled on this run (scheduler got every task through); overload path covered by TestSubmitOverloadDirect")
	}
	if got := s.Metrics().Rejected; got == 0 {
		t.Fatal("metrics show zero rejected requests after a 429")
	}
}

// TestSubmitOverloadDirect asserts the batcher-level overload error
// deterministically: with no dispatcher draining (we stall it with a
// closed-over kernel call), a full channel must reject.
func TestSubmitOverloadDirect(t *testing.T) {
	db, err := core.NewShardedDB(testDim, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll(testSigs(3, 10, 4)); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	met := newMetrics()
	// Hand-build a batcher whose dispatcher never runs: the queue fills
	// and rejects synchronously.
	b := &batcher{db: db, cfg: Config{MaxBatch: 4, MaxQueue: 2}.withDefaults(), met: met, done: make(chan struct{})}
	b.queue = make(chan *task, 2)

	q := testSigs(4, 1, 4)[0].W
	mk := func() *task {
		return &task{kind: kindTopK, queries: []*vecmath.Sparse{q}, k: 1, metric: core.CosineMetric(), done: make(chan struct{})}
	}
	// Fill the queue without a dispatcher; the third submission bounces.
	b.queue <- mk()
	b.queue <- mk()
	err = b.submit(mk())
	var oe *OverloadError
	if !asOverload(err, &oe) {
		t.Fatalf("err = %v, want *OverloadError", err)
	}
	if oe.RetryAfter < time.Second {
		t.Fatalf("RetryAfter %v, want >= 1s", oe.RetryAfter)
	}
	if oe.Depth != 2 {
		t.Fatalf("Depth %d, want 2", oe.Depth)
	}
}

func asOverload(err error, target **OverloadError) bool {
	oe, ok := err.(*OverloadError)
	if ok {
		*target = oe
	}
	return ok
}

// TestShutdownDrainsInFlight submits work, begins shutdown concurrently,
// and asserts every accepted task completes with results (never a lost
// done channel) and late submissions fail 503, with the final DB close
// being clean.
func TestShutdownDrainsInFlight(t *testing.T) {
	s, sigs := newTestServer(t, Config{MaxBatch: 8, MaxWait: time.Millisecond, MaxQueue: 512}, 200)
	const inFlight = 64
	results := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		go func(i int) {
			hits, err := s.TopK([]*vecmath.Sparse{sigs[i].W}, 3, core.CosineMetric())
			if err != nil {
				results <- err
				return
			}
			if len(hits) != 1 || len(hits[0]) == 0 {
				results <- fmt.Errorf("request %d: empty hits", i)
				return
			}
			results <- nil
		}(i)
	}
	// Wait until work is genuinely in flight — queued or already
	// answered — so the drain has something to drain (on a single-P
	// scheduler the shutdown could otherwise win every race).
	for s.bat.depth() == 0 && s.met.queries.Load() == 0 {
		runtime.Gosched()
	}
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	accepted, drained := 0, 0
	for i := 0; i < inFlight; i++ {
		err := <-results
		switch {
		case err == nil:
			accepted++
			drained++
		case err == errDraining:
			// Submitted after intake closed — the contractually allowed
			// rejection.
		default:
			t.Fatalf("in-flight request failed with %v, want success or draining", err)
		}
	}
	if drained == 0 {
		t.Fatal("no request completed before shutdown — drain untested")
	}
	// Post-shutdown traffic is a typed 503.
	if _, err := s.TopK([]*vecmath.Sparse{sigs[0].W}, 3, core.CosineMetric()); err != errDraining {
		t.Fatalf("post-shutdown TopK err = %v, want draining", err)
	}
	rec := postJSON(t, s.Handler(), "/v1/topk", `{"queries":[{"idx":[0],"val":[1]}]}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown HTTP status %d, want 503", rec.Code)
	}
	t.Logf("accepted %d/%d before drain", accepted, inFlight)
}

// TestIngestSinglePublish proves the ingest handler amortizes the RCU
// publish: one request body with N documents moves the publish counter
// by exactly one.
func TestIngestSinglePublish(t *testing.T) {
	dim := testDim
	corpus, err := core.NewCorpus(dim)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	mkdoc := func(id string) *core.Document {
		counts := make(map[int]uint64)
		for j := 0; j < 6; j++ {
			counts[r.Intn(dim)] = uint64(1 + r.Intn(9))
		}
		return &core.Document{ID: id, Label: "l", Counts: counts}
	}
	for i := 0; i < 20; i++ {
		if err := corpus.Add(mkdoc(fmt.Sprintf("seed%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	model, err := corpus.Fit()
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.NewShardedDB(dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, model, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(t.Context())

	docs := make([]*core.Document, 16)
	for i := range docs {
		docs[i] = mkdoc(fmt.Sprintf("live%d", i))
	}
	body, _ := json.Marshal(ingestRequest{Documents: docs})
	before := db.Publishes()
	rec := postJSON(t, s.Handler(), "/v1/ingest", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
	}
	var resp ingestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Added != len(docs) {
		t.Fatalf("added %d, want %d", resp.Added, len(docs))
	}
	if got := db.Publishes() - before; got != 1 {
		t.Fatalf("ingest of %d documents cost %d publishes, want 1", len(docs), got)
	}
	if db.Len() != len(docs) {
		t.Fatalf("db has %d signatures, want %d", db.Len(), len(docs))
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, sigs := newTestServer(t, Config{}, 30)
	h := s.Handler()

	req := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}

	body, _ := json.Marshal(queryRequest{Queries: []wireQuery{wireFromSparse(sigs[0].W)}})
	if rec := postJSON(t, h, "/v1/topk", string(body)); rec.Code != http.StatusOK {
		t.Fatalf("topk status %d: %s", rec.Code, rec.Body.String())
	}

	req = httptest.NewRequest("GET", "/metrics", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var m MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics body: %v", err)
	}
	if m.TopKRequests != 1 || m.Queries != 1 || m.DBSignatures != 30 {
		t.Fatalf("metrics = %+v, want 1 topk request / 1 query / 30 signatures", m)
	}
	// 30 unsealed rows are below a posting run: all of them are the
	// active-segment fill.
	if m.DBUnindexedRows != 30 || !bytes.Contains(rec.Body.Bytes(), []byte(`"active_unindexed_rows":30`)) {
		t.Fatalf("active_unindexed_rows = %d in %s, want 30", m.DBUnindexedRows, rec.Body.String())
	}
	if m.QueueCapacity == 0 || m.LatencyP50US <= 0 {
		t.Fatalf("metrics missing queue capacity or latency: %+v", m)
	}

	// After shutdown, healthz reports draining.
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest("GET", "/healthz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown healthz status %d, want 503", rec.Code)
	}
}
