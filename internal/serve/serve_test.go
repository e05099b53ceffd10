package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
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

// newTestServer builds a server over a fresh DB seeded with n
// signatures. Callers own shutdown.
func newTestServer(t *testing.T, cfg Config, n int) (*Server, []core.Signature) {
	t.Helper()
	db, err := core.NewDB(testDim)
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

// badRequests are bodies every server refuses before admission, with
// the status and kind it answers them with; FuzzDecodeQueryRequest
// starts from them too.
var badRequests = []struct {
	name   string
	path   string
	body   string
	status int
	kind   string
}{
	{"malformed json", "/v1/topk", `{"queries": [`, http.StatusBadRequest, "bad_request"},
	{"unknown field", "/v1/topk", `{"nope": 1}`, http.StatusBadRequest, "bad_request"},
	{"no queries", "/v1/topk", `{"queries": []}`, http.StatusBadRequest, "bad_request"},
	{"dim mismatch", "/v1/topk", `{"dim": 7, "queries": [{"idx":[0],"val":[1]}]}`, http.StatusBadRequest, "dimension"},
	{"index out of range", "/v1/topk", fmt.Sprintf(`{"queries": [{"idx":[%d],"val":[1]}]}`, testDim), http.StatusBadRequest, "dimension"},
	{"unsorted indices", "/v1/topk", `{"queries": [{"idx":[3,1],"val":[1,1]}]}`, http.StatusBadRequest, "dimension"},
	{"overflowing topk weights", "/v1/topk", `{"queries": [{"idx":[0],"val":[1]}, {"idx":[0,2],"val":[1,1e200]}]}`, http.StatusBadRequest, "config"},
	{"overflowing classify weights", "/v1/classify", `{"queries": [{"idx":[1],"val":[-1e200]}]}`, http.StatusBadRequest, "config"},
	{"bad k", "/v1/topk", `{"k": -2, "queries": [{"idx":[0],"val":[1]}]}`, http.StatusBadRequest, "config"},
	{"k over limit", "/v1/topk", `{"k": 1000, "queries": [{"idx":[0],"val":[1]}]}`, http.StatusBadRequest, "config"},
	{"bad metric", "/v1/classify", `{"metric": "manhattan", "queries": [{"idx":[0],"val":[1]}]}`, http.StatusBadRequest, "config"},
	{"topk body then ]", "/v1/topk", `{"queries": [{"idx":[0],"val":[1]}]}]`, http.StatusBadRequest, "bad_request"},
	{"classify body then }", "/v1/classify", `{"queries": [{"idx":[0],"val":[1]}]} }`, http.StatusBadRequest, "bad_request"},
	{"second body", "/v1/topk", `{"queries": [{"idx":[0],"val":[1]}]} {}`, http.StatusBadRequest, "bad_request"},
	{"index not an int32", "/v1/topk", `{"queries": [{"idx":[1.0],"val":[1]}]}`, http.StatusBadRequest, "bad_request"},
	{"weight out of range", "/v1/topk", `{"queries": [{"idx":[0],"val":[1e400]}]}`, http.StatusBadRequest, "bad_request"},
	{"leading zero", "/v1/classify", `{"k": 01, "queries": [{"idx":[0],"val":[1]}]}`, http.StatusBadRequest, "bad_request"},
	{"query not an object", "/v1/topk", `{"queries": [[0, 1]]}`, http.StatusBadRequest, "bad_request"},
	{"malformed ingest", "/v1/ingest", `{]`, http.StatusBadRequest, "bad_request"},
	{"ingest body then }", "/v1/ingest", `{"documents": [{"ID":"x","Counts":{"0":1}}]}}`, http.StatusBadRequest, "bad_request"},
	{"ingest body then ]", "/v1/ingest", `{"documents": [{"ID":"x","Counts":{"0":1}}]}]`, http.StatusBadRequest, "bad_request"},
	{"no model", "/v1/ingest", `{"documents": [{"ID":"x","Counts":{"0":1}}]}`, http.StatusServiceUnavailable, "unavailable"},
}

func TestHandlerBadRequests(t *testing.T) {
	s, _ := newTestServer(t, Config{}, 50)
	defer s.Shutdown(t.Context())
	h := s.Handler()

	for _, tc := range badRequests {
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

	// Wrong method on a POST route gets the mux's 405.
	req := httptest.NewRequest("GET", "/v1/topk", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/topk: status %d, want 405", rec.Code)
	}
}

// sameHits reports the first difference between two hit lists compared
// by doc id, label and score bits.
func sameHits(got, want []core.SearchResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, want %d", len(got), len(want))
	}
	for j := range got {
		if got[j].Signature.DocID != want[j].Signature.DocID ||
			got[j].Signature.Label != want[j].Signature.Label ||
			math.Float64bits(got[j].Score) != math.Float64bits(want[j].Score) {
			return fmt.Errorf("hit %d: got (%s,%s,%v) want (%s,%s,%v)",
				j, got[j].Signature.DocID, got[j].Signature.Label, got[j].Score,
				want[j].Signature.DocID, want[j].Signature.Label, want[j].Score)
		}
	}
	return nil
}

// TestCoalescedBitIdentical proves that many requests passing the gate
// at once each get exactly what per-query TopKSparse/ClassifySparse
// return — same doc ids, same labels, same float bits — and that one
// request is one core.Query. Requests carry one to three queries, and
// every second — then every — TopK request is sampled for PruneStats,
// so that arm is held to the same oracle and its first query's counters
// alone reach /metrics — every one of them, the scanned units included.
func TestCoalescedBitIdentical(t *testing.T) {
	for _, every := range []int{2, 1} {
		t.Run(fmt.Sprintf("sample-every-%d", every), func(t *testing.T) { coalescedBitIdentical(t, every) })
	}
}

func coalescedBitIdentical(t *testing.T, every int) {
	s, sigs := newTestServer(t, Config{MaxQueue: 256}, 120)
	s.pruneEvery = uint64(every)
	defer s.Shutdown(t.Context())
	db := s.db
	const k = 5
	const requests = 24

	type want struct {
		hits  []core.SearchResult
		label string
	}
	wants := make([]want, requests+2)
	var first PruneAggr // the counters of the first queries of all TopK requests
	for i := range wants {
		hits, st, err := db.TopKSparseStats(sigs[i*3].W, k, core.CosineMetric())
		if err != nil {
			t.Fatal(err)
		}
		if i < requests {
			first.Add(&st)
		}
		label, err := db.ClassifySparse(sigs[i*3].W, k, core.CosineMetric())
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want{hits: hits, label: label}
	}

	done := make(chan error, 2*requests)
	nQueries := 0
	for i := 0; i < requests; i++ {
		n := 1 + i%3 // queries i, i+1, … of the oracle table
		nQueries += 2 * n
		queries := make([]*vecmath.Sparse, n)
		for j := range queries {
			queries[j] = sigs[(i+j)*3].W
		}
		go func(i int) {
			hits, err := s.TopK(queries, k, core.CosineMetric())
			if err != nil {
				done <- fmt.Errorf("TopK %d: %v", i, err)
				return
			}
			for j := range hits {
				if err := sameHits(hits[j], wants[i+j].hits); err != nil {
					done <- fmt.Errorf("TopK %d query %d: %v", i, j, err)
					return
				}
			}
			done <- nil
		}(i)
		go func(i int) {
			labels, err := s.Classify(queries, k, core.CosineMetric())
			if err != nil {
				done <- fmt.Errorf("Classify %d: %v", i, err)
				return
			}
			for j := range labels {
				if labels[j] != wants[i+j].label {
					done <- fmt.Errorf("Classify %d query %d: label %q, want %q", i, j, labels[j], wants[i+j].label)
					return
				}
			}
			done <- nil
		}(i)
	}
	for range 2 * requests {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}

	m := s.Metrics()
	if m.Queries != uint64(nQueries) || m.Batches != 2*requests {
		t.Fatalf("metrics count %d queries in %d batches, want %d in %d", m.Queries, m.Batches, nQueries, 2*requests)
	}
	if m.Prune.Samples != uint64(requests/every) {
		t.Fatalf("%d prune samples from %d TopK requests at every %d, want %d", m.Prune.Samples, requests, every, requests/every)
	}
	first.Samples = m.Prune.Samples
	if every == 1 && (first.Segments == 0 || first.SegmentsScanned == 0 || m.Prune != first) {
		t.Fatalf("prune sums %+v, want the first queries' %+v", m.Prune, first)
	}
	if m.QueueDepth != 0 {
		t.Fatalf("queue depth %d with nothing in flight", m.QueueDepth)
	}
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

// fillGate admits requests until the gate is at its bound and returns
// the function that lets them all leave again.
func fillGate(t *testing.T, g *gate) (release func()) {
	t.Helper()
	for i := 0; i < g.limit; i++ {
		if err := g.admit(); err != nil {
			t.Fatalf("admission %d of %d: %v", i, g.limit, err)
		}
	}
	return func() {
		for i := 0; i < g.limit; i++ {
			g.leave()
		}
	}
}

// TestOverload429 asserts a request arriving at a full gate gets 429, a
// positive integer Retry-After and the overload kind, is counted, and
// that the same request is answered once there is room again.
func TestOverload429(t *testing.T) {
	s, sigs := newTestServer(t, Config{MaxQueue: 3}, 50)
	defer s.Shutdown(t.Context())
	h := s.Handler()
	body, _ := json.Marshal(queryRequest{Queries: []wireQuery{wireFromSparse(sigs[0].W)}, K: 5})

	release := fillGate(t, s.gate)
	for _, path := range []string{"/v1/topk", "/v1/classify"} {
		rec := postJSON(t, h, path, string(body))
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("%s at a full gate: status %d, want 429 (%s)", path, rec.Code, rec.Body.String())
		}
		if kind := decodeErrorKind(t, rec); kind != "overload" {
			t.Fatalf("429 kind %q, want overload", kind)
		}
		ra := rec.Header().Get("Retry-After")
		if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
			t.Fatalf("Retry-After %q, want a positive integer", ra)
		}
	}
	if m := s.Metrics(); m.Rejected != 2 || m.Batches != 0 || m.QueueDepth != 3 {
		t.Fatalf("after two 429s: rejected %d, batches %d, depth %d; want 2, 0, 3", m.Rejected, m.Batches, m.QueueDepth)
	}
	release()
	if rec := postJSON(t, h, "/v1/topk", string(body)); rec.Code != http.StatusOK {
		t.Fatalf("after release: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestSubmitOverloadDirect asserts the gate-level overload error: with
// MaxQueue requests admitted the next one is refused with the typed
// error carrying the depth it saw and a backoff of at least a second,
// however many of the admitted ones hold a run slot.
func TestSubmitOverloadDirect(t *testing.T) {
	s, sigs := newTestServer(t, Config{MaxQueue: 2}, 10)
	defer s.Shutdown(t.Context())
	q := []*vecmath.Sparse{sigs[0].W}

	release := fillGate(t, s.gate)
	_, err := s.TopK(q, 1, core.CosineMetric())
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *OverloadError", err)
	}
	if oe.RetryAfter < time.Second {
		t.Fatalf("RetryAfter %v, want >= 1s", oe.RetryAfter)
	}
	if oe.Depth != 2 {
		t.Fatalf("Depth %d, want 2", oe.Depth)
	}
	if _, err := s.Classify(q, 1, core.CosineMetric()); !errors.As(err, &oe) {
		t.Fatalf("Classify err = %v, want *OverloadError", err)
	}
	// A long backlog of slow requests still answers within the clamp.
	s.gate.ewmaRunNS.Store(int64(time.Hour))
	if ra := s.gate.retryAfter(1 << 20); ra != 60*time.Second {
		t.Fatalf("RetryAfter %v for an hour-per-request backlog, want the 60s clamp", ra)
	}
	release()
	if _, err := s.TopK(q, 1, core.CosineMetric()); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// holdSlots takes every run slot, so admitted requests wait at the gate,
// and returns the function that gives the slots back.
func holdSlots(g *gate) (release func()) {
	n := cap(g.slots)
	for i := 0; i < n; i++ {
		g.slots <- struct{}{}
	}
	return func() {
		for i := 0; i < n; i++ {
			<-g.slots
		}
	}
}

// waitDepth blocks until n requests are admitted.
func waitDepth(g *gate, n int) {
	for g.depth() != n {
		runtime.Gosched()
	}
}

// TestShutdownDrainsInFlight parks admitted requests at the gate, begins
// shutdown, and asserts late arrivals get the typed 503 while Shutdown
// waits; once the slots free up every admitted request completes with
// results and only then does Shutdown return, closing the DB.
func TestShutdownDrainsInFlight(t *testing.T) {
	s, sigs := newTestServer(t, Config{}, 200)
	const inFlight = 64
	release := holdSlots(s.gate)
	results := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		go func(i int) {
			hits, err := s.TopK([]*vecmath.Sparse{sigs[i].W}, 3, core.CosineMetric())
			if err == nil && (len(hits) != 1 || len(hits[0]) == 0) {
				err = fmt.Errorf("request %d: empty hits", i)
			}
			results <- err
		}(i)
	}
	waitDepth(s.gate, inFlight)

	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(context.Background()) }()
	for closed := false; !closed; runtime.Gosched() {
		s.gate.mu.Lock()
		closed = s.gate.closed
		s.gate.mu.Unlock()
	}
	if _, err := s.TopK([]*vecmath.Sparse{sigs[0].W}, 3, core.CosineMetric()); err != errDraining {
		t.Fatalf("TopK during drain: err = %v, want draining", err)
	}
	for _, path := range []string{"/v1/topk", "/v1/classify"} {
		rec := postJSON(t, s.Handler(), path, `{"queries":[{"idx":[0],"val":[1]}]}`)
		if rec.Code != http.StatusServiceUnavailable || decodeErrorKind(t, rec) != "unavailable" {
			t.Fatalf("%s during drain: status %d (%s), want a typed 503", path, rec.Code, rec.Body.String())
		}
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) with %d requests still admitted", err, s.gate.depth())
	default:
	}

	release()
	for i := 0; i < inFlight; i++ {
		if err := <-results; err != nil {
			t.Errorf("admitted request lost to the drain: %v", err)
		}
	}
	if err := <-shut; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if m := s.Metrics(); m.Batches != inFlight || m.QueueDepth != 0 {
		t.Fatalf("after drain: %d batches, depth %d; want %d, 0", m.Batches, m.QueueDepth, inFlight)
	}
	// The DB is closed; a second Shutdown is a second DB.Close.
	if _, err := s.db.TopKSparse(sigs[0].W, 3, core.CosineMetric()); err == nil {
		t.Fatal("DB still answers after Shutdown")
	}
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestAbandonedWaiterLeaves holds every run slot, abandons one waiting
// request, and asserts it returns without reaching the kernel: nothing
// counted, its admission given back, and the requests still waiting
// beside it answered as usual.
func TestAbandonedWaiterLeaves(t *testing.T) {
	s, sigs := newTestServer(t, Config{}, 50)
	defer s.Shutdown(t.Context())
	q := []*vecmath.Sparse{sigs[0].W}
	release := holdSlots(s.gate)

	stays := make(chan error, 1)
	go func() {
		_, err := s.TopK(q, 3, core.CosineMetric())
		stays <- err
	}()
	waitDepth(s.gate, 1)

	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 2)
	go func() {
		err := s.run(ctx, &core.Query{Queries: q, K: 3, Metric: core.CosineMetric(), Hits: make([][]core.SearchResult, 1)})
		if !errors.Is(err, context.Canceled) {
			gone <- fmt.Errorf("abandoned topK: err = %v, want context.Canceled", err)
			return
		}
		gone <- nil
	}()
	go func() {
		body, _ := json.Marshal(queryRequest{Queries: []wireQuery{wireFromSparse(sigs[0].W)}})
		req := httptest.NewRequest("POST", "/v1/classify", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			gone <- fmt.Errorf("abandoned classify: status %d, want 503", rec.Code)
			return
		}
		gone <- nil
	}()
	waitDepth(s.gate, 3)
	cancel()
	for range 2 {
		if err := <-gone; err != nil {
			t.Fatal(err)
		}
	}
	if m := s.Metrics(); m.Queries != 0 || m.Batches != 0 || m.QueueDepth != 1 {
		t.Fatalf("after abandonment: %d queries, %d batches, depth %d; want 0, 0, 1", m.Queries, m.Batches, m.QueueDepth)
	}

	release()
	if err := <-stays; err != nil {
		t.Fatalf("request that kept waiting: %v", err)
	}
	if m := s.Metrics(); m.Queries != 1 || m.Batches != 1 || m.QueueDepth != 0 {
		t.Fatalf("at rest: %d queries, %d batches, depth %d; want 1, 1, 0", m.Queries, m.Batches, m.QueueDepth)
	}

	// Admitted, then abandoned: the request holds a run slot when its
	// client leaves once query 0 of 3 has answered. It stops at the next
	// query boundary (queries in order: sequential workers), gives the
	// slot back and is counted nowhere.
	s.db.SetWorkers(-1)
	three := core.Query{Queries: []*vecmath.Sparse{sigs[0].W, sigs[1].W, sigs[2].W}, K: 3, Metric: core.CosineMetric(), Hits: make([][]core.SearchResult, 3)}
	leaving := leavingCtx{Context: context.Background(), slot: &three.Hits[0]}
	if err := s.run(leaving, &three); !errors.Is(err, context.Canceled) {
		t.Fatalf("request abandoned while running: err = %v, want context.Canceled", err)
	}
	if three.Hits[0] == nil || three.Hits[1] != nil || three.Hits[2] != nil {
		t.Fatalf("abandoned request ran past the query boundary: %d, %d, %d hits", len(three.Hits[0]), len(three.Hits[1]), len(three.Hits[2]))
	}
	if m := s.Metrics(); m.Queries != 1 || m.Batches != 1 || m.QueueDepth != 0 || len(s.gate.slots) != 0 {
		t.Fatalf("after abandonment in a slot: %d queries, %d batches, depth %d, %d slots held; want 1, 1, 0, 0", m.Queries, m.Batches, m.QueueDepth, len(s.gate.slots))
	}
}

// leavingCtx is a client that leaves once a watched hit slot is
// written: its Err reports context.Canceled from then on.
type leavingCtx struct {
	context.Context
	slot *[]core.SearchResult
}

func (c leavingCtx) Err() error {
	if len(*c.slot) > 0 {
		return context.Canceled
	}
	return nil
}

// TestHTTPServerTimeouts asserts the http.Server the binaries mount has
// every limit set: the read budget is the header budget plus an 8 MiB
// body at 256 KiB/s (5 s + 32 s), and a response gets the 60 s
// Retry-After ceiling past it.
func TestHTTPServerTimeouts(t *testing.T) {
	s, _ := newTestServer(t, Config{}, 1)
	defer s.Shutdown(t.Context())
	hs := s.HTTPServer()
	if hs.Handler == nil || hs.ReadHeaderTimeout != 5*time.Second || hs.IdleTimeout <= 0 {
		t.Fatalf("HTTPServer leaves a limit unset: %+v", hs)
	}
	if hs.ReadTimeout != 37*time.Second || hs.WriteTimeout != 97*time.Second {
		t.Fatalf("ReadTimeout %v, WriteTimeout %v: want 37s (5s headers + 8MiB at 256KiB/s) and 97s (plus the 60s Retry-After ceiling)", hs.ReadTimeout, hs.WriteTimeout)
	}
}

// TestIngestSinglePublish proves the ingest handler amortizes the RCU
// publish: one request body with N documents moves the publish counter
// by exactly one.
func TestIngestSinglePublish(t *testing.T) {
	dim := testDim
	r := rand.New(rand.NewSource(9))
	mkdoc := func(id string) *core.Document {
		counts := make(map[int]uint64)
		for j := 0; j < 6; j++ {
			counts[r.Intn(dim)] = uint64(1 + r.Intn(9))
		}
		return &core.Document{ID: id, Label: "l", Counts: counts}
	}
	db, err := core.NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, ingestModel(t), Config{})
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

	// A body with two documents out of range is refused whole, as a 400
	// that names the first of them, and adds nothing.
	bad := []*core.Document{
		mkdoc("fine"),
		{ID: "stray-a", Counts: map[int]uint64{dim + 5: 1}},
		mkdoc("fine-too"),
		{ID: "stray-b", Counts: map[int]uint64{-1: 1}},
	}
	body, _ = json.Marshal(ingestRequest{Documents: bad})
	rec = postJSON(t, s.Handler(), "/v1/ingest", string(body))
	if rec.Code != http.StatusBadRequest || decodeErrorKind(t, rec) != "config" {
		t.Fatalf("out-of-range ingest: status %d, body %s", rec.Code, rec.Body.String())
	}
	if msg := rec.Body.String(); !strings.Contains(msg, "stray-a") || strings.Contains(msg, "stray-b") {
		t.Fatalf("out-of-range ingest: body %s does not name stray-a alone", msg)
	}
	if db.Len() != len(docs) {
		t.Fatalf("refused body left %d signatures, want %d", db.Len(), len(docs))
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

// BenchmarkServeTopKParallel drives single-query TopK requests through
// the gate from 1, 2 and 4 goroutines per GOMAXPROCS over a sealed
// 2000-signature, 12-nnz store in the real 3815-function space, where a
// query costs microseconds and whatever the serving layer adds per
// request shows. ns/op is wall time per request across all goroutines.
func BenchmarkServeTopKParallel(b *testing.B) {
	const dim, n, nnz, k = 3815, 2000, 12, 10
	r := rand.New(rand.NewSource(1))
	corpus, err := core.NewCorpus(dim)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		counts := make(map[int]uint64)
		for j := 0; j < nnz; j++ {
			counts[r.Intn(dim)] = uint64(1 + r.Intn(100000))
		}
		doc := &core.Document{ID: fmt.Sprintf("d%d", i), Label: fmt.Sprintf("l%d", i%3), Duration: 10 * time.Second, Counts: counts}
		if err := corpus.Add(doc); err != nil {
			b.Fatal(err)
		}
	}
	sigs, _, err := corpus.Signatures()
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]*vecmath.Sparse, 64)
	for i := range queries {
		queries[i] = []*vecmath.Sparse{sigs[i*7].W}
	}
	for _, per := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("goroutines=%dxGOMAXPROCS", per), func(b *testing.B) {
			db, err := core.NewDB(dim)
			if err != nil {
				b.Fatal(err)
			}
			for lo := 0; lo < len(sigs); lo += 512 {
				if err := db.AddAll(sigs[lo:min(lo+512, len(sigs))]); err != nil {
					b.Fatal(err)
				}
				db.Seal()
			}
			db.IndexBytes() // builds the recorded runs before the timer starts
			s, err := New(db, nil, Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Shutdown(context.Background())
			var next atomic.Uint64
			b.SetParallelism(per)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					q := queries[next.Add(1)%uint64(len(queries))]
					if _, err := s.TopK(q, k, core.CosineMetric()); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// TestMetricsPruneKeys pins the /metrics prune_sampled object byte for
// byte: its keys come from core.PruneStats' json tags after Samples.
func TestMetricsPruneKeys(t *testing.T) {
	b, err := json.Marshal(MetricsSnapshot{})
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	const want = `{"samples":0,"segments":0,"segments_pruned":0,"segments_scanned":0,` +
		`"candidates":0,"candidates_scored":0,"dims_considered":0,"dims_skipped":0,` +
		`"blocks_considered":0,"blocks_skipped":0}`
	if got := string(top["prune_sampled"]); got != want {
		t.Errorf("prune_sampled = %s\nwant %s", got, want)
	}
}
