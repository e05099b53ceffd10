//fmeter:nondeterministic-ok benchmark harness: spans are wall-clock intervals

package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
)

// Span names. The spans are taken from outside the program, around calls
// into each layer's public functions; spans recorded inside the program
// later must reuse these names.
const (
	spanRoundtrip = "client.roundtrip" // the HTTP call, as the client sees it
	spanHandler   = "serve.handler"    // Server.Handler().ServeHTTP, nested in the round trip
	spanServe     = "serve.topk"       // Server.TopK / Server.Classify, replayed for the same request
	spanCore      = "core.topk"        // db.TopKBatch / db.ClassifyBatch of the one query, replayed for the same request
)

// span is one timed interval of one request. Spans of a request share
// Req; Parent names the span that contains it.
type span struct {
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) record(req int, name, parent string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// middleware records a serve.handler span for every request that
// carries a request index.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.Atoi(r.Header.Get(reqHeader))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		t.record(req, spanHandler, spanRoundtrip, start, time.Now())
	})
}

// durationsUs returns the durations of the spans called name.
func (t *tracer) durationsUs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	return out
}

// writeFile writes the spans as JSON Lines.
func (t *tracer) writeFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}
