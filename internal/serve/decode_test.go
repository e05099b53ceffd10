package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/core"
)

// oracleDecode is the decoder parseQueryRequest replaced, kept as its
// oracle: encoding/json with DisallowUnknownFields, and nothing after
// the value but whitespace.
func oracleDecode(body []byte, req *queryRequest) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// benchDim is the kernel function space the bench's bodies index.
const benchDim = 3815

// benchBody renders one query of n terms the way bench/ does: one
// json.Marshal of the request, ascending indices, tf-idf-sized weights.
func benchBody(r *rand.Rand, n int, metric string) []byte {
	var q wireQuery
	for _, d := range r.Perm(benchDim)[:n] {
		q.Idx = append(q.Idx, int32(d))
	}
	slices.Sort(q.Idx)
	for range n {
		q.Val = append(q.Val, r.ExpFloat64()/float64(n))
	}
	b, err := json.Marshal(struct {
		Queries []wireQuery `json:"queries"`
		K       int         `json:"k"`
		Metric  string      `json:"metric"`
	}{[]wireQuery{q}, 10, metric})
	if err != nil {
		panic(err)
	}
	return b
}

// outcome is what a server makes of one query body: the refusal's
// status and kind, or (status 200) the validated query; and, whenever
// the body decoded, its metric and dim as they arrived, so a string or
// a number validation throws away is compared too.
type outcome struct {
	status int
	kind   string
	q      core.Query
	metric string
	dim    int
}

// decodeOutcome decodes body with decode, validates it as the handlers
// do and maps a refusal through writeError.
func decodeOutcome(t testing.TB, s *Server, body []byte, decode func([]byte, *queryRequest) error) outcome {
	var req queryRequest
	var o outcome
	err := decode(body, &req)
	if err != nil {
		err = &requestError{"bad_request", err.Error()}
	} else {
		o.metric, o.dim = req.Metric, req.Dim
		err = s.queryOf(&req, &o.q)
	}
	if err == nil {
		o.status = http.StatusOK
		return o
	}
	rec := httptest.NewRecorder()
	s.writeError(rec, err)
	var p errorPayload
	if e := json.Unmarshal(rec.Body.Bytes(), &p); e != nil {
		t.Fatalf("error body is not an errorPayload: %v", e)
	}
	o.status, o.kind = rec.Code, p.Error.Kind
	return o
}

// sameOutcome reports the first difference between two outcomes: status
// and kind, or k, metric and every query's indices and weight bits.
func sameOutcome(got, want outcome) error {
	if got.status != want.status || got.kind != want.kind {
		return fmt.Errorf("refusal %d %q, want %d %q", got.status, got.kind, want.status, want.kind)
	}
	if got.metric != want.metric || got.dim != want.dim {
		return fmt.Errorf("decoded metric %q dim %d, want %q %d", got.metric, got.dim, want.metric, want.dim)
	}
	if got.status != http.StatusOK {
		return nil
	}
	g, w := got.q, want.q
	if g.K != w.K || g.Metric.Name != w.Metric.Name || len(g.Queries) != len(w.Queries) {
		return fmt.Errorf("k=%d %s %d queries, want k=%d %s %d queries", g.K, g.Metric.Name, len(g.Queries), w.K, w.Metric.Name, len(w.Queries))
	}
	for i := range g.Queries {
		if !slices.Equal(g.Queries[i].Support(), w.Queries[i].Support()) {
			return fmt.Errorf("query %d indices %v, want %v", i, g.Queries[i].Support(), w.Queries[i].Support())
		}
		gv, wv := g.Queries[i].Values(), w.Queries[i].Values()
		for j := range gv {
			if math.Float64bits(gv[j]) != math.Float64bits(wv[j]) {
				return fmt.Errorf("query %d weight %d = %v, want %v", i, j, gv[j], wv[j])
			}
		}
	}
	return nil
}

// FuzzDecodeQueryRequest holds the hand-written query-body decoder to
// encoding/json: every input is decoded both ways and validated the same
// way, and the two must refuse it with the same status and kind, or
// accept it with the same k, metric and per-query indices and weight
// bits. The seeds are bench-shaped bodies, every bad request the
// handlers are tested with, and the corners of the grammar: case-folded
// and escaped keys, null members, repeated keys, and the numbers JSON or
// the fields refuse.
func FuzzDecodeQueryRequest(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	f.Add(benchBody(r, 12, "cosine"))
	f.Add(benchBody(r, 200, "euclidean"))
	for _, tc := range badRequests {
		f.Add([]byte(tc.body))
	}
	for _, body := range []string{
		`{"QUERIES":[{"IDX":[1,4],"Val":[0.5,0.25]}],"K":3,"Metric":"euclidean","DIM":3815}`,
		`{"queries":[{"idx":[1],"val":[2]}],"k":2,"metric":"cosine"}`,
		`{"querieſ":[{"idx":[1],"val":[2]}],"K":4}`,
		`{"ſueries":[{"idx":[1],"val":[2]}]}`,
		`{"\u0071uerie\u0073":[{"\u0069dx":[1],"val":[2]}],"\u006B":3,"metric":"cosin\u0065"}`,
		`{"queries":[{"idx":[1],"val":[2]}],"\u212a":5,"metric":"\ud83d\ude00\/\b\f\n\r\t\"\\"}`,
		`{"queries":[{"idx":[1],"val":[2]}],"metric":"\ud83dx\udc00\ud83d\u0041"}`,
		`{"queries":[{"idx":[1],"val":[2]}],"metric":"cos\ud800ine"}`,
		`{"queries":[{"idx":[1],"val":[2]}],"metric":"😀","k":null}`,
		`null`,
		` {"queries":null} `,
		`{"queries":[null]}`,
		`{"k":null,"metric":null,"dim":null,"queries":[{"idx":null,"val":null}]}`,
		`{"queries":[{"idx":[1,null],"val":[1,null]}]}`,
		`{"queries":[{"idx":[1,2],"val":[1,2]}],"queries":[{"idx":[null,3]}]}`,
		`{"queries":[{"idx":[1,2],"val":[1,2]},{"idx":[4],"val":[4]}],"queries":[{"idx":[5]}],"queries":[null,{"val":null}]}`,
		`{"queries":[{"idx":[5,6,7],"val":[1,2,3],"idx":[1],"idx":[null,null,9]}]}`,
		`{"queries":[{"idx":[1],"val":[2]}],"queries":[]}`,
		`{"k":3,"k":5,"metric":"euclidean","metric":"cosine","queries":[{"idx":[0],"val":[1]}]}`,
		`{"queries":[{"idx":[0],"val":[-0]}]}`,
		`{"queries":[{"idx":[-0],"val":[1]}],"k":-0}`,
		`{"queries":[{"idx":[0],"val":[1e400]}]}`,
		`{"queries":[{"idx":[0],"val":[1e-400]}]}`,
		`{"queries":[{"idx":[0],"val":[01]}]}`,
		`{"queries":[{"idx":[0],"val":[1.]}]}`,
		`{"queries":[{"idx":[0],"val":[.5]}]}`,
		`{"queries":[{"idx":[0],"val":[+1]}]}`,
		`{"queries":[{"idx":[0],"val":[1E+2]}],"k":1e1}`,
		`{"queries":[{"idx":[2147483648],"val":[1]}]}`,
		`{"queries":[{"idx":[1],"val":[1]}],"k":9223372036854775808}`,
		`{"queries":[{"idx":[1],"val":[1]}],"k":4294967296,"dim":-9223372036854775808}`,
		`{"queries":[{"idx":[1],"val":["1"]}]}`,
		`{"queries":[{"idx":[1],"val":[true]}]}`,
		`{"queries":{"idx":[1],"val":[1]}}`,
		`{"queries":[{"idx":[1],"val":[1],}]}`,
		`{"queries":[{"idx":[1],"val":[1]}],}`,
		`{"queries":[{"idx":[1],"val":[1]}]}` + "\t\r\n ",
		`{"queries":[{"idx":[1],"val":[1]}]}nul`,
		`{"queries":[{"idx":[1],"val":[1]}],"k":nullx}`,
		"{\"queries\":[{\"idx\":[1],\"val\":[1]}],\"metric\":\"a\x01b\"}",
		"{\"queries\":[{\"idx\":[1],\"val\":[1]}],\"metric\":\"\xff\"}",
		"\xef\xbb\xbf{\"queries\":[{\"idx\":[1],\"val\":[1]}]}",
		``,
		`{"queries":[{"idx":[1],"val":[1]}]`,
	} {
		f.Add([]byte(body))
	}
	db, err := core.NewDB(benchDim)
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(db, nil, Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Shutdown(f.Context()) })
	f.Fuzz(func(t *testing.T, body []byte) {
		got := decodeOutcome(t, s, body, parseQueryRequest)
		want := decodeOutcome(t, s, body, oracleDecode)
		if err := sameOutcome(got, want); err != nil {
			t.Fatalf("body %q: %v", body, err)
		}
	})
}

// BenchmarkDecodeQueryRequest decodes and validates a bench-shaped body
// of 12 and of 200 terms, with the hand-written decoder and with the
// encoding/json oracle it replaced.
func BenchmarkDecodeQueryRequest(b *testing.B) {
	db, err := core.NewDB(benchDim)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(db, nil, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(b.Context())
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{12, 200} {
		body := benchBody(r, n, "cosine")
		for _, dec := range []struct {
			name   string
			decode func([]byte, *queryRequest) error
		}{{"hand", parseQueryRequest}, {"encoding-json", oracleDecode}} {
			b.Run(fmt.Sprintf("terms=%d/%s", n, dec.name), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for b.Loop() {
					var req queryRequest
					var q core.Query
					if err := dec.decode(body, &req); err != nil {
						b.Fatal(err)
					}
					if err := s.queryOf(&req, &q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
