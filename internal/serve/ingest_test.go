package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/core"
)

// ingestModel fits a tf-idf model over testDim terms on a few random
// documents: the model an ingesting server embeds bodies with.
func ingestModel(tb testing.TB) *core.Model {
	tb.Helper()
	corpus, err := core.NewCorpus(testDim)
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 20; i++ {
		counts := make(map[int]uint64)
		for j := 0; j < 6; j++ {
			counts[r.Intn(testDim)] = uint64(1 + r.Intn(9))
		}
		if err := corpus.Add(&core.Document{ID: fmt.Sprintf("seed%d", i), Label: "l", Counts: counts}); err != nil {
			tb.Fatal(err)
		}
	}
	model, err := corpus.Fit()
	if err != nil {
		tb.Fatal(err)
	}
	return model
}

// FuzzIngestBody POSTs arbitrary bytes to /v1/ingest on a fresh
// in-memory server. Either the status is 200, "added" equals the growth
// of db.Len() and the body cost exactly one publish; or the status is a
// 4xx with a typed error payload and neither Len nor Publishes moved —
// never a panic, never a partial batch.
func FuzzIngestBody(f *testing.F) {
	for _, body := range []string{
		`{"documents":[{"ID":"a","Label":"l","Counts":{"1":3,"7":2}}]}`,
		`{"documents":[{"ID":"a","Counts":{"0":1}},{"ID":"b","Label":"x","Duration":5,"Counts":{"47":9,"3":1}},{"ID":"c"}]}`,
		`{"documents":[{"ID":"x","Counts":{"0":1}}]}}`,
		`{"documents":[{"ID":"x","Counts":{"0":1}}]}]`,
		`{"documents":[{"ID":"x","Counts":{"0":1},"Extra":1}]}`,
		`{"docs":[{"ID":"x","Counts":{"0":1}}]}`,
		`{"documents":[{"ID":"x","Counts":{"48":1}}]}`,
		`{"documents":[{"ID":"ok","Counts":{"2":1}},{"ID":"x","Counts":{"-1":1}}]}`,
		`{"documents":[{"ID":"x","Counts":{"9223372036854775808":1}}]}`,
		`{"documents":[{"ID":"x","Counts":{"0":18446744073709551615,"1":1}}]}`,
		`{"documents":[{"ID":"x","Counts":{"0":18446744073709551616}}]}`,
		`{"documents":[{"ID":"x","Counts":{"0":-1}}]}`,
		`{"documents":[{"ID":"x","Counts":{"0":1.5}}]}`,
		`{"documents":[null]}`,
		`{"documents":[]}`,
		`{}`,
		`null`,
		`{]`,
	} {
		f.Add([]byte(body))
	}
	model := ingestModel(f)

	f.Fuzz(func(t *testing.T, body []byte) {
		db, err := core.NewDB(testDim)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(db, model, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown(t.Context())
		lenBefore, pubBefore := db.Len(), db.Publishes()
		rec := postJSON(t, s.Handler(), "/v1/ingest", string(body))
		grew, published := db.Len()-lenBefore, db.Publishes()-pubBefore
		if rec.Code == http.StatusOK {
			var resp ingestResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body %q: %v", rec.Body.String(), err)
			}
			if resp.Added != grew || published != 1 {
				t.Fatalf("200 added %d: the store grew by %d in %d publishes, want %d in 1", resp.Added, grew, published, resp.Added)
			}
			return
		}
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("status %d (body %q), want 200 or a 4xx", rec.Code, rec.Body.String())
		}
		decodeErrorKind(t, rec)
		if grew != 0 || published != 0 {
			t.Fatalf("refused body (status %d) grew the store by %d in %d publishes", rec.Code, grew, published)
		}
	})
}
