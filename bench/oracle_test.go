package main

import (
	"math"
	"testing"

	fmeter "repro"
	"repro/internal/core"
)

// The oracle and the store must agree on a store small enough to reason
// about: 500 peaked signatures, half of them still unsealed.
func TestOracleAgreesWithStore(t *testing.T) {
	g := newGenerator(1, shapePeaked, 50)
	docs := g.docs(0, 500)
	corpus, err := core.NewCorpus(dim)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := corpus.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	model, err := corpus.Fit()
	if err != nil {
		t.Fatal(err)
	}
	sigs, err := embed(model, docs)
	if err != nil {
		t.Fatal(err)
	}
	db, err := fmeter.NewDB(dim, fmeter.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AddAll(sigs[:250]); err != nil {
		t.Fatal(err)
	}
	db.Seal()
	if err := db.AddAll(sigs[250:]); err != nil {
		t.Fatal(err)
	}
	ps, err := newProbeSet(g, model, 10)
	if err != nil {
		t.Fatal(err)
	}
	ps.answer(sigs)

	for j := 0; j < checkedProbes; j++ {
		for _, kind := range []reqKind{topkCosine, topkEuclidean} {
			hits, err := db.TopKSparse(ps.sigs[j].W, topkK, kind.metric())
			if err != nil {
				t.Fatal(err)
			}
			want := ps.wantTopK[j][kind]
			if len(hits) != len(want) {
				t.Fatalf("probe %d %s: store returned %d hits, oracle %d", j, kind.metricName(), len(hits), len(want))
			}
			for i, h := range hits { // same ids in the same order, same scores
				if h.Signature.DocID != want[i].docID || math.Abs(h.Score-want[i].score) > scoreTolerance {
					t.Errorf("probe %d %s rank %d: store %s %.12f, oracle %s %.12f", j, kind.metricName(), i, h.Signature.DocID, h.Score, want[i].docID, want[i].score)
				}
			}
		}
		for _, kind := range []reqKind{classifyCosine, classifyEuclidean} {
			label, err := db.ClassifySparse(ps.sigs[j].W, classifyK, kind.metric())
			if err != nil {
				t.Fatal(err)
			}
			if want := ps.wantLabel[j][kind]; label != want {
				t.Errorf("probe %d %s: store classifies %q, oracle %q", j, kind.metricName(), label, want)
			}
		}
	}
}

func TestMatchTopKCountsMissingIDs(t *testing.T) {
	want := []oracleHit{{docID: "a", score: 0.9}, {docID: "b", score: 0.8}}
	if present, ok := matchTopK(want, []string{"b", "a"}, []float64{0.8, 0.9}); present != 2 || !ok {
		t.Errorf("same ids in another order: present %d ok %v, want 2 true", present, ok)
	}
	if present, ok := matchTopK(want, []string{"a", "c"}, []float64{0.9, 0.8}); present != 1 || ok {
		t.Errorf("one foreign id: present %d ok %v, want 1 false", present, ok)
	}
	if present, ok := matchTopK(want, []string{"a", "b"}, []float64{0.9, 0.8001}); present != 2 || ok {
		t.Errorf("a score off by 1e-4: present %d ok %v, want 2 false", present, ok)
	}
}
