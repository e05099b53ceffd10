package main

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
)

// streamBytes renders what a workload sends for one seed: the ingest
// body of its first documents and every probe's request bodies.
func streamBytes(t *testing.T, seed int64, sh shape) []byte {
	t.Helper()
	g := newGenerator(seed, sh, 40)
	docs := g.docs(0, 200)
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
	ps, err := newProbeSet(g, model, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(encodeIngest(docs))
	for j := range ps.bodies {
		for k := range ps.bodies[j] {
			buf.Write(ps.bodies[j][k])
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, sh := range []shape{shapeTiny, shapePeaked} {
		a, b := streamBytes(t, 3, sh), streamBytes(t, 3, sh)
		if !bytes.Equal(a, b) {
			t.Errorf("shape %d: seed 3 gave different bytes on two runs", sh)
		}
		if c := streamBytes(t, 4, sh); bytes.Equal(a, c) {
			t.Errorf("shape %d: seeds 3 and 4 gave the same bytes", sh)
		}
	}
}

// shapeStats is what a seed may not change: how many functions a
// document touches and, for peaked documents, how much of the signature's
// L2 mass its class functions carry.
func shapeStats(t *testing.T, seed int64, sh shape) (meanNNZ, classMass float64) {
	t.Helper()
	const n, classSize = 400, 40
	g := newGenerator(seed, sh, classSize)
	docs := g.docs(0, n)
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
	shared := make(map[int]bool)
	for _, d := range g.sharedDim {
		shared[d] = true
	}
	var nnz, mass float64
	for i, d := range docs {
		nnz += float64(len(d.Counts))
		var own float64
		sigs[i].W.ForEach(func(j int, x float64) {
			if !shared[j] {
				own += x * x
			}
		})
		mass += own // signatures are unit length
	}
	return nnz / n, mass / n
}

func TestSeedKeepsShape(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		if nnz, _ := shapeStats(t, seed, shapeTiny); nnz != tinyNNZ {
			t.Errorf("tiny, seed %d: %.2f functions per document, want %d", seed, nnz, tinyNNZ)
		}
		nnz, mass := shapeStats(t, seed, shapePeaked)
		if want := peakedClassDims + peakedSharedPool*peakedSharedProb; math.Abs(nnz-want) > 2 {
			t.Errorf("peaked, seed %d: %.1f functions per document, want about %.0f", seed, nnz, want)
		}
		if mass < 0.95 {
			t.Errorf("peaked, seed %d: class functions carry %.3f of the L2 mass, want >= 0.95", seed, mass)
		}
	}
}

func TestRequestCycleCoversEveryProbeAndKind(t *testing.T) {
	seen := make(map[request]int)
	topk := 0
	for _, rq := range requestCycle() {
		seen[rq]++
		if rq.kind.isTopK() {
			topk++
		}
	}
	if want := numProbes * len(rotation) * 3 / 4; topk != want {
		t.Errorf("%d top-k requests in the cycle, want %d (three of every four)", topk, want)
	}
	for p := 0; p < numProbes; p++ {
		for k := reqKind(0); k < numKinds; k++ {
			if seen[request{p, k}] == 0 {
				t.Errorf("probe %d never meets kind %d", p, k)
			}
		}
	}
}
