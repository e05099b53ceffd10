package fmeter

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestNewDefaults(t *testing.T) {
	sys, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Dim() != 3815 {
		t.Errorf("Dim = %d, want 3815", sys.Dim())
	}
	if len(sys.FunctionNames()) != sys.Dim() {
		t.Error("FunctionNames length mismatch")
	}
}

func TestCollectAndBuildSignatures(t *testing.T) {
	sys, err := New(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	docs, err := sys.Collect(ScpWorkload(), 6, 10*time.Second, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 6 {
		t.Fatalf("docs = %d", len(docs))
	}
	back, err := ReadDocuments(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 6 {
		t.Fatalf("logged docs = %d", len(back))
	}
	sigs, model, err := BuildSignatures(docs, sys.Dim())
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) != 6 || model.Dim() != sys.Dim() {
		t.Fatal("signature pipeline lost data")
	}
	for _, s := range sigs {
		if s.Label != "scp" {
			t.Errorf("label = %q", s.Label)
		}
		l2 := s.W.L2()
		if l2 != 0 && (l2 < 0.999 || l2 > 1.001) {
			t.Errorf("signature not unit-ball scaled: %v", l2)
		}
	}
}

func TestDriverLifecycleAndNetperf(t *testing.T) {
	sys, err := New(Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadDriver(Driver151NoLRO); err != nil {
		t.Fatal(err)
	}
	docs, err := sys.Collect(NetperfWorkload(), 3, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 {
		t.Fatalf("docs = %d", len(docs))
	}
	if docs[0].Total() == 0 {
		t.Error("netperf interval empty")
	}
	if err := sys.LoadDriver(Driver151); err == nil {
		t.Error("loading a second myri10ge should fail (name collision)")
	}
}

func TestClassifierEndToEnd(t *testing.T) {
	collect := func(spec WorkloadSpec, seed int64) []*Document {
		sys, err := New(Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		docs, err := sys.Collect(spec, 12, 10*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		return docs
	}
	docs := append(collect(ScpWorkload(), 10), collect(DbenchWorkload(), 20)...)
	sigs, _, err := BuildSignatures(docs, 3815)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := TrainClassifier(sigs, "scp", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range sigs {
		match, _ := clf.Matches(s)
		if match == (s.Label == "scp") {
			correct++
		}
	}
	if correct < len(sigs)-1 {
		t.Errorf("classifier got %d/%d on training data", correct, len(sigs))
	}
	if _, err := TrainClassifier(nil, "x", 1, 1); err == nil {
		t.Error("empty training should fail")
	}
}

func TestClusteringEndToEnd(t *testing.T) {
	collect := func(spec WorkloadSpec, seed int64) []*Document {
		sys, err := New(Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		docs, err := sys.Collect(spec, 10, 10*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		return docs
	}
	docs := append(collect(ScpWorkload(), 30), collect(KcompileWorkload(), 40)...)
	sigs, _, err := BuildSignatures(docs, 3815)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ClusterSignatures(sigs, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Purity < 0.8 {
		t.Errorf("purity = %v", res.Purity)
	}
	if len(res.Centroids) != 2 {
		t.Fatalf("centroids = %d", len(res.Centroids))
	}
	meta, err := MetaClusterCentroids(res.Centroids, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta) != 2 || meta[0] == meta[1] {
		t.Errorf("meta clustering = %v", meta)
	}
	if _, err := ClusterSignatures(nil, 2, 1); err == nil {
		t.Error("empty clustering should fail")
	}
}

// The learners refuse non-finite input with an error naming it, as the
// DB does, instead of returning a clustering with a NaN centroid or
// failing later with a misleading optimization error.
func TestLearnersRefuseNonFinite(t *testing.T) {
	sigs := []Signature{
		SignatureFromDense("a", "scp", Vector{1, 0, 0}),
		SignatureFromDense("b", "dbench", Vector{0, 1, 0}),
		SignatureFromDense("c", "scp", Vector{0.9, 0.1, 0}),
	}
	withNaN := append(append([]Signature(nil), sigs...), SignatureFromDense("d", "dbench", Vector{0, math.NaN(), 1}))
	errOf := func(_ any, err error) error { return err }
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"ClusterSignatures NaN weight", errOf(ClusterSignatures(withNaN, 2, 1)), "point 3 has a non-finite weight"},
		{"MetaClusterCentroids infinite weight", errOf(MetaClusterCentroids([]Vector{{0, 1}, {math.Inf(1), 0}}, 1, 1)), "point 1 has a non-finite weight"},
		{"TrainClassifier NaN C", errOf(TrainClassifier(sigs, "scp", math.NaN(), 1)), "C=NaN"},
		{"TrainClassifier infinite C", errOf(TrainClassifier(sigs, "scp", math.Inf(1), 1)), "C=+Inf"},
		{"TrainClassifier NaN weight", errOf(TrainClassifier(withNaN, "scp", 1, 1)), "example 3 has a non-finite weight"},
	} {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, tc.err, tc.want)
		}
	}
}

func TestSignatureDBSearch(t *testing.T) {
	sys, err := New(Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := sys.Collect(DbenchWorkload(), 8, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigs, _, err := BuildSignatures(docs, sys.Dim())
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDB(sys.Dim())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sigs[1:] {
		if err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, metric := range []Metric{CosineMetric(), EuclideanMetric()} {
		hits, err := db.TopKSparse(sigs[0].W, 3, metric)
		if err != nil {
			t.Fatalf("%s: %v", metric.Name, err)
		}
		if len(hits) != 3 {
			t.Fatalf("%s: hits = %d", metric.Name, len(hits))
		}
		if hits[0].Signature.Label != "dbench" {
			t.Errorf("%s: nearest = %q", metric.Name, hits[0].Signature.Label)
		}
	}
}
