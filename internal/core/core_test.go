package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vecmath"
)

func doc(id, label string, counts map[int]uint64) *Document {
	return &Document{ID: id, Label: label, Duration: 10 * time.Second, Counts: counts}
}

func TestNewDocumentSparsifies(t *testing.T) {
	d := NewDocument("x", "l", time.Second, []uint64{0, 5, 0, 3})
	if len(d.Counts) != 2 || d.Counts[1] != 5 || d.Counts[3] != 3 {
		t.Errorf("Counts = %v", d.Counts)
	}
	if d.Total() != 8 {
		t.Errorf("Total = %d", d.Total())
	}
}

// tfModel fits a model in which every term of d has idf log 2 (d plus one
// document on a term d does not use), so a signature weight over log 2 is
// the term frequency tf_i = n_i / Σ_k n_k.
func tfModel(t *testing.T, dim int, d *Document) *Model {
	t.Helper()
	c, err := NewCorpus(dim + 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*Document{d, doc("other", "", map[int]uint64{dim: 1})} {
		if err := c.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.Fit()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTF(t *testing.T) {
	d := doc("x", "", map[int]uint64{0: 3, 2: 1})
	m := tfModel(t, 3, d)
	sig, err := m.Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := sig.W.Get(0) / math.Log(2); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("tf[0] = %v", got)
	}
	if got := sig.W.Get(2) / math.Log(2); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("tf[2] = %v", got)
	}
	empty, err := m.Transform(doc("e", "", nil))
	if err != nil {
		t.Fatal(err)
	}
	if empty.W.NNZ() != 0 {
		t.Error("empty doc should have empty tf")
	}
}

func TestCorpusValidation(t *testing.T) {
	if _, err := NewCorpus(0); err == nil {
		t.Error("dim 0 should fail")
	}
	c, err := NewCorpus(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(nil); err == nil {
		t.Error("nil doc should fail")
	}
	if err := c.Add(doc("x", "", map[int]uint64{7: 1})); err == nil {
		t.Error("out-of-range term should fail")
	}
	if _, err := c.Fit(); err == nil {
		t.Error("Fit on empty corpus should fail")
	}
}

func TestIDFMatchesDefinition(t *testing.T) {
	c, err := NewCorpus(3)
	if err != nil {
		t.Fatal(err)
	}
	// Term 0 in all 4 docs; term 1 in 2 docs; term 2 in none.
	for i := 0; i < 4; i++ {
		counts := map[int]uint64{0: 10}
		if i < 2 {
			counts[1] = 5
		}
		if err := c.Add(doc("d", "", counts)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.Fit()
	if err != nil {
		t.Fatal(err)
	}
	idf := m.IDF()
	if math.Abs(idf[0]-0) > 1e-12 {
		t.Errorf("idf of ubiquitous term = %v, want 0 (log 4/4)", idf[0])
	}
	if math.Abs(idf[1]-math.Log(2)) > 1e-12 {
		t.Errorf("idf[1] = %v, want log 2", idf[1])
	}
	if idf[2] != 0 {
		t.Errorf("idf of absent term = %v, want 0", idf[2])
	}
}

func TestTransformComputesTFIDF(t *testing.T) {
	c, err := NewCorpus(2)
	if err != nil {
		t.Fatal(err)
	}
	d1 := doc("d1", "a", map[int]uint64{0: 3, 1: 1})
	d2 := doc("d2", "b", map[int]uint64{0: 2})
	if err := c.Add(d1); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(d2); err != nil {
		t.Fatal(err)
	}
	sigs, m, err := c.Signatures()
	if err != nil {
		t.Fatal(err)
	}
	// idf: term0 in both docs -> log(2/2)=0; term1 in one -> log 2.
	want1 := vecmath.Vector{0, 0.25 * math.Log(2)}
	if !sigs[0].Dense().Equal(want1, 1e-12) {
		t.Errorf("sig d1 = %v, want %v", sigs[0].Dense(), want1)
	}
	if sigs[1].W.NNZ() != 0 || sigs[1].Dim() != 2 {
		t.Errorf("sig d2 = %v, want empty support over dim 2", sigs[1].Dense())
	}
	// The zero-idf term is dropped from the sparse support entirely.
	if sigs[0].W.NNZ() != 1 {
		t.Errorf("sig d1 support = %d, want 1 (zero weights dropped)", sigs[0].W.NNZ())
	}
	if sigs[0].Label != "a" || sigs[0].DocID != "d1" {
		t.Error("signature provenance lost")
	}
	// Transform validates term range.
	if _, err := m.Transform(doc("bad", "", map[int]uint64{9: 1})); err == nil {
		t.Error("Transform with out-of-range term should fail")
	}
	if _, err := m.Transform(nil); err == nil {
		t.Error("Transform(nil) should fail")
	}
}

func TestUbiquitousTermVanishes(t *testing.T) {
	// The paper's point: functions appearing in every interval (daemon
	// interference, multiplexed entry points) get idf = 0 and stop
	// influencing signatures.
	c, err := NewCorpus(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		counts := map[int]uint64{0: uint64(1000 + i*37)} // huge, everywhere
		if i%2 == 0 {
			counts[1] = 5
		} else {
			counts[2] = 5
		}
		if err := c.Add(doc("d", "", counts)); err != nil {
			t.Fatal(err)
		}
	}
	sigs, _, err := c.Signatures()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sigs {
		if s.W.Get(0) != 0 {
			t.Fatalf("ubiquitous term has weight %v, want 0", s.W.Get(0))
		}
	}
}

func TestLabelsAndByLabel(t *testing.T) {
	c, err := NewCorpus(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []string{"scp", "kcompile", "scp", "", "dbench"} {
		if err := c.Add(doc("d", l, map[int]uint64{0: 1})); err != nil {
			t.Fatal(err)
		}
	}
	labels := c.Labels()
	want := []string{"scp", "kcompile", "dbench"}
	if len(labels) != len(want) {
		t.Fatalf("Labels = %v", labels)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("Labels = %v, want %v", labels, want)
		}
	}
	if got := len(c.ByLabel("scp")); got != 2 {
		t.Errorf("ByLabel(scp) = %d docs", got)
	}
}

func TestNormalize(t *testing.T) {
	sigs := []Signature{
		SignatureFromDense("a", "", vecmath.Vector{3, 4}),
		SignatureFromDense("b", "", vecmath.Vector{0, 0}),
	}
	Normalize(sigs)
	if math.Abs(sigs[0].W.L2()-1) > 1e-12 {
		t.Errorf("normalized L2 = %v", sigs[0].W.L2())
	}
	if sigs[1].W.NNZ() != 0 {
		t.Error("zero signature should stay zero")
	}
}

func TestDBTopKAndClassify(t *testing.T) {
	db, err := NewDB(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDB(0); err == nil {
		t.Error("dim 0 should fail")
	}
	train := []Signature{
		SignatureFromDense("s1", "scp", vecmath.Vector{1, 0}),
		SignatureFromDense("s2", "scp", vecmath.Vector{0.9, 0.1}),
		SignatureFromDense("k1", "kcompile", vecmath.Vector{0, 1}),
		SignatureFromDense("k2", "kcompile", vecmath.Vector{0.1, 0.9}),
	}
	if err := db.AddAll(train); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(SignatureFromDense("bad", "", vecmath.Vector{1})); err == nil {
		t.Error("wrong-dimension signature should fail")
	}

	query := vecmath.DenseToSparse(vecmath.Vector{0.95, 0.05})
	for _, metric := range []Metric{EuclideanMetric(), CosineMetric(), MinkowskiMetric(1)} {
		hits, err := db.TopKSparse(query, 2, metric)
		if err != nil {
			t.Fatalf("%s: %v", metric.Name, err)
		}
		if hits[0].Signature.Label != "scp" {
			t.Errorf("%s: nearest = %s, want scp", metric.Name, hits[0].Signature.DocID)
		}
		label, err := db.ClassifySparse(query, 3, metric)
		if err != nil {
			t.Fatal(err)
		}
		if label != "scp" {
			t.Errorf("%s: Classify = %s, want scp", metric.Name, label)
		}
	}

	if _, err := db.TopKSparse(vecmath.DenseToSparse(vecmath.Vector{1}), 1, EuclideanMetric()); err == nil {
		t.Error("wrong-dimension query should fail")
	}
	if _, err := db.TopKSparse(query, 0, EuclideanMetric()); err == nil {
		t.Error("k=0 should fail")
	}
	// k beyond size returns all
	hits, err := db.TopKSparse(query, 100, EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 4 {
		t.Errorf("TopK(100) = %d hits", len(hits))
	}
	empty, err := NewDB(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.TopKSparse(query, 1, EuclideanMetric()); err == nil {
		t.Error("TopK on empty db should fail")
	}
}

func TestDocumentsRoundTrip(t *testing.T) {
	docs := []*Document{
		doc("a", "scp", map[int]uint64{1: 5, 99: 2}),
		doc("b", "", map[int]uint64{}),
	}
	var buf bytes.Buffer
	if err := WriteDocuments(&buf, docs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDocuments(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("read %d docs", len(back))
	}
	if back[0].ID != "a" || back[0].Label != "scp" || back[0].Counts[99] != 2 {
		t.Errorf("doc a mangled: %+v", back[0])
	}
	if back[0].Duration != 10*time.Second {
		t.Errorf("duration = %v", back[0].Duration)
	}
	if back[1].Counts == nil {
		t.Error("nil counts map after read")
	}
}

func TestReadDocumentsErrors(t *testing.T) {
	if _, err := ReadDocuments(bytes.NewBufferString("{bad json\n")); err == nil {
		t.Error("bad JSON should fail")
	}
	if err := WriteDocuments(&bytes.Buffer{}, []*Document{nil}); err == nil {
		t.Error("nil document should fail")
	}
}

func TestSignaturesRoundTrip(t *testing.T) {
	sigs := []Signature{
		SignatureFromDense("a", "x", vecmath.Vector{0, 1.5, 0, -2}),
		SignatureFromDense("b", "", vecmath.Vector{0, 0, 0, 0}),
	}
	var buf bytes.Buffer
	if err := WriteSignatures(&buf, sigs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSignatures(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("read %d signatures", len(back))
	}
	if !back[0].Dense().Equal(sigs[0].Dense(), 0) || back[0].Label != "x" {
		t.Errorf("signature a mangled: %+v", back[0])
	}
	if back[1].Dim() != 4 || back[1].W.NNZ() != 0 {
		t.Errorf("zero signature dim = %d nnz = %d", back[1].Dim(), back[1].W.NNZ())
	}
}

func TestReadSignaturesErrors(t *testing.T) {
	if _, err := ReadSignatures(bytes.NewBufferString("{bad\n")); err == nil {
		t.Error("bad JSON should fail")
	}
	if _, err := ReadSignatures(bytes.NewBufferString(`{"doc_id":"x","dim":0,"weights":{}}` + "\n")); err == nil {
		t.Error("dim 0 should fail")
	}
	if _, err := ReadSignatures(bytes.NewBufferString(`{"doc_id":"x","dim":2,"weights":{"5":1}}` + "\n")); err == nil {
		t.Error("out-of-range weight index should fail")
	}
	// Past 2^31 an in-range index would wrap in int32: the dimension bound
	// refuses the record, naming it.
	for _, c := range [][2]int{{maxSnapshotDim + 1, 1}, {1 << 32, 1<<31 + 1}} {
		line := fmt.Sprintf(`{"doc_id":"x","dim":%d,"weights":{"%d":1}}`, c[0], c[1])
		if _, err := ReadSignatures(bytes.NewBufferString(line + "\n")); err == nil || !strings.Contains(err.Error(), "record 1") {
			t.Errorf("dim %d: err = %v, want a record-numbered error", c[0], err)
		}
	}
}

// Property: tf vectors are probability distributions (sum to 1) for any
// non-empty document.
func TestPropertyTFSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		counts := make(map[int]uint64)
		for i := 0; i < 1+r.Intn(30); i++ {
			counts[r.Intn(100)] = uint64(1 + r.Intn(1000))
		}
		d := doc("x", "", counts)
		sig, err := tfModel(t, 100, d).Transform(d)
		if err != nil {
			return false
		}
		sum := 0.0
		sig.W.ForEach(func(_ int, w float64) { sum += w })
		return math.Abs(sum/math.Log(2)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: scaling all counts of a document by a constant leaves its
// signature unchanged (the tf normalization's whole purpose: longer runs
// are not biased).
func TestPropertySignatureScaleInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 20
		c, err := NewCorpus(dim)
		if err != nil {
			return false
		}
		base := make(map[int]uint64)
		for i := 0; i < 1+r.Intn(10); i++ {
			base[r.Intn(dim)] = uint64(1 + r.Intn(50))
		}
		scaled := make(map[int]uint64, len(base))
		k := uint64(2 + r.Intn(9))
		for i, v := range base {
			scaled[i] = v * k
		}
		// Context docs so idf is non-trivial.
		for i := 0; i < 5; i++ {
			if err := c.Add(doc("ctx", "", map[int]uint64{r.Intn(dim): 1})); err != nil {
				return false
			}
		}
		if err := c.Add(doc("base", "", base)); err != nil {
			return false
		}
		if err := c.Add(doc("scaled", "", scaled)); err != nil {
			return false
		}
		sigs, _, err := c.Signatures()
		if err != nil {
			return false
		}
		a, b := sigs[len(sigs)-2].Dense(), sigs[len(sigs)-1].Dense()
		return a.Equal(b, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: persistence round trip preserves documents exactly.
func TestPropertyDocumentRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var docs []*Document
		for i := 0; i < r.Intn(5); i++ {
			counts := make(map[int]uint64)
			for j := 0; j < r.Intn(20); j++ {
				counts[r.Intn(3815)] = uint64(r.Intn(1 << 30))
			}
			docs = append(docs, doc("d", "lbl", counts))
		}
		var buf bytes.Buffer
		if err := WriteDocuments(&buf, docs); err != nil {
			return false
		}
		back, err := ReadDocuments(&buf)
		if err != nil || len(back) != len(docs) {
			return false
		}
		for i := range docs {
			if len(back[i].Counts) != len(docs[i].Counts) {
				return false
			}
			for k, v := range docs[i].Counts {
				if back[i].Counts[k] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTransform3815(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	c, err := NewCorpus(3815)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		counts := make(map[int]uint64)
		for j := 0; j < 400; j++ {
			counts[r.Intn(3815)] = uint64(1 + r.Intn(100000))
		}
		if err := c.Add(doc("d", "", counts)); err != nil {
			b.Fatal(err)
		}
	}
	m, err := c.Fit()
	if err != nil {
		b.Fatal(err)
	}
	target := c.Docs()[0]
	// The sparse sub-benchmark is the production path: O(nnz) work and
	// allocation. The dense-view sub-benchmark adds the O(dim)
	// materialization the old representation paid on every embedding.
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Transform(target); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense-view", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sig, err := m.Transform(target)
			if err != nil {
				b.Fatal(err)
			}
			_ = sig.Dense()
		}
	})
}

// TestNilWeightSignatureHandling: exported entry points treat a
// zero-value Signature (nil W) consistently — skipped or a typed error,
// never a panic.
func TestNilWeightSignatureHandling(t *testing.T) {
	nilSig := Signature{DocID: "empty"}
	Normalize([]Signature{nilSig}) // must not panic
	if err := WriteSignatures(&bytes.Buffer{}, []Signature{nilSig}); err == nil {
		t.Error("WriteSignatures with nil W should fail")
	}
	if _, err := TopTerms(nilSig, 1, nil); err == nil {
		t.Error("TopTerms with nil W should fail")
	}
	ok := SignatureFromDense("ok", "", vecmath.Vector{1})
	if _, err := Contrast(nilSig, ok, 1, nil); err == nil {
		t.Error("Contrast with nil W should fail")
	}
	if _, err := Contrast(ok, nilSig, 1, nil); err == nil {
		t.Error("Contrast with nil W (right side) should fail")
	}
}
