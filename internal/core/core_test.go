package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
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
	// A refused document leaves the corpus as it was, whichever of its
	// terms the map range met before the bad one.
	if err := c.Add(doc("ok", "", map[int]uint64{0: 2, 1: 0, 3: 9})); err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(c.df)
	for try := 0; try < 20; try++ {
		if err := c.Add(doc("bad", "", map[int]uint64{0: 1, 1: 1, 2: 1, 3: 1, -1: 1})); err == nil {
			t.Fatal("negative term should fail")
		}
		if got := slices.Clone(c.df); !slices.Equal(got, before) || c.Len() != 1 {
			t.Fatalf("after a refused Add: df = %v, Len = %d; want %v, 1", got, c.Len(), before)
		}
	}
}

// A document with several out-of-range terms is refused with one
// message, naming the smallest of them, however the map range visits
// them — by Corpus.Add, df untouched, and by Model.Transform.
func TestOutOfRangeErrorStable(t *testing.T) {
	c, err := NewCorpus(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add(doc("ok", "", map[int]uint64{1: 2, 3: 1, 9: 4})); err != nil {
		t.Fatal(err)
	}
	m, err := c.Fit()
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(c.df)
	bad := doc("bad", "", map[int]uint64{0: 1, 2: 3, 12: 1, 5: 1, -4: 2, 7: 1, 40: 1, 9: 1})
	addMsgs, transformMsgs := map[string]bool{}, map[string]bool{}
	for try := 0; try < 50; try++ {
		err := c.Add(bad)
		if err == nil {
			t.Fatal("out-of-range terms accepted")
		}
		addMsgs[err.Error()] = true
		if got := slices.Clone(c.df); !slices.Equal(got, before) || c.Len() != 1 {
			t.Fatalf("after a refused Add: df = %v, Len = %d; want %v, 1", got, c.Len(), before)
		}
		if _, err := m.Transform(bad); err == nil {
			t.Fatal("Transform accepted out-of-range terms")
		} else {
			transformMsgs[err.Error()] = true
		}
	}
	for _, msgs := range []map[string]bool{addMsgs, transformMsgs} {
		if len(msgs) != 1 {
			t.Fatalf("%d distinct messages for one document: %v", len(msgs), msgs)
		}
		for msg := range msgs {
			if !strings.Contains(msg, "term -4 ") {
				t.Errorf("%q does not name the smallest bad term, -4", msg)
			}
		}
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
	for _, metric := range []Metric{EuclideanMetric(), CosineMetric()} {
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

// transformOracle is the embedding Transform replaced, kept as the
// reference: collect the support, sort it, then look each term's count up
// again and weight it against a separately summed total.
func transformOracle(m *Model, doc *Document) (Signature, error) {
	idx := make([]int32, 0, len(doc.Counts))
	for i := range doc.Counts {
		if i < 0 || i >= m.dim {
			return Signature{}, &ConfigError{Param: "document", Msg: fmt.Sprintf("document %s term %d outside dimension %d", doc.ID, i, m.dim)}
		}
		idx = append(idx, int32(i))
	}
	slices.Sort(idx)
	val := make([]float64, 0, len(idx))
	nz := idx[:0]
	if total := float64(doc.Total()); total > 0 {
		for _, i := range idx {
			if w := float64(doc.Counts[int(i)]) / total * m.idf[i]; w != 0 {
				nz = append(nz, i)
				val = append(val, w)
			}
		}
	}
	w, err := vecmath.SparseFromSorted(m.dim, nz, val)
	if err != nil {
		return Signature{}, &ConfigError{Param: "document", Msg: fmt.Sprintf("document %s", doc.ID), Err: err}
	}
	return Signature{DocID: doc.ID, Label: doc.Label, W: w}, nil
}

// sameSignature reports the first difference between two signatures,
// weights compared by their bits.
func sameSignature(got, want Signature) error {
	if got.DocID != want.DocID || got.Label != want.Label || got.Dim() != want.Dim() {
		return fmt.Errorf("got (%s,%s,dim %d), want (%s,%s,dim %d)", got.DocID, got.Label, got.Dim(), want.DocID, want.Label, want.Dim())
	}
	if !slices.Equal(got.W.Support(), want.W.Support()) {
		return fmt.Errorf("%s: support %v, want %v", want.DocID, got.W.Support(), want.W.Support())
	}
	for k, v := range want.W.Values() {
		if g := got.W.Values()[k]; math.Float64bits(g) != math.Float64bits(v) {
			return fmt.Errorf("%s: weight of term %d = %v, want %v", want.DocID, want.W.Support()[k], g, v)
		}
	}
	if math.Float64bits(got.W.Norm2()) != math.Float64bits(want.W.Norm2()) {
		return fmt.Errorf("%s: norm2 %v, want %v", want.DocID, got.W.Norm2(), want.W.Norm2())
	}
	return nil
}

// randomCorpus fits a model on n random documents over dim terms. Term 0
// is in every document (idf 0), a few terms carry a zero count, and the
// last term is used now and then.
func randomCorpus(t testing.TB, r *rand.Rand, dim, n int) (*Model, []*Document) {
	t.Helper()
	c, err := NewCorpus(dim)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < n; d++ {
		counts := map[int]uint64{0: uint64(1 + r.Intn(1000))}
		for j := r.Intn(40); j > 0; j-- {
			counts[r.Intn(dim)] = uint64(r.Intn(5)) * uint64(r.Intn(100000)) // one in five is a zero count
		}
		if r.Intn(4) == 0 {
			counts[dim-1] = uint64(1 + r.Intn(9))
		}
		if err := c.Add(doc(fmt.Sprintf("d%d", d), fmt.Sprintf("l%d", d%3), counts)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.Fit()
	if err != nil {
		t.Fatal(err)
	}
	return m, c.Docs()
}

// Property: the bitmap-walk Transform is bit-equal to the sort-based
// oracle — on random documents, on the edges, and after a refused
// document has been through the pooled scratch.
func TestTransformMatchesOracle(t *testing.T) {
	check := func(m *Model, d *Document) {
		t.Helper()
		want, err := transformOracle(m, d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Transform(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSignature(got, want); err != nil {
			t.Fatal(err)
		}
	}
	for _, dim := range []int{1, 63, 64, 65, 200, 3815} {
		r := rand.New(rand.NewSource(int64(dim)))
		m, docs := randomCorpus(t, r, dim, 60)
		for _, d := range docs {
			check(m, d)
		}
		edges := []*Document{
			doc("empty", "", map[int]uint64{}),
			doc("nil-counts", "", nil),
			doc("all-zero", "", map[int]uint64{0: 0, dim - 1: 0}),
			doc("idf-zero-only", "", map[int]uint64{0: 7}),
			doc("last", "x", map[int]uint64{dim - 1: 3}),
			doc("single", "x", map[int]uint64{dim / 2: 1}),
			doc("wraps", "", map[int]uint64{0: math.MaxUint64, dim - 1: 1}), // the uint64 total wraps to 0
		}
		for _, d := range edges {
			check(m, d)
		}
		// TransformAll fills one slab per call: every signature, its
		// cached norm included, still matches the oracle.
		all := append(append([]*Document(nil), docs...), edges...)
		sigs, err := m.TransformAll(all)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range all {
			want, err := transformOracle(m, d)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameSignature(sigs[i], want); err != nil {
				t.Fatalf("dim %d: TransformAll: %v", dim, err)
			}
		}
		// A refused document hands its scratch back all-zero: the good
		// documents after it, on this goroutine, still match.
		for try := 0; try < 10; try++ {
			bad := doc("bad", "", map[int]uint64{dim: 1, -1: 2})
			for j := 0; j < dim && j < 30; j++ {
				bad.Counts[j] = uint64(1 + j)
			}
			_, err := m.Transform(bad)
			var ce *ConfigError
			if !errors.As(err, &ce) || !strings.Contains(err.Error(), "bad") {
				t.Fatalf("dim %d: out-of-range document: err = %v, want a *ConfigError naming it", dim, err)
			}
			check(m, docs[try])
			check(m, edges[try%len(edges)])
		}
	}
}

// TransformAll's signatures share one slab, each in its own region:
// appending to one signature's support or weights — past the terms its
// document dropped, too — leaves every other signature unchanged.
func TestTransformAllRegionsDisjoint(t *testing.T) {
	m, docs := randomCorpus(t, rand.New(rand.NewSource(17)), 200, 80)
	sigs, err := m.TransformAll(docs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sigs {
		sup, vals := sigs[i].W.Support(), sigs[i].W.Values()
		for k := 0; k < 64; k++ {
			sup = append(sup, int32(k))
			vals = append(vals, -1)
		}
		for j, d := range docs {
			if j == i {
				continue
			}
			want, err := m.Transform(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameSignature(sigs[j], want); err != nil {
				t.Fatalf("after appending to signature %d: signature %d: %v", i, j, err)
			}
		}
	}
}

// Concurrent Transform calls on one Model each get their own scratch:
// every goroutine reproduces the sequential signatures.
func TestTransformConcurrent(t *testing.T) {
	m, docs := randomCorpus(t, rand.New(rand.NewSource(5)), 3815, 200)
	want := make([]Signature, len(docs))
	for i, d := range docs {
		var err error
		if want[i], err = m.Transform(d); err != nil {
			t.Fatal(err)
		}
	}
	bad := doc("bad", "", map[int]uint64{1: 1, 2: 2, 9999: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range docs {
				i := (k + g*len(docs)/8) % len(docs)
				got, err := m.Transform(docs[i])
				if err == nil {
					err = sameSignature(got, want[i])
				}
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if _, err := m.Transform(bad); err == nil {
					t.Errorf("goroutine %d: out-of-range document accepted", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TransformAll gives the same signatures at any core count, and of two
// bad documents reports the one a sequential pass meets first.
func TestTransformAllDeterministic(t *testing.T) {
	m, docs := randomCorpus(t, rand.New(rand.NewSource(6)), 3815, 300)
	want := make([]Signature, len(docs))
	for i, d := range docs {
		var err error
		if want[i], err = transformOracle(m, d); err != nil {
			t.Fatal(err)
		}
	}
	twoBad := slices.Clone(docs)
	twoBad[120] = doc("first-bad", "", map[int]uint64{4000: 1})
	twoBad[121] = doc("second-bad", "", map[int]uint64{-3: 1})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := m.TransformAll(docs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS %d: %d signatures, want %d", procs, len(got), len(want))
		}
		for i := range want {
			if err := sameSignature(got[i], want[i]); err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", procs, err)
			}
		}
		for try := 0; try < 20; try++ {
			sigs, err := m.TransformAll(twoBad)
			var ce *ConfigError
			if sigs != nil || !errors.As(err, &ce) || !strings.Contains(err.Error(), "first-bad") {
				t.Fatalf("GOMAXPROCS %d: two bad documents: %d signatures, err = %v; want none and first-bad's *ConfigError", procs, len(sigs), err)
			}
		}
	}
	if sigs, err := m.TransformAll(nil); err != nil || len(sigs) != 0 {
		t.Errorf("TransformAll(nil) = %d signatures, %v", len(sigs), err)
	}
}

// TestTransformAllocs pins what the pooled scratch buys: a warm Transform
// allocates the signature it returns — its index slice, its value slice
// and the Sparse header — and nothing else. The least of several runs is
// taken because a sync.Pool may come back empty: after a collection, and
// under -race for one Put in four.
func TestTransformAllocs(t *testing.T) {
	m, docs := randomCorpus(t, rand.New(rand.NewSource(7)), 3815, 50)
	embed := func() {
		if _, err := m.Transform(docs[0]); err != nil {
			t.Fatal(err)
		}
	}
	least := math.Inf(1)
	for try := 0; try < 20; try++ {
		least = min(least, testing.AllocsPerRun(5, embed))
	}
	if least > 3 {
		t.Errorf("Transform: %v allocs per document, want <= 3", least)
	}
}

// peakedDocs builds n documents of the shape bench/gen.go calls peaked:
// 50 heavy functions shared by a class of 40 consecutive documents, over
// a pool of 200 functions each document touches lightly with
// probability 0.75.
func peakedDocs(n int) []*Document {
	const dim, classDims, pool, classSize = 3815, 50, 200, 40
	r := rand.New(rand.NewSource(1))
	perm := r.Perm(dim)
	docs := make([]*Document, n)
	var class []int
	for i := range docs {
		if i%classSize == 0 {
			class = class[:0]
			for _, j := range r.Perm(dim - pool)[:classDims] {
				class = append(class, perm[pool+j])
			}
		}
		counts := make(map[int]uint64, classDims+pool)
		for _, d := range class {
			counts[d] = uint64(5000 + r.Intn(5001))
		}
		for _, d := range perm[:pool] {
			if r.Float64() < 0.75 {
				counts[d] = uint64(10 + r.Intn(41))
			}
		}
		docs[i] = doc(fmt.Sprintf("s%d", i), fmt.Sprintf("c%d", i/classSize), counts)
	}
	return docs
}

// BenchmarkCorpusAdd is the fit stage of a bulk load: one op adds 4000
// peaked documents to a fresh corpus.
func BenchmarkCorpusAdd(b *testing.B) {
	docs := peakedDocs(4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewCorpus(3815)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range docs {
			if err := c.Add(d); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTransformAllPeaked is the embedding stage of a bulk load: one
// op embeds 4000 peaked documents on every available core.
func BenchmarkTransformAllPeaked(b *testing.B) {
	docs := peakedDocs(4000)
	c, err := NewCorpus(3815)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range docs {
		if err := c.Add(d); err != nil {
			b.Fatal(err)
		}
	}
	m, err := c.Fit()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.TransformAll(docs); err != nil {
			b.Fatal(err)
		}
	}
}

// embedPeaked embeds n peaked documents as a bulk load does: fit, embed,
// normalise.
func embedPeaked(b testing.TB, n int) []Signature {
	b.Helper()
	c, err := NewCorpus(3815)
	if err != nil {
		b.Fatal(err)
	}
	docs := peakedDocs(n)
	for _, d := range docs {
		if err := c.Add(d); err != nil {
			b.Fatal(err)
		}
	}
	m, err := c.Fit()
	if err != nil {
		b.Fatal(err)
	}
	sigs, err := m.TransformAll(docs)
	if err != nil {
		b.Fatal(err)
	}
	Normalize(sigs)
	return sigs
}

// loadChunks adds sigs to a fresh store in AddAll calls of chunk
// signatures.
func loadChunks(b testing.TB, sigs []Signature, chunk int) *DB {
	b.Helper()
	db, err := NewDB(3815)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < len(sigs); i += chunk {
		if err := db.AddAll(sigs[i:min(i+chunk, len(sigs))]); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkAddAllPeaked is the indexing stage of a bulk load: one op
// stores 24 000 peaked signatures in a fresh store, in the 256-signature
// chunks of the end-to-end benchmark, or in one whole-store AddAll.
// Either way the writer encodes nothing: the two full segments and the
// 29 runs over the 7 616-row tail are recorded as pending runs
// (BenchmarkFirstQueryPendingRuns times their build).
func BenchmarkAddAllPeaked(b *testing.B) {
	sigs := embedPeaked(b, 24000)
	for _, c := range []struct {
		name  string
		chunk int
	}{
		{"chunks256", 256},
		{"whole", len(sigs)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				loadChunks(b, sigs, c.chunk)
			}
		})
	}
}

// BenchmarkLoadDirPeaked is a cold open: one op runs LoadDir over a
// snapshot of 24 000 peaked signatures saved in 256-signature chunks —
// every record decoded, every segment recorded as a pending run. The
// packed arm reads the files SaveDir writes; the raw arm the same rows
// as flags-0 bodies of raw float64 weights, as older builds wrote them.
// Each reports the bytes on disk per signature (every file of the
// directory). The open+query arm is the packed open plus the first
// cosine TopK, which builds the runs the open recorded: what a restart
// costs before its first answer.
func BenchmarkLoadDirPeaked(b *testing.B) {
	sigs := embedPeaked(b, 24000)
	q := sigs[len(sigs)/3].W
	db := loadChunks(b, sigs, 256)
	for _, arm := range []string{"packed", "raw"} {
		dir := filepath.Join(b.TempDir(), arm)
		if err := db.SaveDir(dir); err != nil {
			b.Fatal(err)
		}
		if arm == "raw" {
			rewriteRaw(b, dir)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		var size int64
		for _, e := range entries {
			fi, err := e.Info()
			if err != nil {
				b.Fatal(err)
			}
			size += fi.Size()
		}
		b.Run(arm, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := LoadDir(dir); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size)/float64(len(sigs)), "disk-B/sig")
		})
		if arm != "packed" {
			continue
		}
		b.Run("open+query", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opened, err := LoadDir(dir)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := opened.TopKSparse(q, 10, CosineMetric()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFirstQueryPendingRuns is what a writer defers: 24 000 peaked
// signatures loaded unsealed in 256-signature chunks leave the two full
// segments and 29 runs over the active tail pending, which the first
// cosine TopK builds before it walks (first), where a later one finds
// them built (second). The load is not timed.
func BenchmarkFirstQueryPendingRuns(b *testing.B) {
	sigs := embedPeaked(b, 24000)
	q := sigs[len(sigs)/3].W
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db := loadChunks(b, sigs, 256)
			b.StartTimer()
			if _, err := db.TopKSparse(q, 10, CosineMetric()); err != nil {
				b.Fatal(err)
			}
		}
	})
	db := loadChunks(b, sigs, 256)
	if _, err := db.TopKSparse(q, 10, CosineMetric()); err != nil {
		b.Fatal(err)
	}
	b.Run("second", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.TopKSparse(q, 10, CosineMetric()); err != nil {
				b.Fatal(err)
			}
		}
	})
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

// Len returns the number of documents.
func (c *Corpus) Len() int { return len(c.docs) }

// Docs returns the documents in insertion order. Callers must not mutate
// the returned slice.
func (c *Corpus) Docs() []*Document { return c.docs }

// Labels returns the distinct labels present in the corpus, in first-seen
// order.
func (c *Corpus) Labels() []string {
	seen := make(map[string]bool)
	var out []string
	for _, d := range c.docs {
		if d.Label != "" && !seen[d.Label] {
			seen[d.Label] = true
			out = append(out, d.Label)
		}
	}
	return out
}

// ByLabel returns the documents carrying the given label.
func (c *Corpus) ByLabel(label string) []*Document {
	var out []*Document
	for _, d := range c.docs {
		if d.Label == label {
			out = append(out, d)
		}
	}
	return out
}

// IDF returns a copy of the fitted idf vector.
func (m *Model) IDF() []float64 {
	out := make([]float64, len(m.idf))
	copy(out, m.idf)
	return out
}

// signatureJSON is the wire form of a Signature. Vectors are stored
// sparsely: most tf-idf weights are zero.
type signatureJSON struct {
	DocID   string          `json:"doc_id"`
	Label   string          `json:"label,omitempty"`
	Dim     int             `json:"dim"`
	Weights map[int]float64 `json:"weights"`
}

// WriteSignatures streams signatures to w as JSON Lines. The weights map
// is the sparse support verbatim — no dense materialization.
func WriteSignatures(w io.Writer, sigs []Signature) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range sigs {
		if s.W == nil {
			return fmt.Errorf("core: signature %s has no weight vector", s.DocID)
		}
		weights := make(map[int]float64, s.W.NNZ())
		s.W.ForEach(func(i int, x float64) { weights[i] = x })
		if err := enc.Encode(signatureJSON{
			DocID: s.DocID, Label: s.Label, Dim: s.Dim(), Weights: weights,
		}); err != nil {
			return fmt.Errorf("core: encoding signature %s: %w", s.DocID, err)
		}
	}
	return bw.Flush()
}

// ReadSignatures parses a JSON Lines stream produced by WriteSignatures.
// Like ReadDocuments it streams through json.Decoder, so record size is
// bounded only by memory.
func ReadSignatures(r io.Reader) ([]Signature, error) {
	var sigs []Signature
	dec := json.NewDecoder(r)
	for rec := 1; ; rec++ {
		var sj signatureJSON
		if err := dec.Decode(&sj); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("core: signature record %d: %w", rec, err)
		}
		if sj.Dim < 1 || sj.Dim > maxSnapshotDim {
			return nil, fmt.Errorf("core: signature record %d: dimension %d outside [1, %d]", rec, sj.Dim, maxSnapshotDim)
		}
		v := vecmath.NewVector(sj.Dim)
		for i, x := range sj.Weights {
			if i < 0 || i >= sj.Dim {
				return nil, fmt.Errorf("core: signature record %d: index %d outside dimension %d", rec, i, sj.Dim)
			}
			v[i] = x
		}
		sigs = append(sigs, Signature{DocID: sj.DocID, Label: sj.Label, W: vecmath.DenseToSparse(v)})
	}
	return sigs, nil
}
