// Package core implements the paper's primary contribution: embedding
// kernel function invocation counts into the classical vector space model
// (Salton, Wong, Yang 1975) to obtain formal, indexable, low-level system
// signatures (§2.1).
//
// The mapping is:
//
//   - "term"     → a core-kernel function (identified by its index in the
//     symbol table, which is induced by its start address);
//   - "document" → the per-function invocation counts observed over one
//     monitoring interval;
//   - "corpus"   → a collection of monitored intervals.
//
// Each document j becomes a weight vector v_j = [w_1j, ..., w_Nj]^T with
// w_ij = tf_ij × idf_i, where
//
//	tf_ij  = n_ij / Σ_k n_kj          (length-normalized term frequency)
//	idf_i  = log(|D| / |{d : t_i∈d}|) (inverse document frequency)
//
// The tf normalization prevents bias toward longer monitoring runs; the
// idf factor attenuates functions that occur in every interval (the
// "prepositions" of kernel execution — e.g. the top-ranked virtual memory
// routines), including uniform measurement interference from the logging
// daemon itself (§5).
//
// §2.1 defines the whole Lp family of distances; the evaluation compares
// signatures by cosine similarity and the L2 distance only, and those two
// (CosineMetric, EuclideanMetric) are the metrics a DB ranks by.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"repro/internal/parallel"
	"repro/internal/vecmath"
)

// Document is one monitoring interval: raw per-function invocation counts
// plus identifying metadata. Counts are sparse — most of the ~3800
// dimensions are zero in a typical interval.
type Document struct {
	// ID uniquely names the interval (e.g. "scp-0042").
	ID string
	// Label is the class label when known ("scp", "kcompile", ...); empty
	// for unlabeled documents.
	Label string
	// Duration is the monitoring interval length. It does not enter the
	// tf-idf computation (tf is length-normalized by construction) but is
	// retained because it is a daemon configuration parameter (§5).
	Duration time.Duration
	// Counts maps function index (FuncID) to invocation count.
	Counts map[int]uint64
}

// NewDocument builds a document from a dense count vector, storing only
// non-zero entries.
func NewDocument(id, label string, d time.Duration, dense []uint64) *Document {
	doc := &Document{ID: id, Label: label, Duration: d, Counts: make(map[int]uint64)}
	for i, c := range dense {
		if c != 0 {
			doc.Counts[i] = c
		}
	}
	return doc
}

// Total returns the total number of invocations in the document (the tf
// denominator Σ_k n_kj).
func (d *Document) Total() uint64 {
	var t uint64
	for _, c := range d.Counts {
		t += c
	}
	return t
}

// Signature is a document embedded into the vector space: a tf-idf weight
// vector plus provenance. The canonical representation is sparse — a
// monitoring interval touches a few hundred of the ~3815 kernel
// functions, so W stores sorted (index, weight) pairs with a cached norm
// and every signature-sized computation (similarity scans, kernel
// evaluations, persistence) runs in O(nnz). Dense is the derived view for
// the few consumers that need per-component arithmetic.
type Signature struct {
	DocID string
	Label string
	// W is the sparse tf-idf weight vector. It is never nil for
	// signatures produced by this package (Transform, BuildSignatures,
	// snapshot loading); hand-built signatures must populate it, e.g. via
	// SignatureFromDense.
	W *vecmath.Sparse
}

// SignatureFromDense wraps a dense weight vector as a signature,
// extracting the sparse canonical form.
func SignatureFromDense(docID, label string, v vecmath.Vector) Signature {
	return Signature{DocID: docID, Label: label, W: vecmath.DenseToSparse(v)}
}

// Dim returns the signature's ambient dimension.
func (s Signature) Dim() int { return s.W.Dim() }

// Dense materializes the signature's weight vector.
func (s Signature) Dense() vecmath.Vector { return s.W.Dense() }

// Corpus is a collection of documents over a fixed term space of dimension
// Dim (the size of the core-kernel symbol table).
type Corpus struct {
	dim  int
	docs []*Document
	df   []int // document frequency per term, maintained incrementally
	undo []int // terms the Add in progress has counted into df, reused across Adds
}

// NewCorpus creates an empty corpus over dim terms.
//
//fmeter:errdomain config
func NewCorpus(dim int) (*Corpus, error) {
	if dim < 1 {
		return nil, &ConfigError{Param: "dimension", Value: dim, Min: 1}
	}
	return &Corpus{dim: dim, df: make([]int, dim)}, nil
}

// Add appends a document to the corpus, validating its term indices. The
// document's counts are ranged once: each term is checked and counted
// into the document frequencies as it is met, and a term out of range
// takes back what the terms before it counted, so a refused document
// leaves the corpus as it was.
//
//fmeter:errdomain config
func (c *Corpus) Add(doc *Document) error {
	if doc == nil {
		return &ConfigError{Param: "document", Msg: "nil document"}
	}
	c.undo = c.undo[:0]
	for i, n := range doc.Counts {
		if i < 0 || i >= c.dim {
			for _, j := range c.undo {
				c.df[j]--
			}
			return &ConfigError{Param: "document", Msg: fmt.Sprintf("document %s has term %d outside dimension %d", doc.ID, smallestOutOfRange(doc, c.dim), c.dim)}
		}
		if n > 0 {
			c.df[i]++
			//fmeter:map-order-ok a rollback list: every entry is decremented or none is, in whatever order
			c.undo = append(c.undo, i)
		}
	}
	c.docs = append(c.docs, doc)
	return nil
}

// smallestOutOfRange returns the smallest term of doc outside [0, dim),
// which the caller has seen exists. The error paths name it rather than
// the one a map range happens to meet first, so a bad document always
// gets the same message.
func smallestOutOfRange(doc *Document, dim int) int {
	bad := math.MaxInt
	for i := range doc.Counts {
		if (i < 0 || i >= dim) && i < bad {
			//fmeter:map-order-ok a minimum: the same term wins in any visit order
			bad = i
		}
	}
	return bad
}

// Model is a fitted tf-idf weighting: the idf vector learned from a
// training corpus. Applying the model to new documents embeds them into
// the same vector space, which is what lets a classifier trained on one
// corpus score signatures retrieved later.
type Model struct {
	dim int
	idf []float64
	// scratch lends each Transform call in flight its own dense
	// workspace (*transformScratch), so concurrent calls on one Model
	// never share one; an idle model's scratch goes with the next
	// collections instead of staying on the heap.
	scratch sync.Pool
}

// newModel returns a model over dim terms with every idf zero, for Fit
// and ReadModel to fill in.
func newModel(dim int) *Model {
	m := &Model{dim: dim, idf: make([]float64, dim)}
	m.scratch.New = func() any {
		return &transformScratch{counts: make([]uint64, dim), set: make([]uint64, (dim+63)/64)}
	}
	return m
}

// transformScratch is the dense workspace of one Transform call: the
// document's counts scattered by term, and a bitmap of the terms
// written. Both are all-zero whenever the scratch is in the pool.
type transformScratch struct {
	counts []uint64 // dim long
	set    []uint64 // ⌈dim/64⌉ words, bit i set = counts[i] was written
}

// reset zeroes what a document abandoned half-scattered left behind.
func (sc *transformScratch) reset() {
	for wi, word := range sc.set {
		for ; word != 0; word &= word - 1 {
			sc.counts[wi<<6|bits.TrailingZeros64(word)] = 0
		}
		sc.set[wi] = 0
	}
}

// Fit computes the idf model from the corpus:
//
//	idf_i = log(|D| / df_i)
//
// Terms absent from every document get idf 0 (they contribute nothing, and
// there is no evidence to weight them by).
//
//fmeter:errdomain config
func (c *Corpus) Fit() (*Model, error) {
	if len(c.docs) == 0 {
		return nil, &ConfigError{Param: "corpus", Msg: "cannot fit tf-idf on an empty corpus"}
	}
	m := newModel(c.dim)
	n := float64(len(c.docs))
	for i, df := range c.df {
		if df > 0 {
			m.idf[i] = math.Log(n / float64(df))
		}
	}
	return m, nil
}

// Dim returns the model's term-space dimension.
func (m *Model) Dim() int { return m.dim }

// Transform embeds one document into the vector space: w_i = tf_i × idf_i.
// The document is read once: a single range over its counts checks each
// term, sums the tf denominator and scatters the count into a pooled
// dense scratch, marking the term in a bitmap. Walking the bitmap's set
// bits then yields the support in ascending order and zeroes the scratch
// on the way, so a call costs O(nnz + dim/64) and allocates only the
// signature it returns.
// Weights that come out exactly zero (idf-damped ubiquitous terms) are
// dropped from the support, matching what extracting the dense form
// would store. The returned signature is NOT length-normalized; use
// Normalize when a method requires unit vectors, as the paper does for
// SVM classification ("scaled into the unit-ball using the L2 norm").
// Safe for concurrent use.
//
//fmeter:errdomain config
func (m *Model) Transform(doc *Document) (Signature, error) {
	n := 0
	if doc != nil {
		n = len(doc.Counts)
	}
	return m.transform(doc, make([]int32, 0, n), make([]float64, 0, n))
}

// transform is Transform writing the support into idx and the weights
// into val, both empty with room for len(doc.Counts) entries. The
// returned signature's slices are capacity-clamped to its support, so
// an append to them never reaches past the region it was given.
//
//fmeter:errdomain config
func (m *Model) transform(doc *Document, idx []int32, val []float64) (Signature, error) {
	if doc == nil {
		return Signature{}, &ConfigError{Param: "document", Msg: "nil document"}
	}
	sc := m.scratch.Get().(*transformScratch)
	defer m.scratch.Put(sc)
	var sum uint64
	for i, c := range doc.Counts {
		if i < 0 || i >= m.dim {
			sc.reset()
			return Signature{}, &ConfigError{Param: "document", Msg: fmt.Sprintf("document %s term %d outside dimension %d", doc.ID, smallestOutOfRange(doc, m.dim), m.dim)}
		}
		sum += c
		sc.counts[i] = c
		sc.set[i>>6] |= 1 << (i & 63)
	}
	total := float64(sum)
	var norm2 float64
	for wi, word := range sc.set {
		if word == 0 {
			continue
		}
		sc.set[wi] = 0
		for ; word != 0; word &= word - 1 {
			i := wi<<6 | bits.TrailingZeros64(word)
			c := sc.counts[i]
			sc.counts[i] = 0
			if total > 0 {
				if w := float64(c) / total * m.idf[i]; w != 0 {
					idx = append(idx, int32(i))
					val = append(val, w)
					norm2 += w * w
				}
			}
		}
	}
	// The bitmap walk yields strictly ascending in-range terms, zeros are
	// dropped above, and norm2 accumulated in index order: the invariants
	// SparseFromSorted would check.
	w := vecmath.SparseFromSortedTrusted(m.dim, idx[:len(idx):len(idx)], val[:len(val):len(val)], norm2)
	return Signature{DocID: doc.ID, Label: doc.Label, W: w}, nil
}

// TransformAll embeds a slice of documents, one per task across the
// available cores. Signature i depends on document i alone, so the result
// is identical at any core count; of several bad documents the one at the
// lowest index is reported, as a sequential pass would. The signatures'
// supports share one index slab and their weights one value slab, sized
// from the documents' term counts; each signature fills its own region.
//
//fmeter:errdomain config
func (m *Model) TransformAll(docs []*Document) ([]Signature, error) {
	off := make([]int, len(docs)+1)
	for i, doc := range docs {
		off[i+1] = off[i]
		if doc != nil {
			off[i+1] += len(doc.Counts)
		}
	}
	idx, val := make([]int32, off[len(docs)]), make([]float64, off[len(docs)])
	out, err := parallel.Map(0, len(docs), func(i int) (Signature, error) {
		lo, hi := off[i], off[i+1]
		return m.transform(docs[i], idx[lo:lo:hi], val[lo:lo:hi])
	})
	if err != nil {
		// parallel.Map returns a task's error as it got it: the
		// *ConfigError transform built.
		return nil, err.(*ConfigError)
	}
	return out, nil
}

// Signatures fits the corpus and embeds every document in one step — the
// common path when the whole corpus is available up front, matching the
// paper's offline transformation ("the difference is later transformed
// into tf-idf scores, once an entire corpus is generated").
func (c *Corpus) Signatures() ([]Signature, *Model, error) {
	m, err := c.Fit()
	if err != nil {
		return nil, nil, err
	}
	sigs, err := m.TransformAll(c.docs)
	if err != nil {
		return nil, nil, err
	}
	return sigs, m, nil
}

// BuildSignatures builds a corpus from docs, fits the tf-idf model,
// embeds every document and L2-normalizes the signatures into the unit
// ball: the paper's preprocessing for learning.
func BuildSignatures(docs []*Document, dim int) ([]Signature, *Model, error) {
	corpus, err := NewCorpus(dim)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range docs {
		if err := corpus.Add(d); err != nil {
			return nil, nil, err
		}
	}
	sigs, model, err := corpus.Signatures()
	if err != nil {
		return nil, nil, err
	}
	Normalize(sigs)
	return sigs, model, nil
}

// Normalize L2-normalizes the signatures in place (unit-ball scaling),
// a contiguous range of the slice per core; each element must own its
// weight vector. Signatures with no weight vector are skipped, matching
// the old dense representation's tolerance of zero-value signatures.
func Normalize(sigs []Signature) {
	parallel.Chunks(0, len(sigs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if sigs[i].W != nil {
				sigs[i].W.Normalize()
			}
		}
	})
}
