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
package core

import (
	"fmt"
	"math"
	"slices"
	"time"

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
	// signatures produced by this package (Transform, ReadSignatures,
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

// Dim returns the term-space dimension.
func (c *Corpus) Dim() int { return c.dim }

// Len returns the number of documents.
func (c *Corpus) Len() int { return len(c.docs) }

// Docs returns the documents in insertion order. Callers must not mutate
// the returned slice.
func (c *Corpus) Docs() []*Document { return c.docs }

// Add appends a document to the corpus, validating its term indices.
//
//fmeter:errdomain config
func (c *Corpus) Add(doc *Document) error {
	if doc == nil {
		return &ConfigError{Param: "document", Msg: "nil document"}
	}
	for i := range doc.Counts {
		if i < 0 || i >= c.dim {
			return &ConfigError{Param: "document", Msg: fmt.Sprintf("document %s has term %d outside dimension %d", doc.ID, i, c.dim)}
		}
	}
	c.docs = append(c.docs, doc)
	for i, n := range doc.Counts {
		if n > 0 {
			c.df[i]++
		}
	}
	return nil
}

// DocumentFrequency returns |{d : t_i ∈ d}| for every term.
func (c *Corpus) DocumentFrequency() []int {
	out := make([]int, len(c.df))
	copy(out, c.df)
	return out
}

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

// Model is a fitted tf-idf weighting: the idf vector learned from a
// training corpus. Applying the model to new documents embeds them into
// the same vector space, which is what lets a classifier trained on one
// corpus score signatures retrieved later.
type Model struct {
	dim int
	idf []float64
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
	m := &Model{dim: c.dim, idf: make([]float64, c.dim)}
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

// IDF returns a copy of the fitted idf vector.
func (m *Model) IDF() []float64 {
	out := make([]float64, len(m.idf))
	copy(out, m.idf)
	return out
}

// Transform embeds one document into the vector space: w_i = tf_i × idf_i.
// The signature is built sparse-first — the document's support is sorted
// and weighted in O(nnz log nnz), with no dense intermediate, so
// embedding cost scales with the interval's footprint rather than the
// symbol table. Weights that come out exactly zero (idf-damped ubiquitous
// terms) are dropped from the support, matching what extracting the
// dense form would store. The returned signature is NOT
// length-normalized; use Normalize when a method requires unit vectors,
// as the paper does for SVM classification ("scaled into the unit-ball
// using the L2 norm").
//
//fmeter:errdomain config
func (m *Model) Transform(doc *Document) (Signature, error) {
	if doc == nil {
		return Signature{}, &ConfigError{Param: "document", Msg: "nil document"}
	}
	idx := make([]int32, 0, len(doc.Counts))
	for i := range doc.Counts {
		if i < 0 || i >= m.dim {
			return Signature{}, &ConfigError{Param: "document", Msg: fmt.Sprintf("document %s term %d outside dimension %d", doc.ID, i, m.dim)}
		}
		//fmeter:map-order-ok support indices are sorted right below
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

// TransformAll embeds a slice of documents.
//
//fmeter:errdomain config
func (m *Model) TransformAll(docs []*Document) ([]Signature, error) {
	out := make([]Signature, 0, len(docs))
	for _, d := range docs {
		s, err := m.Transform(d)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
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

// Normalize L2-normalizes the signatures in place (unit-ball scaling).
// Signatures with no weight vector are skipped, matching the old dense
// representation's tolerance of zero-value signatures.
func Normalize(sigs []Signature) {
	for i := range sigs {
		if sigs[i].W != nil {
			sigs[i].W.Normalize()
		}
	}
}
