package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
)

// dim is the paper's instrumented-function count.
const dim = 3815

// Shape constants of the `peaked` generator (a port of
// cmd/fmeter-bench's pruneGen from weights to raw counts): a class is a
// run of consecutive documents sharing 50 heavy functions, on top of a
// pool of 200 functions that most documents touch lightly, so after
// tf-idf the class functions carry almost all of the L2 mass.
const (
	peakedClassDims  = 50
	peakedSharedPool = 200
	peakedSharedProb = 0.75
	tinyNNZ          = 12 // as microCorpus(2000, 12): the kernel costs microseconds
)

// rng is splitmix64: cheap to seed per document, so any document of the
// stream can be generated on its own, and independent of math/rand's
// stream, so the same seed gives the same bytes on every Go release.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int            { return int(r.next() % uint64(n)) }
func (r *rng) float() float64            { return float64(r.next()>>11) / (1 << 53) }
func newRNG(a, b uint64) rng             { r := rng(a*0x9e3779b97f4a7c15 ^ b); r.next(); return r }
func (r *rng) between(lo, hi int) uint64 { return uint64(lo + r.intn(hi-lo+1)) }

type shape int

const (
	shapeTiny shape = iota
	shapePeaked
)

// generator emits the raw-count documents of one workload. Everything it
// returns is a function of (seed, shape, classSize) and the document's
// position in the stream.
type generator struct {
	seed      uint64
	shape     shape
	classSize int   // peaked: consecutive documents per class
	sharedDim []int // peaked: the ubiquitous pool, fixed across seeds
	otherDim  []int // peaked: the functions classes draw from
}

func newGenerator(seed int64, sh shape, classSize int) *generator {
	g := &generator{seed: uint64(seed), shape: sh, classSize: classSize}
	// A fixed shuffle splits the function space, so the pool is the same
	// functions for every seed, as the kernel's hot paths would be.
	perm := make([]int, dim)
	for i := range perm {
		perm[i] = i
	}
	pr := newRNG(7, 7)
	for i := dim - 1; i > 0; i-- {
		j := pr.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	g.sharedDim, g.otherDim = perm[:peakedSharedPool], perm[peakedSharedPool:]
	return g
}

// doc returns document i of the stream. Documents of a peaked class
// share the class's functions; the class of document i is i/classSize.
func (g *generator) doc(i int) *core.Document {
	if g.shape == shapeTiny {
		return g.tinyDoc(i)
	}
	return g.peakedDoc(i, i/g.classSize)
}

func (g *generator) tinyDoc(i int) *core.Document {
	r := newRNG(g.seed, uint64(i))
	counts := make(map[int]uint64, tinyNNZ)
	for len(counts) < tinyNNZ {
		counts[r.intn(dim)] = r.between(1, 100000)
	}
	return &core.Document{ID: fmt.Sprintf("d%d", i), Label: fmt.Sprintf("l%d", i%3), Duration: 10 * time.Second, Counts: counts}
}

func (g *generator) peakedDoc(i, class int) *core.Document {
	// The class's functions depend on the class alone, so every seed
	// agrees on what a class is; the counts depend on the seed.
	cr := newRNG(1_000_003, uint64(class))
	r := newRNG(g.seed, uint64(i))
	counts := make(map[int]uint64, peakedClassDims+peakedSharedPool)
	for len(counts) < peakedClassDims {
		d := g.otherDim[cr.intn(len(g.otherDim))]
		if _, dup := counts[d]; !dup {
			counts[d] = r.between(5000, 10000)
		}
	}
	for _, d := range g.sharedDim {
		if r.float() < peakedSharedProb {
			counts[d] = r.between(10, 50)
		}
	}
	return &core.Document{ID: fmt.Sprintf("s%d", i), Label: fmt.Sprintf("c%d", class), Duration: 10 * time.Second, Counts: counts}
}

// docs returns documents [from, from+n) of the stream.
func (g *generator) docs(from, n int) []*core.Document {
	out := make([]*core.Document, n)
	for i := range out {
		out[i] = g.doc(from + i)
	}
	return out
}

// probeBase is where probe documents sit in the stream: far past any
// document a workload stores, so probes are never stored themselves.
const probeBase = 1 << 40

// probe returns probe document j: a fresh document of one of the first
// `classes` classes (tiny documents have no classes and are just fresh).
func (g *generator) probe(j, classes int) *core.Document {
	if g.shape == shapeTiny {
		return g.tinyDoc(probeBase + j)
	}
	return g.peakedDoc(probeBase+j, j%classes)
}

// flatProbe returns a probe whose counts all sit in the ubiquitous pool,
// where every stored document has postings and threshold pruning has
// nothing to skip.
func (g *generator) flatProbe(j int) *core.Document {
	r := newRNG(g.seed^0xf1a7, uint64(j))
	counts := make(map[int]uint64, peakedSharedPool)
	for _, d := range g.sharedDim {
		counts[d] = r.between(10, 50)
	}
	return &core.Document{ID: fmt.Sprintf("flat%d", j), Duration: 10 * time.Second, Counts: counts}
}

// Request kinds of the query rotation. Of every four requests three are
// top-k (k=10) and one is classify (k=5); cosine and euclidean alternate.
type reqKind int

const (
	topkCosine reqKind = iota
	topkEuclidean
	classifyCosine
	classifyEuclidean
	numKinds
)

const (
	topkK     = 10
	classifyK = 5
	numProbes = 64
	// checkedProbes of the probes have oracle answers; every served
	// answer for them is compared.
	checkedProbes = 16
)

var rotation = [8]reqKind{
	topkCosine, topkEuclidean, topkCosine, classifyCosine,
	topkEuclidean, topkCosine, topkEuclidean, classifyEuclidean,
}

func (k reqKind) path() string {
	if k == classifyCosine || k == classifyEuclidean {
		return "/v1/classify"
	}
	return "/v1/topk"
}

func (k reqKind) isTopK() bool { return k == topkCosine || k == topkEuclidean }

func (k reqKind) metricName() string {
	if k == topkEuclidean || k == classifyEuclidean {
		return "euclidean"
	}
	return "cosine"
}

func (k reqKind) metric() core.Metric {
	if k.metricName() == "euclidean" {
		return core.EuclideanMetric()
	}
	return core.CosineMetric()
}

func (k reqKind) k() int {
	if k.isTopK() {
		return topkK
	}
	return classifyK
}

// request is one slot of the fixed request cycle.
type request struct {
	probe int
	kind  reqKind
}

// requestCycle is the order every load generator walks: each probe meets
// each slot of the rotation once per cycle.
func requestCycle() []request {
	cycle := make([]request, 0, numProbes*len(rotation))
	for rep := 0; rep < len(rotation); rep++ {
		for p := 0; p < numProbes; p++ {
			cycle = append(cycle, request{probe: p, kind: rotation[(p+rep)%len(rotation)]})
		}
	}
	return cycle
}

// wireQuery mirrors the serving layer's request body; the benchmark
// encodes it itself because the wire is the interface under test.
type wireQuery struct {
	Idx []int32   `json:"idx"`
	Val []float64 `json:"val"`
}

type queryBody struct {
	Queries []wireQuery `json:"queries"`
	K       int         `json:"k"`
	Metric  string      `json:"metric"`
}

// encodeQuery renders one probe signature as a one-query request body.
func encodeQuery(sig core.Signature, kind reqKind) []byte {
	q := wireQuery{Idx: sig.W.Support(), Val: sig.W.Values()}
	b, err := json.Marshal(queryBody{Queries: []wireQuery{q}, K: kind.k(), Metric: kind.metricName()})
	if err != nil {
		panic(err) // finite floats and ints always encode
	}
	return b
}

// encodeIngest renders documents as one /v1/ingest body. Map keys are
// written sorted, so the bytes depend on the documents alone.
func encodeIngest(docs []*core.Document) []byte {
	b, err := json.Marshal(struct {
		Documents []*core.Document `json:"documents"`
	}{docs})
	if err != nil {
		panic(err)
	}
	return b
}
