package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vecmath"
)

// pruneRecord is the BENCH_pruned.json artifact: TopK latency over a
// synthetic corpus ladder (10k → -scale signatures in the paper's
// 3815-dim space, sealed at the store's own segment size) — the scale
// rung bench/ does not have yet. The headline numbers are the growth
// factors at the bottom: a 100× corpus must grow TopK latency by well
// under 100× (the sub-linear claim).
type pruneRecord struct {
	Timestamp   string `json:"timestamp"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Dim         int    `json:"dim"`
	NNZ         int    `json:"nnz"`
	SegmentSize int    `json:"segment_size"`
	K           int    `json:"k"`

	Scales []pruneScale `json:"scales"`

	// Growth factors between the smallest and largest rung.
	GrowthCorpus float64 `json:"growth_corpus_factor"`
	GrowthCosine float64 `json:"growth_cosine_latency_factor"`
}

// microBench is one benchmark's headline numbers.
type microBench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// toMicroBench converts a testing.BenchmarkResult.
func toMicroBench(r testing.BenchmarkResult) microBench {
	return microBench{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// pruneScale is one rung of the corpus ladder.
type pruneScale struct {
	Docs          int     `json:"docs"`
	IngestSeconds float64 `json:"ingest_seconds"`
	IndexBytes    int64   `json:"index_bytes"`
	// HeapInuseBytes is runtime.MemStats.HeapInuse after a GC at this
	// rung — the whole process's live heap (signatures + postings +
	// scratch).
	HeapInuseBytes uint64 `json:"heap_inuse_bytes"`

	// Segments at this rung: one per segment_size rows, the last
	// rounded up; each rung's closing Seal indexes that last one whole
	// without ending it, so the next rung grows it first.
	Segments       int `json:"segments"`
	SealedSegments int `json:"sealed_segments"`

	// TopK latency per metric name.
	TopK map[string]microBench `json:"topk"`

	// PruneStats are one cosine query's counters at this rung — what
	// fraction of the corpus the walk actually touched.
	PruneStats core.PruneStats `json:"prune_stats"`
}

// pruneGen generates the synthetic corpus in the shape tf-idf gives
// real fmeter signatures: every trace hits the same common kernel
// functions (a shared pool of dims whose tf-idf weight is crushed by
// their ubiquity), while the workload's identity lives in its own small
// set of class dims carrying nearly all the L2 mass. Signatures arrive
// in per-workload batches (classSize consecutive docs per class — the
// collection pattern of running one workload at a time), and the class
// population grows with the corpus: a bigger deployment means more
// distinct workloads, not fatter classes. This is the regime threshold
// pruning is designed for — a query's class dims are the only
// high-impact postings in the store, and the crushed commons prune as
// the skippable tail. Deterministic for a given seed.
type pruneGen struct {
	r         *rand.Rand
	dim       int
	seed      int64
	shared    []int32 // the common-function pool: perm[:sharedPool]
	perm      []int   // fixed permutation partitioning shared vs class dim space
	class     int     // class whose support is cached in classDims
	classDims []int32
}

const (
	pruneClassSize  = 2000 // signatures per workload class (collection batch)
	pruneClassDims  = 50   // dims carrying a class's identity mass
	pruneSharedPool = 200  // ubiquitous common-function dims (low weight)
)

func newPruneGen(seed int64, dim int) *pruneGen {
	// The permutation (fixed across seeds) splits the dim space: the
	// first sharedPool entries are the commons, classes draw from the
	// rest (collisions between classes are allowed and realistic).
	perm := rand.New(rand.NewSource(7)).Perm(dim)
	g := &pruneGen{r: rand.New(rand.NewSource(seed)), dim: dim, seed: seed, perm: perm, class: -1}
	g.shared = make([]int32, pruneSharedPool)
	for i := range g.shared {
		g.shared[i] = int32(perm[i])
	}
	return g
}

// support caches the class's dim set: pruneClassDims draws (without
// replacement) from the non-shared dim space, seeded by the class id so
// every generator agrees on each class's identity.
func (g *pruneGen) support(class int) []int32 {
	if class == g.class {
		return g.classDims
	}
	cr := rand.New(rand.NewSource(1_000_003 * int64(class+1)))
	seen := make(map[int]bool, pruneClassDims)
	dims := make([]int32, 0, pruneClassDims)
	for len(dims) < pruneClassDims {
		p := pruneSharedPool + cr.Intn(g.dim-pruneSharedPool)
		if seen[p] {
			continue
		}
		seen[p] = true
		dims = append(dims, int32(g.perm[p]))
	}
	g.class, g.classDims = class, dims
	return dims
}

// next builds one normalized sparse signature of the given class.
func (g *pruneGen) next(id, class int) core.Signature {
	dims := g.support(class)
	idx := make([]int32, 0, pruneClassDims+pruneSharedPool)
	val := make([]float64, 0, pruneClassDims+pruneSharedPool)
	for _, d := range dims {
		idx = append(idx, d)
		val = append(val, 0.5+0.5*g.r.Float64())
	}
	for _, d := range g.shared {
		if g.r.Float64() < 0.75 {
			idx = append(idx, d)
			val = append(val, 0.01+0.04*g.r.Float64())
		}
	}
	// SparseFromSorted wants ascending indices; sort the parallel pair.
	sort.Sort(&idxValSorter{idx: idx, val: val})
	w, err := vecmath.SparseFromSorted(g.dim, idx, val)
	if err != nil {
		panic(err) // generator invariant: distinct in-range dims, non-zero vals
	}
	w.Normalize()
	return core.Signature{DocID: fmt.Sprintf("s%d", id), Label: fmt.Sprintf("c%d", class), W: w}
}

type idxValSorter struct {
	idx []int32
	val []float64
}

func (s *idxValSorter) Len() int           { return len(s.idx) }
func (s *idxValSorter) Less(a, b int) bool { return s.idx[a] < s.idx[b] }
func (s *idxValSorter) Swap(a, b int) {
	s.idx[a], s.idx[b] = s.idx[b], s.idx[a]
	s.val[a], s.val[b] = s.val[b], s.val[a]
}

// runPruneBench builds the ladder corpus once (each rung extends the
// previous), measuring ingestion, the segment count, and TopK
// under both metrics at every rung, then writes the JSON
// record.
//
//fmeter:nondeterministic-ok bench harness: ladder timing and run timestamps
func runPruneBench(path string, scale int, stderr io.Writer) error {
	const (
		dim    = 3815
		k      = 10
		nProbe = 8
	)
	if scale < 1 {
		return fmt.Errorf("-scale must be >= 1, got %d", scale)
	}
	var rungs []int
	for _, n := range []int{10_000, 100_000} {
		if n < scale {
			rungs = append(rungs, n)
		}
	}
	rungs = append(rungs, scale)

	db, err := core.NewDB(dim)
	if err != nil {
		return err
	}

	gen := newPruneGen(42, dim)
	probeGen := newPruneGen(43, dim)
	// Probe queries are fresh members of classes present from the first
	// rung on, so every rung answers the same workload-recognition task.
	probeClasses := rungs[0] / pruneClassSize
	if probeClasses < 1 {
		probeClasses = 1
	}
	queries := make([]*vecmath.Sparse, nProbe)
	for i := range queries {
		queries[i] = probeGen.next(i, i%probeClasses).W
	}

	rec := pruneRecord{
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Dim:         dim,
		NNZ:         pruneClassDims + pruneSharedPool*3/4,
		SegmentSize: core.SegmentSize,
		K:           k,
	}

	metrics := []core.Metric{core.CosineMetric(), core.EuclideanMetric()}
	added := 0
	for _, docs := range rungs {
		start := time.Now()
		for added < docs {
			if err := db.Add(gen.next(added, added/pruneClassSize)); err != nil {
				return err
			}
			added++
			if added%100_000 == 0 {
				fmt.Fprintf(stderr, "ingested %d signatures (%d segments)...\n", added, db.Segments())
			}
		}
		db.Seal()
		// IndexBytes builds the posting runs the ingest recorded, so
		// the ingest time and the heap reading include the index.
		indexBytes := db.IndexBytes()
		ingest := time.Since(start).Seconds()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)

		sc := pruneScale{
			Docs:           docs,
			IngestSeconds:  ingest,
			IndexBytes:     indexBytes,
			HeapInuseBytes: ms.HeapInuse,
			Segments:       db.Segments(),
			SealedSegments: db.SealedSegments(),
			TopK:           make(map[string]microBench),
		}
		fmt.Fprintf(stderr, "== %d signatures: %d segments (%d sealed), %.1f MiB postings, %.1f MiB heap in use ==\n",
			docs, sc.Segments, sc.SealedSegments,
			float64(sc.IndexBytes)/(1<<20), float64(sc.HeapInuseBytes)/(1<<20))

		for _, metric := range metrics {
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := db.TopKSparse(queries[i%nProbe], k, metric); err != nil {
						b.Fatal(err)
					}
				}
			})
			mb := toMicroBench(res)
			sc.TopK[metric.Name] = mb
			fmt.Fprintf(stderr, "%-28s %14.0f ns/op %8d B/op %6d allocs/op\n",
				metric.Name, mb.NsPerOp, mb.BytesPerOp, mb.AllocsPerOp)
		}
		_, st, err := db.TopKSparseStats(queries[0], k, core.CosineMetric())
		if err != nil {
			return err
		}
		sc.PruneStats = st
		rec.Scales = append(rec.Scales, sc)
	}

	if len(rec.Scales) > 1 {
		first, last := rec.Scales[0], rec.Scales[len(rec.Scales)-1]
		rec.GrowthCorpus = float64(last.Docs) / float64(first.Docs)
		rec.GrowthCosine = last.TopK["cosine"].NsPerOp / first.TopK["cosine"].NsPerOp
		fmt.Fprintf(stderr, "corpus x%.0f: cosine TopK x%.1f\n", rec.GrowthCorpus, rec.GrowthCosine)
	}

	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "pruning scale record written to %s\n", path)
	return nil
}
