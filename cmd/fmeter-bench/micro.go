package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vecmath"
)

// microRecord is the BENCH_indexed.json artifact: the retrieval
// micro-benchmarks — tf-idf embedding, scan vs inverted-index TopK,
// batched TopK — measured via testing.Benchmark, so the perf trajectory
// of the signature store is recorded next to the wall-clock table
// records.
type microRecord struct {
	Timestamp  string                `json:"timestamp"`
	GoMaxProcs int                   `json:"gomaxprocs"`
	Benchmarks map[string]microBench `json:"benchmarks"`
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

// microCorpus builds the benchmark corpus: ~250 nnz documents in the
// paper's 3815-dim space.
func microCorpus(docs, nnz int) (*core.Corpus, error) {
	const dim = 3815
	r := rand.New(rand.NewSource(1))
	c, err := core.NewCorpus(dim)
	if err != nil {
		return nil, err
	}
	for i := 0; i < docs; i++ {
		counts := make(map[int]uint64)
		for j := 0; j < nnz; j++ {
			counts[r.Intn(dim)] = uint64(1 + r.Intn(100000))
		}
		doc := &core.Document{ID: fmt.Sprintf("d%d", i), Label: fmt.Sprintf("l%d", i%3), Duration: 10 * time.Second, Counts: counts}
		if err := c.Add(doc); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// runMicroBench measures the retrieval micro-benchmarks and writes the
// JSON record. The benchmark set mirrors the go-test benchmarks of the
// same names (internal/core): BenchmarkTransform3815 sparse vs the
// dense view, BenchmarkDBTopKSharded at 1 and 4 shards (scan by
// default; -index=on flips it for CLI A/B runs), the always-indexed
// BenchmarkDBTopKIndexed, the sealed-store BenchmarkDBTopKSealed
// (threshold-pruned by default; -prune=off flips it for A/B runs), and
// the batched BenchmarkDBTopKBatch with reused result buffers (the
// 0 allocs/op record).
//
//fmeter:nondeterministic-ok bench harness: run timestamps for the perf record
func runMicroBench(path string, indexOn, pruneOn bool, stderr io.Writer) error {
	c, err := microCorpus(100, 250)
	if err != nil {
		return err
	}
	m, err := c.Fit()
	if err != nil {
		return err
	}
	target := c.Docs()[0]

	rec := microRecord{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Benchmarks: make(map[string]microBench),
	}
	bench := func(name string, fn func(b *testing.B)) {
		res := testing.Benchmark(fn)
		rec.Benchmarks[name] = toMicroBench(res)
		fmt.Fprintf(stderr, "%-40s %12.0f ns/op %8d B/op %6d allocs/op\n",
			name, rec.Benchmarks[name].NsPerOp, rec.Benchmarks[name].BytesPerOp, rec.Benchmarks[name].AllocsPerOp)
	}

	bench("BenchmarkTransform3815/sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Transform(target); err != nil {
				b.Fatal(err)
			}
		}
	})
	bench("BenchmarkTransform3815/dense-view", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sig, err := m.Transform(target)
			if err != nil {
				b.Fatal(err)
			}
			_ = sig.Dense()
		}
	})

	sigs, _, err := c.Signatures()
	if err != nil {
		return err
	}
	query := sigs[0].W
	for _, shards := range []int{1, 4} {
		db, err := core.NewShardedDB(sigs[0].Dim(), shards)
		if err != nil {
			return err
		}
		db.SetIndexed(indexOn)
		if err := db.AddAll(sigs); err != nil {
			return err
		}
		for _, metric := range []core.Metric{core.EuclideanMetric(), core.CosineMetric()} {
			name := fmt.Sprintf("BenchmarkDBTopKSharded/shards=%d/%s", shards, metric.Name)
			bench(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := db.TopKSparse(query, 10, metric); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// Indexed retrieval on the same corpus shape: posting-list
	// accumulation over the query support instead of the exhaustive
	// merge-walk scan (the BenchmarkDBTopKSharded family above).
	for _, shards := range []int{1, 4} {
		db, err := core.NewShardedDB(sigs[0].Dim(), shards)
		if err != nil {
			return err
		}
		if err := db.AddAll(sigs); err != nil {
			return err
		}
		for _, metric := range []core.Metric{core.EuclideanMetric(), core.CosineMetric()} {
			name := fmt.Sprintf("BenchmarkDBTopKIndexed/shards=%d/%s", shards, metric.Name)
			bench(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := db.TopKSparse(query, 10, metric); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// Sealed-store retrieval on the same corpus shape: block-compressed
	// posting lists with the threshold-pruned walk (-prune=off falls
	// back to the plain sealed walk — the pruning A/B knob). Note this
	// corpus sits under the pruned walk's shard-size floor, so both
	// arms measure the plain sealed walk here and should read ~equal;
	// BENCH_pruned.json is where the A/B separates (the floor exists
	// precisely because seeding costs more than a tiny shard's walk).
	for _, shards := range []int{1, 4} {
		db, err := core.NewShardedDB(sigs[0].Dim(), shards)
		if err != nil {
			return err
		}
		if err := db.AddAll(sigs); err != nil {
			return err
		}
		db.Seal()
		db.SetPruned(pruneOn)
		for _, metric := range []core.Metric{core.EuclideanMetric(), core.CosineMetric()} {
			name := fmt.Sprintf("BenchmarkDBTopKSealed/shards=%d/%s", shards, metric.Name)
			bench(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := db.TopKSparse(query, 10, metric); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// Batched queries with reused result buffers: sequential workers pin
	// the steady-state 0 allocs/op contract, the worker-pool run shows
	// the fan-out. On a 1-CPU host (see the record's gomaxprocs field)
	// workers=all resolves to one worker and both rows run the identical
	// sequential path — equal numbers there are expected, not a fan-out
	// defect (DESIGN-PERF.md, Layer 6).
	{
		db, err := core.NewShardedDB(sigs[0].Dim(), 4)
		if err != nil {
			return err
		}
		if err := db.AddAll(sigs); err != nil {
			return err
		}
		queries := make([]*vecmath.Sparse, 0, 64)
		for len(queries) < 64 {
			queries = append(queries, sigs[len(queries)%len(sigs)].W)
		}
		ctx := context.Background()
		for _, workers := range []int{-1, 0} {
			name := "BenchmarkDBTopKBatch/workers=seq"
			if workers == 0 {
				name = "BenchmarkDBTopKBatch/workers=all"
			}
			db.SetWorkers(workers)
			q := core.Query{Queries: queries, K: 10, Metric: core.EuclideanMetric(), Hits: make([][]core.SearchResult, len(queries))}
			if err := db.Query(ctx, &q); err != nil {
				return err
			}
			bench(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := db.Query(ctx, &q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// Batched k-NN labeling: hits and vote counts live in pooled
	// scratch, the label slice is caller-owned — the ClassifyBatch
	// 0 allocs/op record.
	{
		db, err := core.NewShardedDB(sigs[0].Dim(), 4)
		if err != nil {
			return err
		}
		if err := db.AddAll(sigs); err != nil {
			return err
		}
		db.SetWorkers(-1)
		queries := make([]*vecmath.Sparse, 0, 64)
		for len(queries) < 64 {
			queries = append(queries, sigs[len(queries)%len(sigs)].W)
		}
		ctx := context.Background()
		q := core.Query{Queries: queries, K: 10, Metric: core.EuclideanMetric(), Labels: make([]string, len(queries))}
		if err := db.Query(ctx, &q); err != nil {
			return err
		}
		bench("BenchmarkDBClassifyBatch/workers=seq", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := db.Query(ctx, &q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Pin the kernel the scans ride on (sparse dot at ~250 nnz).
	x, y := sigs[0].W, sigs[1].W
	bench("BenchmarkSparseDot250", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = x.Dot(y)
		}
	})

	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "micro-benchmark record written to %s\n", path)
	return nil
}
