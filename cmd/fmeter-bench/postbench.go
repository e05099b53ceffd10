package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// postRecord is the BENCH_postings.json artifact: the block-compressed
// posting-list headline of the postings PR. It reports, on the
// micro-corpus shapes, the resident index bytes of the store unsealed
// (the active segments' posting runs; rows no run covers yet have no
// postings) and sealed (one block-compressed structure per segment),
// TopK latency over both plus the mmap-served layout (comparable with
// BenchmarkDBTopKIndexed in BENCH_indexed.json — same corpus, same
// query, same k), and the cold snapshot-load cost — mmap-served and
// heap-resident — against the rebuild path.
type postRecord struct {
	Timestamp  string     `json:"timestamp"`
	GoMaxProcs int        `json:"gomaxprocs"`
	Corpus     postCorpus `json:"corpus"`
	// Index bytes measured on the same store before and after Seal():
	// identical signatures, identical query results.
	IndexBytesUnsealed   int64 `json:"index_bytes_unsealed"`
	IndexBytesCompressed int64 `json:"index_bytes_compressed"`
	Postings             int64 `json:"postings"`
	// Benchmarks holds TopK on the 100-doc BENCH_indexed micro shape,
	// unsealed vs compressed.
	Benchmarks map[string]microBench `json:"benchmarks"`
	ColdLoad   postColdLoad          `json:"cold_load"`
}

// postCorpus pins the corpus shape the index-bytes and cold-load
// numbers were measured on.
type postCorpus struct {
	Docs        int `json:"docs"`
	NNZ         int `json:"nnz"`
	Dim         int `json:"dim"`
	Shards      int `json:"shards"`
	SegmentSize int `json:"segment_size"`
}

// postColdLoad compares cold-open costs for the same signatures:
// LoadDirMapped over sealed v2.1 records (postings served off the file
// mapping), resident LoadDir over the same directory (postings copied
// onto the heap), and LoadDir over unsealed records (no postings section
// — the rebuild path). The residency fields split the posting
// footprint of each open mode into heap and page-cache bytes.
type postColdLoad struct {
	MmapNs       float64 `json:"v21_mmap_ns"`
	ResidentNs   float64 `json:"v21_resident_ns"`
	SealedBytes  int64   `json:"v21_sealed_dir_bytes"`
	RebuildNs    float64 `json:"v21_rebuild_ns"`
	RebuildBytes int64   `json:"v21_rebuild_dir_bytes"`
	// Posting-structure residency after opening the sealed directory.
	ResidentIndexBytes int64 `json:"resident_index_bytes"`
	MmapHeapBytes      int64 `json:"mmap_heap_index_bytes"`
	MmapMappedBytes    int64 `json:"mmap_mapped_bytes"`
	// First TopK immediately after a cold mapped open — open plus the
	// query that faults the needed posting pages in.
	MmapFirstQueryNs float64 `json:"mmap_first_query_ns"`
}

// runPostBench measures the posting-compression trajectory and writes
// the JSON record.
//
//fmeter:nondeterministic-ok bench harness: cold-load timing and run timestamps
func runPostBench(path string, stderr io.Writer) error {
	rec := postRecord{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Benchmarks: make(map[string]microBench),
	}

	// TopK on the exact BenchmarkDBTopKIndexed shape from
	// BENCH_indexed.json (100 docs, ~250 nnz, one shard), unsealed vs
	// compressed vs mapped: neither the compression nor serving blobs
	// off the page cache may buy its memory with query latency.
	{
		c, err := microCorpus(100, 250)
		if err != nil {
			return err
		}
		sigs, _, err := c.Signatures()
		if err != nil {
			return err
		}
		query := sigs[0].W
		benchTopK := func(db *core.DB, layout string) {
			for _, metric := range []core.Metric{core.EuclideanMetric(), core.CosineMetric()} {
				name := fmt.Sprintf("BenchmarkDBTopKPostings/%s/%s", layout, metric.Name)
				res := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := db.TopKSparse(query, 10, metric); err != nil {
							b.Fatal(err)
						}
					}
				})
				rec.Benchmarks[name] = toMicroBench(res)
				fmt.Fprintf(stderr, "%-48s %12.0f ns/op %8d B/op %6d allocs/op\n",
					name, rec.Benchmarks[name].NsPerOp, rec.Benchmarks[name].BytesPerOp, rec.Benchmarks[name].AllocsPerOp)
			}
		}
		var sealedDB *core.DB
		for _, sealed := range []bool{false, true} {
			db, err := core.NewDB(sigs[0].Dim())
			if err != nil {
				return err
			}
			if err := db.AddAll(sigs); err != nil {
				return err
			}
			layout := "unsealed"
			if sealed {
				db.Seal()
				layout = "compressed"
				sealedDB = db
			}
			benchTopK(db, layout)
		}
		// Mapped layout: the sealed store round-tripped through SaveDir
		// and reopened with postings served off the file mapping.
		microTmp, err := os.MkdirTemp("", "fmeter-postbench-micro-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(microTmp)
		if err := sealedDB.SaveDir(microTmp); err != nil {
			return err
		}
		mdb, err := core.LoadDirMapped(microTmp)
		if err != nil {
			return err
		}
		benchTopK(mdb, "mapped")
		if err := mdb.Close(); err != nil {
			return err
		}
	}

	// Index bytes and cold load on the segbench shape (2000 docs over 4
	// shards).
	const (
		n      = 2000
		nnz    = 250
		shards = 4
	)
	c, err := microCorpus(n, nnz)
	if err != nil {
		return err
	}
	sigs, _, err := c.Signatures()
	if err != nil {
		return err
	}
	build := func() (*core.DB, error) {
		db, err := core.NewShardedDB(sigs[0].Dim(), shards)
		if err != nil {
			return nil, err
		}
		if err := db.AddAll(sigs); err != nil {
			return nil, err
		}
		return db, nil
	}
	db, err := build()
	if err != nil {
		return err
	}
	rec.Corpus = postCorpus{Docs: n, NNZ: nnz, Dim: sigs[0].Dim(), Shards: shards, SegmentSize: db.SegmentSize()}
	rec.IndexBytesUnsealed = db.IndexBytes()
	db.Seal()
	rec.IndexBytesCompressed = db.IndexBytes()
	rec.Postings = db.IndexPostings()
	fmt.Fprintf(stderr, "index bytes: unsealed (runs) %d -> sealed %d (%d postings)\n",
		rec.IndexBytesUnsealed, rec.IndexBytesCompressed, rec.Postings)

	tmp, err := os.MkdirTemp("", "fmeter-postbench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// Cold load over sealed segments: the persisted compressed blocks
	// are validated and either copied onto the heap (resident LoadDir)
	// or served in place off a read-only file mapping (LoadDirMapped).
	sealedDir := filepath.Join(tmp, "sealed")
	if err := db.SaveDir(sealedDir); err != nil {
		return err
	}
	rec.ColdLoad.SealedBytes = dirBytes(sealedDir)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rdb, err := core.LoadDir(sealedDir)
			if err != nil {
				b.Fatal(err)
			}
			rdb.Close()
		}
	})
	rec.ColdLoad.ResidentNs = float64(res.T.Nanoseconds()) / float64(res.N)

	res = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mdb, err := core.LoadDirMapped(sealedDir)
			if err != nil {
				b.Fatal(err)
			}
			if err := mdb.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	rec.ColdLoad.MmapNs = float64(res.T.Nanoseconds()) / float64(res.N)

	// Residency split and cold first query: after a mapped open the
	// posting blobs live in the page cache, not the heap.
	{
		rdb, err := core.LoadDir(sealedDir)
		if err != nil {
			return err
		}
		rec.ColdLoad.ResidentIndexBytes = rdb.IndexBytes()
		rdb.Close()
		query := sigs[0].W
		res = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mdb, err := core.LoadDirMapped(sealedDir)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := mdb.TopKSparse(query, 10, core.EuclideanMetric()); err != nil {
					b.Fatal(err)
				}
				if err := mdb.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
		rec.ColdLoad.MmapFirstQueryNs = float64(res.T.Nanoseconds()) / float64(res.N)
		mdb, err := core.LoadDirMapped(sealedDir)
		if err != nil {
			return err
		}
		rec.ColdLoad.MmapHeapBytes = mdb.IndexBytes()
		rec.ColdLoad.MmapMappedBytes = mdb.MappedBytes()
		if err := mdb.Close(); err != nil {
			return err
		}
	}

	// Cold load, rebuild: the same signatures saved from unsealed
	// (active) segments carry no postings section, so LoadDir takes the
	// posting-by-posting rebuild — what every cold open cost before the
	// v2.1 record.
	db2, err := build()
	if err != nil {
		return err
	}
	rebuildDir := filepath.Join(tmp, "rebuild")
	if err := db2.SaveDir(rebuildDir); err != nil {
		return err
	}
	rec.ColdLoad.RebuildBytes = dirBytes(rebuildDir)
	res = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rdb, err := core.LoadDir(rebuildDir)
			if err != nil {
				b.Fatal(err)
			}
			rdb.Close()
		}
	})
	rec.ColdLoad.RebuildNs = float64(res.T.Nanoseconds()) / float64(res.N)

	fmt.Fprintf(stderr, "cold load: v2.1 mmap %.2f ms (first query %.2f ms), resident %.1f ms (%d B on disk), rebuild %.1f ms (%d B)\n",
		rec.ColdLoad.MmapNs/1e6, rec.ColdLoad.MmapFirstQueryNs/1e6,
		rec.ColdLoad.ResidentNs/1e6, rec.ColdLoad.SealedBytes,
		rec.ColdLoad.RebuildNs/1e6, rec.ColdLoad.RebuildBytes)
	fmt.Fprintf(stderr, "residency: resident index %d B heap vs mapped %d B heap + %d B page cache\n",
		rec.ColdLoad.ResidentIndexBytes, rec.ColdLoad.MmapHeapBytes, rec.ColdLoad.MmapMappedBytes)

	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "posting-compression record written to %s\n", path)
	return nil
}

// dirBytes sums the sizes of every file in dir (0 on error — the bench
// record is advisory).
func dirBytes(dir string) int64 {
	sizes, err := dirSizes(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, sz := range sizes {
		total += sz
	}
	return total
}
