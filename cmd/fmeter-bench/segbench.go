package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
)

// segRecord is the BENCH_segments.json artifact: the incremental-save
// headline of the segmented-store PR. It measures, on the micro-corpus
// shape, a full directory save after ingesting N signatures and an
// incremental save after adding M << N more (the O(new data) claim: the
// sealed segments stay on disk untouched).
type segRecord struct {
	Timestamp   string `json:"timestamp"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	N           int    `json:"n_initial"`
	M           int    `json:"m_appended"`
	Shards      int    `json:"shards"`
	SegmentSize int    `json:"segment_size"`
	Segments    int    `json:"segments_after_ingest"`
	// IndexBytes is the resident posting-structure footprint after the
	// ingest batch seals (block-compressed segments); IndexPostings the
	// entry count. BENCH_postings.json carries the unsealed-vs-sealed
	// comparison.
	IndexBytes    int64   `json:"index_bytes"`
	IndexPostings int64   `json:"index_postings"`
	FullSave      segSave `json:"full_save"`
	Incremental   segSave `json:"incremental_save"`
}

// segSave is one save's cost.
type segSave struct {
	Seconds      float64 `json:"seconds"`
	FilesWritten int     `json:"files_written"`
	BytesWritten int64   `json:"bytes_written"`
}

// dirSizes maps each file in dir to its size.
func dirSizes(dir string) (map[string]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return nil, err
		}
		out[e.Name()] = fi.Size()
	}
	return out, nil
}

// fullSave runs one SaveDir into an empty directory, where every file
// on disk afterwards was just written: files = dirty segments +
// manifest, bytes = the whole directory.
//
//fmeter:nondeterministic-ok bench harness: times the save it measures
func fullSave(db *core.DB, dir string) (segSave, error) {
	dirty := db.DirtySegments()
	start := time.Now()
	if err := db.SaveDir(dir); err != nil {
		return segSave{}, err
	}
	elapsed := time.Since(start).Seconds()
	sizes, err := dirSizes(dir)
	if err != nil {
		return segSave{}, err
	}
	var bytes int64
	for _, sz := range sizes {
		bytes += sz
	}
	return segSave{Seconds: elapsed, FilesWritten: dirty + 1, BytesWritten: bytes}, nil
}

// runSegBench measures the segmented-store persistence trajectory and
// writes the JSON record.
//
//fmeter:nondeterministic-ok bench harness: persistence timing and run timestamps
func runSegBench(path string, stderr io.Writer) error {
	const (
		n        = 2000
		m        = 50
		shards   = 4
		segSize  = 128
		nnzPerDo = 250
	)
	c, err := microCorpus(n+m, nnzPerDo)
	if err != nil {
		return err
	}
	sigs, _, err := c.Signatures()
	if err != nil {
		return err
	}
	db, err := core.NewShardedDB(sigs[0].Dim(), shards)
	if err != nil {
		return err
	}
	db.SetSegmentSize(segSize)
	if err := db.AddAll(sigs[:n]); err != nil {
		return err
	}
	// Seal the ingest batch: the active segments freeze, so the
	// incremental save below touches none of the N-signature bulk —
	// only the fresh segments holding the M appends.
	db.Seal()

	tmp, err := os.MkdirTemp("", "fmeter-segbench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	dir := filepath.Join(tmp, "db")

	rec := segRecord{
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		N:             n,
		M:             m,
		Shards:        shards,
		SegmentSize:   segSize,
		Segments:      db.Segments(),
		IndexBytes:    db.IndexBytes(),
		IndexPostings: db.IndexPostings(),
	}

	// Full save: every segment is dirty.
	full, err := fullSave(db, dir)
	if err != nil {
		return err
	}
	rec.FullSave = full

	// Incremental save: only the active segments (at most one per
	// shard) are dirty after M appends.
	if err := db.AddAll(sigs[n:]); err != nil {
		return err
	}
	dirty := db.DirtySegments()
	beforeSizes, err := dirSizes(dir)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := db.SaveDir(dir); err != nil {
		return err
	}
	incSeconds := time.Since(start).Seconds()
	afterSizes, err := dirSizes(dir)
	if err != nil {
		return err
	}
	var incBytes int64
	incFiles := 0
	for name, sz := range afterSizes {
		if prev, ok := beforeSizes[name]; !ok || prev != sz || name == "MANIFEST.json" {
			incBytes += sz
			incFiles++
		}
	}
	rec.Incremental = segSave{Seconds: incSeconds, FilesWritten: incFiles, BytesWritten: incBytes}
	if dirty+1 < incFiles {
		// More files changed size than were dirty — should not happen;
		// surface it rather than publish a bogus record.
		return fmt.Errorf("segbench: %d files changed but only %d segments were dirty", incFiles, dirty)
	}

	fmt.Fprintf(stderr, "segmented store: %d sigs, %d segments, shards=%d segsize=%d\n", n, rec.Segments, shards, segSize)
	fmt.Fprintf(stderr, "  full save        %8.1f ms  %3d files  %9d bytes\n", rec.FullSave.Seconds*1e3, rec.FullSave.FilesWritten, rec.FullSave.BytesWritten)
	fmt.Fprintf(stderr, "  incremental(+%d) %8.1f ms  %3d files  %9d bytes\n", m, rec.Incremental.Seconds*1e3, rec.Incremental.FilesWritten, rec.Incremental.BytesWritten)

	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "segment-save record written to %s\n", path)
	return nil
}
