// Quickstart: collect low-level system signatures from two workloads,
// embed them into the tf-idf vector space, and query a signature database
// by similarity — the end-to-end Fmeter pipeline in ~60 lines.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	fmeter "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Boot a simulated monitored machine with the Fmeter tracer: every
	// core-kernel function call is counted in per-CPU slots.
	sys, err := fmeter.New(fmeter.Config{Seed: 42})
	if err != nil {
		return err
	}
	fmt.Printf("instrumented kernel functions: %d\n", sys.Dim())

	// The logging daemon reads the counters through debugfs every 10
	// seconds; each interval's count difference is one "document".
	var docs []*fmeter.Document
	for _, spec := range []fmeter.WorkloadSpec{fmeter.ScpWorkload(), fmeter.DbenchWorkload()} {
		batch, err := sys.Collect(spec, 15, 10*time.Second, nil)
		if err != nil {
			return err
		}
		fmt.Printf("collected %2d signatures under %s\n", len(batch), spec.Name)
		docs = append(docs, batch...)
	}

	// Embed: tf-idf over the corpus, then L2 normalization (§2.1).
	sigs, model, err := fmeter.BuildSignatures(docs, sys.Dim())
	if err != nil {
		return err
	}
	fmt.Printf("tf-idf model fitted over %d documents (dim %d)\n", len(sigs), model.Dim())

	// Index all but one signature in a labeled database, then retrieve
	// the held-out one by similarity. Queries use the signatures'
	// canonical sparse form, ride an inverted index and walk it on every
	// core.
	db, err := fmeter.NewDB(sys.Dim())
	if err != nil {
		return err
	}
	query, rest := sigs[0], sigs[1:]
	if err := db.AddAll(rest); err != nil {
		return err
	}
	for _, metric := range []fmeter.Metric{fmeter.CosineMetric(), fmeter.EuclideanMetric()} {
		hits, err := db.TopKSparse(query.W, 3, metric)
		if err != nil {
			return err
		}
		fmt.Printf("\nquery %s (%s) — top 3 by %s:\n", query.DocID, query.Label, metric.Name)
		for _, h := range hits {
			fmt.Printf("  %-12s label=%-8s score=%.4f\n", h.Signature.DocID, h.Signature.Label, h.Score)
		}
	}

	// Majority-vote retrieval classification (§2.2's similarity search).
	label, err := db.ClassifySparse(query.W, 5, fmeter.EuclideanMetric())
	if err != nil {
		return err
	}
	fmt.Printf("\n5-NN classification of %s: %s (truth: %s)\n", query.DocID, label, query.Label)

	// The database survives restarts as a snapshot directory: SaveDB
	// writes atomically (a crash never corrupts the store) and each save
	// writes only the rows no file holds yet — a full segment as one
	// file, the rows the last, growing one gained as one more — so a
	// long-lived operator DB saves in O(new data).
	dir, err := os.MkdirTemp("", "fmeter-quickstart-db-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store := filepath.Join(dir, "db")
	// Seal before the save: sealing records every row of the growing
	// segment as one posting run (otherwise only completed runs of 256
	// rows are indexed and the rest scanned), which the first query —
	// or IndexBytes, as here — encodes into one block-compressed
	// posting structure. The snapshot holds the rows; reopening cuts
	// them into the same segments, whose postings the first query
	// builds with the same encoder, so queries stay bit-identical.
	unindexed := db.ActiveUnindexedRows()
	db.Seal()
	fmt.Printf("sealed store: %d unindexed rows -> 0, resident index %d bytes\n", unindexed, db.IndexBytes())
	if err := fmeter.SaveDB(store, db); err != nil {
		return err
	}
	if err := db.Add(query); err != nil { // one new signature grows the last segment...
		return err
	}
	if err := fmeter.SaveDB(store, db); err != nil { // ...and this save writes that row alone, to a second file
		return err
	}
	// Reopen: every segment file is CRC-checked and loaded onto the
	// heap, and the store answers bit-identically to the one saved.
	reopened, err := fmeter.OpenDB(store)
	if err != nil {
		return err
	}
	defer reopened.Close()
	files, err := filepath.Glob(filepath.Join(store, "seg-*.fms"))
	if err != nil {
		return err
	}
	fmt.Printf("incremental on-disk store: %d signatures across %d segment file(s) (resident index %d bytes)\n",
		reopened.Len(), len(files), reopened.IndexBytes())
	return nil
}
