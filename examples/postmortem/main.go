// Post-mortem diagnosis (§1's motivation for continuous low-overhead
// logging): a machine logs signatures continuously; after a "crash", the
// surviving JSONL log is read back and the final intervals are diagnosed
// against a labeled history database — which behaviour was the system
// exhibiting right before it died?
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	fmeter "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Phase 1: build the operator's labeled history database from past
	// forensically identified runs (§2.2's envisioned environment).
	var history []*fmeter.Document
	for i, spec := range []fmeter.WorkloadSpec{
		fmeter.ScpWorkload(),
		fmeter.KcompileWorkload(),
		fmeter.DbenchWorkload(),
	} {
		sys, err := fmeter.New(fmeter.Config{Seed: int64(10 * (i + 1))})
		if err != nil {
			return err
		}
		docs, err := sys.Collect(spec, 20, 10*time.Second, nil)
		if err != nil {
			return err
		}
		history = append(history, docs...)
	}

	// Phase 2: the production machine runs with continuous logging. It
	// was serving dbench-like traffic when it "crashed"; only the JSONL
	// log survives. (The daemon writes each interval as soon as it is
	// collected, so the log is complete up to the last interval.)
	var survivingLog bytes.Buffer
	prod, err := fmeter.New(fmeter.Config{Seed: 99})
	if err != nil {
		return err
	}
	if _, err := prod.Collect(fmeter.DbenchWorkload(), 12, 10*time.Second, &survivingLog); err != nil {
		return err
	}
	fmt.Printf("surviving log: %d bytes of JSONL\n", survivingLog.Len())

	// Phase 3: post-mortem. Parse the log, embed everything in ONE
	// corpus (history + crash log) so idf weights are shared, and
	// diagnose the final intervals against the history database.
	crashDocs, err := fmeter.ReadDocuments(&survivingLog)
	if err != nil {
		return err
	}
	fmt.Printf("recovered %d intervals from the crashed machine\n", len(crashDocs))

	// Strip the crash docs' labels: the operator doesn't know them.
	for _, d := range crashDocs {
		d.Label = ""
	}
	all := append(append([]*fmeter.Document{}, history...), crashDocs...)
	sigs, _, err := fmeter.BuildSignatures(all, 3815)
	if err != nil {
		return err
	}
	historySigs := sigs[:len(history)]
	crashSigs := sigs[len(history):]

	db, err := fmeter.NewDB(3815)
	if err != nil {
		return err
	}
	defer db.Close()
	for _, s := range historySigs {
		if err := db.Add(s); err != nil {
			return err
		}
	}

	votes := map[string]int{}
	fmt.Println("\ndiagnosis of the last 5 intervals before the crash:")
	last := crashSigs[len(crashSigs)-5:]
	// Label the suspect intervals in one batched pass over the indexed DB.
	queries := make([]*fmeter.Sparse, len(last))
	for i, s := range last {
		queries[i] = s.W
	}
	labels, err := db.ClassifyBatch(queries, 7, fmeter.EuclideanMetric())
	if err != nil {
		return err
	}
	for i, s := range last {
		votes[labels[i]]++
		fmt.Printf("  %-16s -> %s\n", s.DocID, labels[i])
	}
	best, bestN := "", 0
	for l, n := range votes {
		if n > bestN {
			best, bestN = l, n
		}
	}
	fmt.Printf("\nverdict: the machine was running %q-like behaviour when it crashed\n", best)
	return nil
}
