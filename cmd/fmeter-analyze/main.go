// Command fmeter-analyze performs offline analysis of signature logs
// collected by fmeterd: it builds a shared tf-idf corpus over one
// or more JSONL files (labels come from the documents), then classifies
// unlabeled documents against the labeled ones, clusters the corpus, or
// explains what distinguishes two labels.
//
// Usage:
//
//	fmeter-analyze -mode classify -in scp.jsonl,dbench.jsonl,unknown.jsonl
//	fmeter-analyze -mode cluster -k 3 -in all.jsonl
//	fmeter-analyze -mode contrast -labels scp,dbench -in all.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	fmeter "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fmeter-analyze:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fmeter-analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode   = fs.String("mode", "classify", "analysis mode: classify|cluster|contrast")
		inList = fs.String("in", "", "comma-separated JSONL signature logs")
		k      = fs.Int("k", 2, "cluster count (cluster mode) / neighbours (classify mode)")
		labels = fs.String("labels", "", "two labels to contrast, comma-separated (contrast mode)")
		topN   = fs.Int("top", 10, "terms to print in contrast mode")
		dim    = fs.Int("dim", 3815, "signature dimension (core-kernel function count)")
		saveDB = fs.String("savedb", "", "classify mode: also persist the labeled signature DB as a snapshot directory at this path (incremental + crash-safe; reload with fmeter.OpenDB)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inList == "" {
		return fmt.Errorf("-in is required")
	}

	var docs []*fmeter.Document
	for _, path := range strings.Split(*inList, ",") {
		path = strings.TrimSpace(path)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		batch, err := fmeter.ReadDocuments(f)
		cerr := f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if cerr != nil {
			return cerr
		}
		docs = append(docs, batch...)
	}
	if len(docs) == 0 {
		return fmt.Errorf("no documents in input")
	}
	sigs, _, err := fmeter.BuildSignatures(docs, *dim)
	if err != nil {
		return err
	}

	switch *mode {
	case "classify":
		return classify(stdout, sigs, *k, *dim, *saveDB)
	case "cluster":
		return clusterMode(stdout, sigs, *k)
	case "contrast":
		parts := strings.Split(*labels, ",")
		if len(parts) != 2 {
			return fmt.Errorf("-labels needs exactly two comma-separated labels")
		}
		return contrast(stdout, sigs, parts[0], parts[1], *topN)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

// classify labels every unlabeled signature by k-NN against the labeled
// ones, optionally persisting the labeled DB via the facade's atomic
// snapshot-directory save (no hand-rolled os.Create: a crash mid-write
// never leaves a torn store behind).
func classify(w io.Writer, sigs []fmeter.Signature, k, dim int, saveDB string) error {
	db, err := fmeter.NewDB(dim)
	if err != nil {
		return err
	}
	defer db.Close()
	var unlabeled []fmeter.Signature
	for _, s := range sigs {
		if s.Label == "" {
			unlabeled = append(unlabeled, s)
		} else if err := db.Add(s); err != nil {
			return err
		}
	}
	if db.Len() == 0 {
		return fmt.Errorf("classify mode needs labeled documents")
	}
	if len(unlabeled) == 0 {
		return fmt.Errorf("classify mode needs unlabeled documents (empty label field)")
	}
	fmt.Fprintf(w, "classifying %d unlabeled signatures against %d labeled (k=%d):\n",
		len(unlabeled), db.Len(), k)
	// One batched pass: the queries fan out over the worker pool and each
	// rides the DB's inverted index, instead of a scan per signature.
	queries := make([]*fmeter.Sparse, len(unlabeled))
	for i, s := range unlabeled {
		queries[i] = s.W
	}
	labels, err := db.ClassifyBatch(queries, k, fmeter.EuclideanMetric())
	if err != nil {
		return err
	}
	for i, s := range unlabeled {
		fmt.Fprintf(w, "  %-24s -> %s\n", s.DocID, labels[i])
	}
	if saveDB != "" {
		if err := fmeter.SaveDB(saveDB, db); err != nil {
			return err
		}
		fmt.Fprintf(w, "labeled DB (%d signatures) saved to %s\n", db.Len(), saveDB)
	}
	return nil
}

// clusterMode K-means-clusters the corpus and reports purity when labels
// exist.
func clusterMode(w io.Writer, sigs []fmeter.Signature, k int) error {
	res, err := fmeter.ClusterSignatures(sigs, k, 1)
	if err != nil {
		return err
	}
	counts := make(map[int]map[string]int)
	for i, s := range sigs {
		c := res.Assign[i]
		if counts[c] == nil {
			counts[c] = map[string]int{}
		}
		key := s.Label
		if key == "" {
			key = "(unlabeled)"
		}
		counts[c][key]++
	}
	fmt.Fprintf(w, "K-means K=%d over %d signatures (purity %.3f):\n", k, len(sigs), res.Purity)
	for c := 0; c < k; c++ {
		fmt.Fprintf(w, "  cluster %d: %v\n", c, counts[c])
	}
	return nil
}

// contrast prints the kernel functions that most distinguish two labels'
// mean signatures. Function names are resolved against the simulated
// kernel's symbol table.
func contrast(w io.Writer, sigs []fmeter.Signature, labelA, labelB string, topN int) error {
	mean := func(label string) (fmeter.Signature, error) {
		var acc fmeter.Vector
		n := 0
		for _, s := range sigs {
			if s.Label != label {
				continue
			}
			if acc == nil {
				acc = make(fmeter.Vector, s.Dim())
			}
			s.W.Axpy(1, acc)
			n++
		}
		if n == 0 {
			return fmeter.Signature{}, fmt.Errorf("no documents labeled %q", label)
		}
		acc.Scale(1 / float64(n))
		return fmeter.SignatureFromDense(label, label, acc), nil
	}
	a, err := mean(labelA)
	if err != nil {
		return err
	}
	b, err := mean(labelB)
	if err != nil {
		return err
	}
	sys, err := fmeter.New(fmeter.Config{Seed: 1})
	if err != nil {
		return err
	}
	names := sys.FunctionNames()
	if len(names) < a.Dim() {
		names = nil // foreign dimension; print indices only
	}
	terms, err := fmeter.Contrast(a, b, topN, names)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "kernel functions separating %q (positive) from %q (negative):\n", labelA, labelB)
	for _, t := range terms {
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("term-%d", t.Term)
		}
		fmt.Fprintf(w, "  %-32s %+.5f\n", name, t.Weight)
	}
	return nil
}
