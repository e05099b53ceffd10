// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) against the simulated kernel substrate, plus ablations
// of the design's choices (counter structure, hot-function cache, tf-idf
// weighting, ring buffers, collection interval). Each experiment returns
// a structured result and renders a text report in the paper's layout,
// with the published numbers beside the reproduced ones.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/parallel"
	"repro/internal/vecmath"
	"repro/internal/workload"
)

// CollectSignatureCorpus boots a fresh Fmeter system per workload, runs
// the logging daemon for n intervals of the given length, and returns the
// labeled documents. Each workload runs "without interference from
// each-other" (§4.2.1) — on its own system instance — exactly like the
// paper's controlled collection. One worker per CPU; see
// CollectSignatureCorpusWorkers.
func CollectSignatureCorpus(specs []workload.Spec, n int, interval time.Duration, seed int64) ([]*core.Document, int, error) {
	return CollectSignatureCorpusWorkers(specs, n, interval, seed, 0)
}

// CollectSignatureCorpusWorkers is CollectSignatureCorpus with an explicit
// worker bound (see collectCorpus).
func CollectSignatureCorpusWorkers(specs []workload.Spec, n int, interval time.Duration, seed int64, workers int) ([]*core.Document, int, error) {
	return collectCorpus(len(specs), n, interval, seed, workers, func(i int, _ *daemon.Machine) (workload.Spec, string, error) {
		return specs[i], specs[i].Name, nil
	})
}

// collectCorpus boots one fresh Fmeter machine per task, lets prepare
// ready it and name the workload to run and its label, and collects n
// intervals of that workload through the logging daemon. Every task's
// seed derives only from its position, so the collections fan out
// freely; batches are concatenated in task order, making the corpus
// bit-identical at any worker count.
func collectCorpus(tasks, n int, interval time.Duration, seed int64, workers int, prepare func(i int, m *daemon.Machine) (workload.Spec, string, error)) ([]*core.Document, int, error) {
	type batch struct {
		docs []*core.Document
		dim  int
	}
	batches, err := parallel.Map(workers, tasks, func(i int) (batch, error) {
		m, err := daemon.Boot(daemon.Fmeter, seed+int64(i)*1000)
		if err != nil {
			return batch{}, err
		}
		spec, label, err := prepare(i, m)
		if err != nil {
			return batch{}, err
		}
		run, err := workload.NewRunner(m.Eng, spec, seed+int64(i)*1000+1)
		if err != nil {
			return batch{}, err
		}
		body := func(d time.Duration) error {
			_, err := run.RunInterval(d)
			return err
		}
		docs, err := m.Col.CollectSeries(label, label, n, interval, body, nil)
		if err != nil {
			return batch{}, err
		}
		return batch{docs: docs, dim: m.ST.Len()}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	var docs []*core.Document
	dim := 0
	for _, b := range batches {
		docs = append(docs, b.docs...)
		dim = b.dim
	}
	return docs, dim, nil
}

// CompactDims projects signatures onto the union of their non-zero
// dimensions, dropping coordinates that are zero everywhere. Distances and
// dot products are unchanged; clustering and kernel computations get a
// ~5x dimensionality cut. The projection is a pure support remap on the
// sparse forms — index order (and hence every accumulation) is preserved,
// so the compacted weights are the originals bit for bit.
func CompactDims(sigs []core.Signature) []core.Signature {
	if len(sigs) == 0 {
		return nil
	}
	dim := sigs[0].Dim()
	used := make([]bool, dim)
	for _, s := range sigs {
		s.W.ForEach(func(i int, _ float64) { used[i] = true })
	}
	old2new := make([]int32, dim)
	compactDim := 0
	for i, u := range used {
		if u {
			old2new[i] = int32(compactDim)
			compactDim++
		}
	}
	out := make([]core.Signature, len(sigs))
	for si, s := range sigs {
		idx := make([]int32, 0, s.W.NNZ())
		val := make([]float64, 0, s.W.NNZ())
		s.W.ForEach(func(i int, x float64) {
			idx = append(idx, old2new[i])
			val = append(val, x)
		})
		w, err := vecmath.SparseFromSorted(compactDim, idx, val)
		if err != nil {
			// The remap is monotonic over validated inputs; failure here
			// is a programming error, not an input condition.
			panic(fmt.Sprintf("experiments: compact remap: %v", err))
		}
		out[si] = core.Signature{DocID: s.DocID, Label: s.Label, W: w}
	}
	return out
}

// Vectors materializes the dense view of each signature (for consumers
// that work on dense vectors, e.g. the Figure 4 hierarchical clustering).
func Vectors(sigs []core.Signature) []vecmath.Vector {
	out := make([]vecmath.Vector, len(sigs))
	for i, s := range sigs {
		out[i] = s.Dense()
	}
	return out
}

// SparseVecs extracts the canonical sparse forms of signatures (shared,
// not copied).
func SparseVecs(sigs []core.Signature) []*vecmath.Sparse {
	out := make([]*vecmath.Sparse, len(sigs))
	for i, s := range sigs {
		out[i] = s.W
	}
	return out
}

// LabelsOf extracts the label slice of signatures.
func LabelsOf(sigs []core.Signature) []string {
	out := make([]string, len(sigs))
	for i, s := range sigs {
		out[i] = s.Label
	}
	return out
}

// renderRow writes fixed-width columns.
func renderRow(b *strings.Builder, widths []int, cells ...string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(fmt.Sprintf("%-*s", widths[i], c))
	}
	b.WriteByte('\n')
}
