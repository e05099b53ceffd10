package experiments

import (
	"testing"
)

// The acceptance criterion of the perf overhaul: table and figure results
// are bit-identical between Workers=1 and Workers=N at the same seed.
// Render() output is compared because it is exactly what the paper-facing
// reports contain.
func TestTable4BitIdenticalAcrossWorkers(t *testing.T) {
	data := getQuickData(t)
	p := quickMLParams()
	p.Workers = -1 // fully sequential
	seq, err := RunTable4(data.Set, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 8
	par, err := RunTable4(data.Set, p)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Render() != par.Render() {
		t.Errorf("Table 4 differs across worker counts:\nsequential:\n%s\nparallel:\n%s", seq.Render(), par.Render())
	}
	for gi := range seq.Rows {
		a, b := seq.Rows[gi].CV, par.Rows[gi].CV
		if a.MeanAccuracy != b.MeanAccuracy || a.StdAccuracy != b.StdAccuracy {
			t.Errorf("grouping %d: accuracy %v±%v vs %v±%v", gi, a.MeanAccuracy, a.StdAccuracy, b.MeanAccuracy, b.StdAccuracy)
		}
		for fi := range a.Folds {
			if a.Folds[fi] != b.Folds[fi] {
				t.Errorf("grouping %d fold %d differs: %+v vs %+v", gi, fi, a.Folds[fi], b.Folds[fi])
			}
		}
	}
}

func TestFig5And6BitIdenticalAcrossWorkers(t *testing.T) {
	data := getQuickData(t)
	p := quickClusterParams()
	p.Workers = -1
	seq5, err := RunFig5(data.Set, p)
	if err != nil {
		t.Fatal(err)
	}
	seq6, err := RunFig6(data.Set, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 8
	par5, err := RunFig5(data.Set, p)
	if err != nil {
		t.Fatal(err)
	}
	par6, err := RunFig6(data.Set, p)
	if err != nil {
		t.Fatal(err)
	}
	if seq5.Render() != par5.Render() {
		t.Error("Figure 5 differs across worker counts")
	}
	if seq6.Render() != par6.Render() {
		t.Error("Figure 6 differs across worker counts")
	}
	for si := range seq5.Series {
		for pi, pt := range seq5.Series[si].Points {
			if pt != par5.Series[si].Points[pi] {
				t.Errorf("Fig5 series %d point %d: %+v vs %+v", si, pi, pt, par5.Series[si].Points[pi])
			}
		}
	}
}

// Corpus collection fans out one simulated machine per workload; the
// concatenated corpus must not depend on the worker count.
func TestCollectCorpusBitIdenticalAcrossWorkers(t *testing.T) {
	p := quickMLParams()
	p.PerClass = 5
	specs := CollectWorkloadSpecs()
	seq, dimSeq, err := CollectSignatureCorpusWorkers(specs, p.PerClass, p.Interval, p.Seed, -1)
	if err != nil {
		t.Fatal(err)
	}
	par, dimPar, err := CollectSignatureCorpusWorkers(specs, p.PerClass, p.Interval, p.Seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dimSeq != dimPar || len(seq) != len(par) {
		t.Fatalf("corpus shape differs: %d/%d vs %d/%d", len(seq), dimSeq, len(par), dimPar)
	}
	for i := range seq {
		if seq[i].ID != par[i].ID || seq[i].Label != par[i].Label || len(seq[i].Counts) != len(par[i].Counts) {
			t.Fatalf("document %d differs across worker counts", i)
		}
		for fn, c := range seq[i].Counts {
			if par[i].Counts[fn] != c {
				t.Fatalf("document %d count for fn %d differs", i, fn)
			}
		}
	}
}
