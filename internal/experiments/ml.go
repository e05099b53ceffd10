package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/crossval"
	"repro/internal/daemon"
	"repro/internal/driver"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// MLParams sizes the learning experiments. Defaults follow the paper:
// roughly 250 signatures per class collected every 10 seconds, 10-fold
// cross validation for the workload groupings and 8-fold for the driver
// comparisons.
type MLParams struct {
	PerClass int
	Interval time.Duration
	Folds    int
	Seed     int64
	CGrid    []float64
	// Workers bounds the host-side fan-out of corpus collection, the
	// grouping sweep, and cross validation (0 = one per CPU, <0 =
	// sequential). Table results are bit-identical at any worker count.
	Workers int
}

// DefaultMLParams returns the paper-scale parameters.
func DefaultMLParams() MLParams {
	return MLParams{PerClass: 250, Interval: daemonInterval, Folds: 10, Seed: 1, CGrid: crossval.DefaultCGrid()}
}

// daemonInterval is the collection interval of the classification
// experiments ("the Fmeter logging daemon collected the signatures every
// 10 seconds").
const daemonInterval = 10 * time.Second

// SignatureSet is a labeled, unit-ball-normalized signature corpus keyed
// by class label.
type SignatureSet struct {
	Sigs    []core.Signature
	ByLabel map[string][]core.Signature
}

// newSignatureSet indexes signatures by label.
func newSignatureSet(sigs []core.Signature) *SignatureSet {
	set := &SignatureSet{Sigs: sigs, ByLabel: make(map[string][]core.Signature)}
	for _, s := range sigs {
		set.ByLabel[s.Label] = append(set.ByLabel[s.Label], s)
	}
	return set
}

// WorkloadData bundles the raw documents of a collection run with their
// embedded signature set (the ablations need both representations).
type WorkloadData struct {
	Docs []*core.Document
	Dim  int
	Set  *SignatureSet
}

// CollectWorkloadSpecs returns the three-workload specs of §4.2 (scp,
// kcompile, dbench) at the paper's testbed width.
func CollectWorkloadSpecs() []workload.Spec {
	return []workload.Spec{
		workload.Scp(daemon.NumCPU),
		workload.Kcompile(daemon.NumCPU),
		workload.Dbench(daemon.NumCPU),
	}
}

// CollectWorkloadData collects the three-workload corpus of §4.2 (scp,
// kcompile, dbench), keeping both raw documents and embedded signatures.
func CollectWorkloadData(p MLParams) (*WorkloadData, error) {
	specs := CollectWorkloadSpecs()
	docs, dim, err := CollectSignatureCorpusWorkers(specs, p.PerClass, p.Interval, p.Seed, p.Workers)
	if err != nil {
		return nil, err
	}
	sigs, _, err := core.BuildSignatures(docs, dim)
	if err != nil {
		return nil, err
	}
	return &WorkloadData{Docs: docs, Dim: dim, Set: newSignatureSet(sigs)}, nil
}

// CollectDriverSignatures collects the Table 5 corpus: netperf receive
// under the three myri10ge variants, one fresh machine per variant,
// labelled with the variant's name.
func CollectDriverSignatures(p MLParams) (*SignatureSet, error) {
	variants := driver.Variants()
	docs, dim, err := collectCorpus(len(variants), p.PerClass, p.Interval, p.Seed, p.Workers, func(i int, m *daemon.Machine) (workload.Spec, string, error) {
		return driver.NetperfRx(daemon.NumCPU), variants[i].String(), m.LoadDriver(variants[i])
	})
	if err != nil {
		return nil, err
	}
	sigs, _, err := core.BuildSignatures(docs, dim)
	if err != nil {
		return nil, err
	}
	return newSignatureSet(sigs), nil
}

// Grouping is one binary classification task: the labels assigned +1 and
// the labels assigned -1.
type Grouping struct {
	Name string
	Pos  []string
	Neg  []string
}

// Table4Groupings returns the paper's six groupings in table order.
func Table4Groupings() []Grouping {
	return []Grouping{
		{"dbench(+1), kcompile(-1)", []string{"dbench"}, []string{"kcompile"}},
		{"scp(+1), kcompile(-1)", []string{"scp"}, []string{"kcompile"}},
		{"scp(+1), dbench(-1)", []string{"scp"}, []string{"dbench"}},
		{"dbench(+1), kcompile+scp(-1)", []string{"dbench"}, []string{"kcompile", "scp"}},
		{"scp(+1), kcompile+dbench(-1)", []string{"scp"}, []string{"kcompile", "dbench"}},
		{"kcompile(+1), scp+dbench(-1)", []string{"kcompile"}, []string{"scp", "dbench"}},
	}
}

// Table5Groupings returns the paper's three driver comparisons.
func Table5Groupings() []Grouping {
	v143, v151, noLRO := driver.V143.String(), driver.V151.String(), driver.V151NoLRO.String()
	return []Grouping{
		{"myri10ge 1.4.3(+1), 1.5.1(-1)", []string{v143}, []string{v151}},
		{"myri10ge 1.5.1(+1), 1.5.1 LRO disabled(-1)", []string{v151}, []string{noLRO}},
		{"myri10ge 1.4.3(+1), 1.5.1 LRO disabled(-1)", []string{v143}, []string{noLRO}},
	}
}

// GroupingResult is one table row: the grouping plus the cross-validated
// test metrics.
type GroupingResult struct {
	Grouping Grouping
	CV       *crossval.Result
}

// MLTableResult is a Table 4 / Table 5 style result.
type MLTableResult struct {
	Title string
	Folds int
	Rows  []GroupingResult
}

// EvaluateGroupings runs the paper's protocol for each grouping over the
// signature set. Groupings are independent tasks — fold splits and SMO
// seeds depend only on the grouping index — so the sweep fans out over
// p.Workers with rows collected in table order; the result is
// bit-identical at any worker count.
func EvaluateGroupings(title string, set *SignatureSet, groupings []Grouping, p MLParams) (*MLTableResult, error) {
	// Fan out at one level only: across groupings when there are several,
	// inside the cross validation otherwise — nesting both would put
	// groupings × folds × grid CPU-bound goroutines on the cores at once.
	innerWorkers := -1
	if len(groupings) == 1 {
		innerWorkers = p.Workers
	}
	rows, err := parallel.Map(p.Workers, len(groupings), func(gi int) (GroupingResult, error) {
		g := groupings[gi]
		var sigs []core.Signature
		var y []float64
		for _, l := range g.Pos {
			cls := set.ByLabel[l]
			if len(cls) == 0 {
				return GroupingResult{}, fmt.Errorf("experiments: no signatures labeled %q", l)
			}
			for _, s := range cls {
				sigs = append(sigs, s)
				y = append(y, 1)
			}
		}
		for _, l := range g.Neg {
			cls := set.ByLabel[l]
			if len(cls) == 0 {
				return GroupingResult{}, fmt.Errorf("experiments: no signatures labeled %q", l)
			}
			for _, s := range cls {
				sigs = append(sigs, s)
				y = append(y, -1)
			}
		}
		// Per-grouping dimension compaction: distances and kernels are
		// unchanged, SVM training gets a ~5x speedup. The compacted
		// sparse forms feed the SVM directly — no dense intermediate.
		compact := CompactDims(sigs)
		x := SparseVecs(compact)
		var pos, neg []int
		for i, yy := range y {
			if yy > 0 {
				pos = append(pos, i)
			} else {
				neg = append(neg, i)
			}
		}
		folds, err := crossval.PaperKFold(pos, neg, p.Folds, p.Seed+int64(gi))
		if err != nil {
			return GroupingResult{}, fmt.Errorf("experiments: grouping %s: %w", g.Name, err)
		}
		cv, err := crossval.EvaluateSVM(x, y, folds, p.CGrid, p.Seed+int64(gi)*17, innerWorkers)
		if err != nil {
			return GroupingResult{}, fmt.Errorf("experiments: grouping %s: %w", g.Name, err)
		}
		return GroupingResult{Grouping: g, CV: cv}, nil
	})
	if err != nil {
		return nil, err
	}
	return &MLTableResult{Title: title, Folds: p.Folds, Rows: rows}, nil
}

// RunTable4 regenerates Table 4: SVM performance distinguishing the scp /
// kcompile / dbench workloads.
func RunTable4(set *SignatureSet, p MLParams) (*MLTableResult, error) {
	return EvaluateGroupings("Table 4: SVM performance on workload signatures", set, Table4Groupings(), p)
}

// RunTable5 regenerates Table 5: SVM performance distinguishing the
// myri10ge driver variants. The paper uses 8 folds here.
func RunTable5(set *SignatureSet, p MLParams) (*MLTableResult, error) {
	return EvaluateGroupings("Table 5: SVM performance on myri10ge driver variants", set, Table5Groupings(), p)
}

// Render prints the result in the paper's table layout: baseline accuracy
// followed by test accuracy/precision/recall as mean ± standard deviation
// over folds, in percent.
func (r *MLTableResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d-fold)\n", r.Title, r.Folds)
	widths := []int{44, 10, 16, 16, 16}
	renderRow(&b, widths, "Signature grouping", "Baseline", "Accuracy (%)", "Precision (%)", "Recall (%)")
	pct := func(mean, std float64) string {
		return fmt.Sprintf("%.2f±%.2f", 100*mean, 100*std)
	}
	for _, row := range r.Rows {
		cv := row.CV
		renderRow(&b, widths,
			row.Grouping.Name,
			fmt.Sprintf("%.3f", 100*cv.Baseline),
			pct(cv.MeanAccuracy, cv.StdAccuracy),
			pct(cv.MeanPrec, cv.StdPrec),
			pct(cv.MeanRecall, cv.StdRecall),
		)
	}
	return b.String()
}
