package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/crossval"
	"repro/internal/daemon"
	"repro/internal/kernel"
	"repro/internal/ringbuf"
	"repro/internal/trace"
	"repro/internal/vecmath"
	"repro/internal/workload"
)

// AblationCounterRow is one backend in the counter-design ablation (A1):
// why Figure 3's per-CPU slots beat the alternatives.
type AblationCounterRow struct {
	Backend  string
	Elapsed  time.Duration
	Slowdown float64
}

// AblationCounterResult compares per-CPU slots, shared atomic counters,
// and the ring-buffer tracer on a call-dense workload.
type AblationCounterResult struct {
	Rows []AblationCounterRow
}

// RunAblationCounters drives the same op batch through each backend.
func RunAblationCounters(seed int64) (*AblationCounterResult, error) {
	st := kernel.NewSymbolTable()
	shared, err := trace.NewSharedAtomic(st, daemon.NumCPU)
	if err != nil {
		return nil, err
	}
	fm, err := trace.NewFmeter(st, daemon.NumCPU)
	if err != nil {
		return nil, err
	}
	ft, err := trace.NewFtrace(st, daemon.NumCPU, 0)
	if err != nil {
		return nil, err
	}
	kp, err := trace.NewKprobes(st, daemon.NumCPU)
	if err != nil {
		return nil, err
	}
	backends := []struct {
		name string
		b    kernel.Backend
	}{
		{"vanilla (no counting)", kernel.NopBackend()},
		{"fmeter per-CPU slots", fm},
		{"shared atomic counters", shared},
		{"ftrace ring buffer", ft},
		{"kprobes breakpoints", kp},
	}
	res := &AblationCounterResult{}
	var base time.Duration
	for _, be := range backends {
		cat, err := kernel.NewCatalog(st)
		if err != nil {
			return nil, err
		}
		eng, err := kernel.NewEngine(cat, kernel.EngineConfig{NumCPU: daemon.NumCPU, Backend: be.b, Seed: seed})
		if err != nil {
			return nil, err
		}
		elapsed, err := eng.ExecOpName(kernel.OpSimpleOpenClose, 20000)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = elapsed
		}
		res.Rows = append(res.Rows, AblationCounterRow{
			Backend:  be.name,
			Elapsed:  elapsed,
			Slowdown: float64(elapsed) / float64(base),
		})
	}
	return res, nil
}

// Render prints the counter-design comparison.
func (r *AblationCounterResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation A1: counter designs on a call-dense op (20000x open/close)\n")
	widths := []int{26, 16, 10}
	renderRow(&b, widths, "Backend", "Elapsed", "Slowdown")
	for _, row := range r.Rows {
		renderRow(&b, widths, row.Backend, row.Elapsed.String(), fmt.Sprintf("%.3f", row.Slowdown))
	}
	return b.String()
}

// AblationHotCacheRow is one hot-cache size in the §6 future-work
// ablation.
type AblationHotCacheRow struct {
	TopN    int
	HitRate float64
	Elapsed time.Duration
	Speedup float64 // vs the flat Fmeter stub
}

// AblationHotCacheResult sweeps the hot-cache size N.
type AblationHotCacheResult struct {
	FlatElapsed time.Duration
	Rows        []AblationHotCacheRow
}

// RunAblationHotCache profiles the target workload once to rank functions
// by heat ("the value of N can be experimentally chosen"), then replays
// the workload under hot-cache backends of increasing N. Because
// invocations are heavy-tailed, a small N already captures most calls.
func RunAblationHotCache(seed int64, topNs []int) (*AblationHotCacheResult, error) {
	if len(topNs) == 0 {
		topNs = []int{16, 64, 256, 1024}
	}
	st := kernel.NewSymbolTable()
	// Rank functions by a profiling run of the same workload.
	profiler, err := trace.NewFmeter(st, daemon.NumCPU)
	if err != nil {
		return nil, err
	}
	cat, err := kernel.NewCatalog(st)
	if err != nil {
		return nil, err
	}
	eng, err := kernel.NewEngine(cat, kernel.EngineConfig{NumCPU: daemon.NumCPU, Backend: profiler, Seed: seed})
	if err != nil {
		return nil, err
	}
	profRun, err := workload.NewRunner(eng, workload.Dbench(daemon.NumCPU), seed+5)
	if err != nil {
		return nil, err
	}
	if _, err := profRun.RunInterval(10 * time.Second); err != nil {
		return nil, err
	}
	counts := profiler.Snapshot()
	rank := make([]int, len(counts))
	for i := range rank {
		rank[i] = i
	}
	sort.Slice(rank, func(a, b int) bool { return counts[rank[a]] > counts[rank[b]] })

	runWith := func(b kernel.Backend) (time.Duration, error) {
		cat, err := kernel.NewCatalog(st)
		if err != nil {
			return 0, err
		}
		eng, err := kernel.NewEngine(cat, kernel.EngineConfig{NumCPU: daemon.NumCPU, Backend: b, Seed: seed + 1})
		if err != nil {
			return 0, err
		}
		run, err := workload.NewRunner(eng, workload.Dbench(daemon.NumCPU), seed+2)
		if err != nil {
			return 0, err
		}
		if _, err := run.RunInterval(10 * time.Second); err != nil {
			return 0, err
		}
		return eng.KernelTime(), nil
	}

	flat, err := trace.NewFmeter(st, daemon.NumCPU)
	if err != nil {
		return nil, err
	}
	flatElapsed, err := runWith(flat)
	if err != nil {
		return nil, err
	}
	res := &AblationHotCacheResult{FlatElapsed: flatElapsed}
	for _, n := range topNs {
		if n > len(rank) {
			n = len(rank)
		}
		hotSet := make([]kernel.FuncID, n)
		for i := 0; i < n; i++ {
			hotSet[i] = kernel.FuncID(rank[i])
		}
		hc, err := trace.NewHotCacheFmeter(st, daemon.NumCPU, hotSet)
		if err != nil {
			return nil, err
		}
		elapsed, err := runWith(hc)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationHotCacheRow{
			TopN:    n,
			HitRate: hc.HitRate(),
			Elapsed: elapsed,
			Speedup: float64(flatElapsed) / float64(elapsed),
		})
	}
	return res, nil
}

// Render prints the hot-cache sweep.
func (r *AblationHotCacheResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation A2: hot-function counter cache (§6 future work)\n")
	fmt.Fprintf(&b, "flat fmeter stub: %v\n", r.FlatElapsed)
	widths := []int{8, 10, 16, 10}
	renderRow(&b, widths, "TopN", "HitRate", "Elapsed", "Speedup")
	for _, row := range r.Rows {
		renderRow(&b, widths,
			fmt.Sprintf("%d", row.TopN),
			fmt.Sprintf("%.3f", row.HitRate),
			row.Elapsed.String(),
			fmt.Sprintf("%.3f", row.Speedup),
		)
	}
	return b.String()
}

// AblationWeightingRow is one signature weighting scheme in A3.
type AblationWeightingRow struct {
	Scheme   string
	Accuracy float64
	StdDev   float64
}

// AblationWeightingResult compares tf-idf against raw counts and tf-only
// weighting on the hardest Table 4 grouping.
type AblationWeightingResult struct {
	Grouping string
	Rows     []AblationWeightingRow
}

// RunAblationWeighting classifies scp vs kcompile signatures under three
// weighting schemes, quantifying what tf normalization and idf damping
// contribute.
func RunAblationWeighting(data *WorkloadData, p MLParams) (*AblationWeightingResult, error) {
	set := data.Set
	rawDocs := make([]vecmath.Vector, len(data.Docs))
	rawLabels := make([]string, len(data.Docs))
	for i, d := range data.Docs {
		v := vecmath.NewVector(data.Dim)
		for fn, c := range d.Counts {
			v[fn] = float64(c)
		}
		rawDocs[i] = v
		rawLabels[i] = d.Label
	}
	res := &AblationWeightingResult{Grouping: "scp(+1) vs kcompile(-1)"}

	eval := func(scheme string, x []*vecmath.Sparse, labels []string) error {
		var xs []*vecmath.Sparse
		var y []float64
		var pos, neg []int
		for i, l := range labels {
			switch l {
			case "scp":
				pos = append(pos, len(xs))
				xs = append(xs, x[i])
				y = append(y, 1)
			case "kcompile":
				neg = append(neg, len(xs))
				xs = append(xs, x[i])
				y = append(y, -1)
			}
		}
		folds, err := crossval.PaperKFold(pos, neg, p.Folds, p.Seed)
		if err != nil {
			return err
		}
		cv, err := crossval.EvaluateSVM(xs, y, folds, p.CGrid, p.Seed, 0)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, AblationWeightingRow{
			Scheme: scheme, Accuracy: cv.MeanAccuracy, StdDev: cv.StdAccuracy,
		})
		return nil
	}

	// tf-idf (the paper's embedding).
	tfidf := CompactDims(set.Sigs)
	if err := eval("tf-idf (paper)", SparseVecs(tfidf), LabelsOf(tfidf)); err != nil {
		return nil, err
	}
	// Raw counts, L2-normalized.
	raw := make([]*vecmath.Sparse, len(rawDocs))
	for i, v := range rawDocs {
		raw[i] = vecmath.DenseToSparse(v.Normalized())
	}
	if err := eval("raw counts (L2)", raw, rawLabels); err != nil {
		return nil, err
	}
	// tf only: counts normalized by document length, then L2.
	tf := make([]*vecmath.Sparse, len(rawDocs))
	for i, v := range rawDocs {
		var total float64
		for _, c := range v {
			total += c
		}
		t := v.Clone()
		if total > 0 {
			t.Scale(1 / total)
		}
		tf[i] = vecmath.DenseToSparse(t.Normalize())
	}
	if err := eval("tf only (L2)", tf, rawLabels); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the weighting comparison.
func (r *AblationWeightingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A3: signature weighting schemes on %s\n", r.Grouping)
	widths := []int{20, 18}
	renderRow(&b, widths, "Scheme", "Accuracy (%)")
	for _, row := range r.Rows {
		renderRow(&b, widths, row.Scheme, fmt.Sprintf("%.2f±%.2f", 100*row.Accuracy, 100*row.StdDev))
	}
	return b.String()
}

// AblationRingRow is one ring-buffer variant in A4.
type AblationRingRow struct {
	Ring       string
	Writes     uint64
	Lost       uint64 // overwrites or drops
	DrainTotal int
}

// AblationRingResult compares the lock-based and CAS ring buffers under
// identical record streams (§3's wait-free debate).
type AblationRingResult struct {
	Rows []AblationRingRow
}

// RunAblationRings pushes the same synthetic record stream through both
// ring variants with a lagging consumer.
func RunAblationRings(records, capacity, drainEvery int) (*AblationRingResult, error) {
	if records < 1 || capacity < 1 || drainEvery < 1 {
		return nil, fmt.Errorf("experiments: ring ablation parameters must be positive")
	}
	locked, err := ringbuf.NewLocked(capacity)
	if err != nil {
		return nil, err
	}
	cas, err := ringbuf.NewCAS(capacity)
	if err != nil {
		return nil, err
	}
	res := &AblationRingResult{}
	for _, variant := range []struct {
		name string
		r    ringbuf.Ring
	}{{"locked (overwrite)", locked}, {"cas (drop-on-full)", cas}} {
		drained := 0
		for i := 0; i < records; i++ {
			variant.r.Write(ringbuf.Record{FnAddr: uint64(i), TimeNS: uint64(i)})
			if (i+1)%drainEvery == 0 {
				drained += variant.r.Drain(func(ringbuf.Record) {})
			}
		}
		drained += variant.r.Drain(func(ringbuf.Record) {})
		st := variant.r.Stats()
		res.Rows = append(res.Rows, AblationRingRow{
			Ring:       variant.name,
			Writes:     st.Writes,
			Lost:       st.Overwrites + st.Drops,
			DrainTotal: drained,
		})
	}
	return res, nil
}

// Render prints the ring comparison.
func (r *AblationRingResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation A4: ring buffer variants with a lagging consumer\n")
	widths := []int{20, 12, 12, 12}
	renderRow(&b, widths, "Ring", "Writes", "Lost", "Drained")
	for _, row := range r.Rows {
		renderRow(&b, widths, row.Ring,
			fmt.Sprintf("%d", row.Writes),
			fmt.Sprintf("%d", row.Lost),
			fmt.Sprintf("%d", row.DrainTotal),
		)
	}
	return b.String()
}
