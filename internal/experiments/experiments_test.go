package experiments

import (
	"strings"
	"testing"

	"repro/internal/daemon"
)

// The experiment tests assert the paper's qualitative claims (who wins, by
// roughly what factor, where curves bend) at test-friendly scale; the
// bench harness runs the paper-scale versions.

// quickMLParams scales DefaultMLParams down for tests.
func quickMLParams() MLParams {
	return MLParams{PerClass: 40, Interval: daemonInterval, Folds: 5, Seed: 1, CGrid: []float64{1, 10}}
}

// quickClusterParams scales the Figure 5 and 6 parameters down for tests.
func quickClusterParams() ClusterParams {
	return ClusterParams{
		Runs:        3,
		SampleSizes: []int{10, 20},
		Ks:          []int{2, 3, 4},
		Restarts:    2,
		MaxIter:     30,
		Seed:        1,
	}
}

func TestFig1PowerLaw(t *testing.T) {
	res, err := RunFig1(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Functions != 3815 {
		t.Errorf("functions = %d, want 3815", res.Functions)
	}
	if res.Fit.Alpha < 0.8 || res.Fit.Alpha > 1.4 {
		t.Errorf("power-law exponent = %v, want ~1.1", res.Fit.Alpha)
	}
	if res.Fit.R2 < 0.95 {
		t.Errorf("log-log fit R2 = %v, want > 0.95", res.Fit.R2)
	}
	// Monotone non-increasing by construction.
	for i := 1; i < len(res.Counts); i++ {
		if res.Counts[i] > res.Counts[i-1] {
			t.Fatal("rank/count curve not sorted")
		}
	}
	if !strings.Contains(res.Render(), "power-law fit") {
		t.Error("render missing fit")
	}
}

func TestTable1Shape(t *testing.T) {
	res, err := RunTable1(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 23 {
		t.Fatalf("rows = %d, want 23", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Ftrace.Mean <= row.Fmeter.Mean {
			t.Errorf("%s: ftrace (%v) should exceed fmeter (%v)", row.Test, row.Ftrace.Mean, row.Fmeter.Mean)
		}
		if row.Fmeter.Mean <= row.Baseline.Mean*0.95 {
			t.Errorf("%s: fmeter (%v) should not beat baseline (%v)", row.Test, row.Fmeter.Mean, row.Baseline.Mean)
		}
		if row.FtFmRatio < 1.5 {
			t.Errorf("%s: ftrace/fmeter ratio %v too small", row.Test, row.FtFmRatio)
		}
	}
	// The paper's prose: Fmeter ~1.4x on average, Ftrace ~6.69x.
	if res.AvgFmeterSlowdown < 1.1 || res.AvgFmeterSlowdown > 2.0 {
		t.Errorf("avg fmeter slowdown = %v, want ~1.4", res.AvgFmeterSlowdown)
	}
	if res.AvgFtraceSlowdown < 4 || res.AvgFtraceSlowdown > 10 {
		t.Errorf("avg ftrace slowdown = %v, want ~6.7", res.AvgFtraceSlowdown)
	}
	if !strings.Contains(res.Render(), "Simple syscall") {
		t.Error("render missing rows")
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := RunTable2(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byCfg := map[daemon.Tracer]Table2Row{}
	for _, r := range res.Rows {
		byCfg[r.Config] = r
	}
	if !(byCfg[daemon.Vanilla].RPS.Mean > byCfg[daemon.Fmeter].RPS.Mean && byCfg[daemon.Fmeter].RPS.Mean > byCfg[daemon.Ftrace].RPS.Mean) {
		t.Error("throughput ordering broken: want vanilla > fmeter > ftrace")
	}
	if s := byCfg[daemon.Ftrace].SlowdownPct; s < 50 || s > 70 {
		t.Errorf("ftrace slowdown = %v%%, want ~61%%", s)
	}
	if s := byCfg[daemon.Fmeter].SlowdownPct; s < 5 || s > 30 {
		t.Errorf("fmeter slowdown = %v%%, want modest (paper 24%%)", s)
	}
	// Absolute vanilla throughput calibrated to the paper's 14215 req/s.
	if rps := byCfg[daemon.Vanilla].RPS.Mean; rps < 12000 || rps > 17000 {
		t.Errorf("vanilla rps = %v, want ~14215", rps)
	}
}

func TestTable3Shape(t *testing.T) {
	res, err := RunTable3(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byCfg := map[daemon.Tracer]Table3Row{}
	for _, r := range res.Rows {
		byCfg[r.Config] = r
	}
	// User time is uninstrumented: identical across configs.
	if byCfg[daemon.Vanilla].User != byCfg[daemon.Ftrace].User || byCfg[daemon.Vanilla].User != byCfg[daemon.Fmeter].User {
		t.Error("user time should be identical across configurations")
	}
	// Fmeter sys ~ +22%, Ftrace sys several-fold.
	if s := res.SysSlowdownFmeter; s < 0.1 || s > 0.45 {
		t.Errorf("fmeter sys slowdown = %v, want ~0.22", s)
	}
	if s := res.SysSlowdownFtrace; s < 2 {
		t.Errorf("ftrace sys slowdown = %v, want > 2x", s)
	}
	// Real time: ftrace run dominates, fmeter close to vanilla.
	if float64(byCfg[daemon.Ftrace].Real) < 1.3*float64(byCfg[daemon.Vanilla].Real) {
		t.Error("ftrace compile should be much slower in real time")
	}
	if float64(byCfg[daemon.Fmeter].Real) > 1.1*float64(byCfg[daemon.Vanilla].Real) {
		t.Error("fmeter compile should stay close to vanilla in real time")
	}
}

// quickData caches a small workload corpus across the ML tests.
var quickData *WorkloadData

func getQuickData(t *testing.T) *WorkloadData {
	t.Helper()
	if quickData == nil {
		data, err := CollectWorkloadData(quickMLParams())
		if err != nil {
			t.Fatal(err)
		}
		quickData = data
	}
	return quickData
}

func TestTable4QuickAccuracy(t *testing.T) {
	data := getQuickData(t)
	res, err := RunTable4(data.Set, quickMLParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("groupings = %d, want 6", len(res.Rows))
	}
	for _, row := range res.Rows {
		cv := row.CV
		if cv.MeanAccuracy < 0.93 {
			t.Errorf("%s: accuracy %v below the paper's regime", row.Grouping.Name, cv.MeanAccuracy)
		}
		if cv.MeanAccuracy <= cv.Baseline {
			t.Errorf("%s: accuracy %v does not beat baseline %v", row.Grouping.Name, cv.MeanAccuracy, cv.Baseline)
		}
	}
	// One-vs-rest groupings have ~2/3 baselines; pairwise ~1/2.
	if b := res.Rows[0].CV.Baseline; b < 0.45 || b > 0.55 {
		t.Errorf("pairwise baseline = %v", b)
	}
	if b := res.Rows[3].CV.Baseline; b < 0.6 || b > 0.72 {
		t.Errorf("one-vs-rest baseline = %v", b)
	}
	if !strings.Contains(res.Render(), "Baseline") {
		t.Error("render missing header")
	}
}

func TestTable5QuickAccuracy(t *testing.T) {
	p := quickMLParams()
	set, err := CollectDriverSignatures(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTable5(set, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groupings = %d, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.CV.MeanAccuracy < 0.9 {
			t.Errorf("%s: accuracy %v; driver variants should be separable", row.Grouping.Name, row.CV.MeanAccuracy)
		}
	}
}

func TestFig4PerfectRootSplit(t *testing.T) {
	data := getQuickData(t)
	res, err := RunFig4(data.Set, "scp", "kcompile", 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Dendrogram.Leaves()); got != 20 {
		t.Fatalf("leaves = %d, want 20", got)
	}
	if !res.PerfectRootSplit {
		t.Error("root split should separate scp from kcompile")
	}
	s := res.Dendrogram.String()
	if !strings.Contains(s, "(") || !strings.Contains(s, "19") {
		t.Errorf("dendrogram render looks wrong: %s", s)
	}
}

func TestFig5PurityHigh(t *testing.T) {
	data := getQuickData(t)
	res, err := RunFig5(data.Set, quickClusterParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("series = %d, want 4 permutations", len(res.Series))
	}
	for _, s := range res.Series {
		for _, pt := range s.Points {
			if pt.Purity < 0.75 || pt.Purity > 1.0+1e-9 {
				t.Errorf("%v n=%d: purity %v outside the paper's regime", s.Classes, pt.X, pt.Purity)
			}
		}
	}
	if res.Series[0].K != 3 || res.Series[1].K != 2 {
		t.Error("K must equal the true class count per permutation")
	}
}

func TestFig6PurityConvergesWithK(t *testing.T) {
	data := getQuickData(t)
	p := quickClusterParams()
	p.Ks = []int{2, 4, 8, 12}
	res, err := RunFig6(data.Set, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		first := s.Points[0].Purity
		last := s.Points[len(s.Points)-1].Purity
		if last < first-1e-9 {
			t.Errorf("n=%d: purity fell from %v to %v as K grew", s.SampleSize, first, last)
		}
		if last < 0.97 {
			t.Errorf("n=%d: purity %v should converge toward 1.0 at high K", s.SampleSize, last)
		}
	}
	if _, err := RunFig6(data.Set, ClusterParams{Runs: 1, SampleSizes: []int{5}}); err == nil {
		t.Error("empty K sweep should fail")
	}
}

func TestAblationCounters(t *testing.T) {
	res, err := RunAblationCounters(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Ordering: vanilla <= fmeter < shared atomic < ring buffer < kprobes.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Elapsed <= res.Rows[i-1].Elapsed {
			t.Errorf("counter design ordering broken at %s: %+v", res.Rows[i].Backend, res.Rows)
		}
	}
	// Kprobes pays an order of magnitude over the Fmeter stub per call —
	// the §3 justification for building on mcount.
	if res.Rows[4].Slowdown < 3*res.Rows[1].Slowdown {
		t.Errorf("kprobes (%v) should dwarf fmeter (%v)", res.Rows[4].Slowdown, res.Rows[1].Slowdown)
	}
}

func TestAblationHotCache(t *testing.T) {
	res, err := RunAblationHotCache(1, []int{8, 64, 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	prevHit := -1.0
	for _, row := range res.Rows {
		if row.HitRate < prevHit {
			t.Errorf("hit rate should grow with N: %+v", res.Rows)
		}
		prevHit = row.HitRate
	}
	// A large-enough cache must beat the flat stub.
	last := res.Rows[len(res.Rows)-1]
	if last.Speedup <= 1 {
		t.Errorf("topN=%d speedup = %v, want > 1", last.TopN, last.Speedup)
	}
	if last.HitRate < 0.5 {
		t.Errorf("topN=%d hit rate = %v; power law should concentrate calls", last.TopN, last.HitRate)
	}
}

func TestAblationWeighting(t *testing.T) {
	data := getQuickData(t)
	res, err := RunAblationWeighting(data, quickMLParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Accuracy < 0.9 {
			t.Errorf("%s: accuracy %v", row.Scheme, row.Accuracy)
		}
	}
}

func TestAblationRings(t *testing.T) {
	res, err := RunAblationRings(10000, 256, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	locked, cas := res.Rows[0], res.Rows[1]
	// The lagging consumer forces loss in both; the locked ring loses old
	// records (overwrite), the CAS ring rejects new ones (drop).
	if locked.Lost == 0 || cas.Lost == 0 {
		t.Error("lagging consumer should force record loss in both variants")
	}
	if locked.Writes != 10000 {
		t.Errorf("locked ring writes = %d; overwrite mode accepts everything", locked.Writes)
	}
	if cas.Writes >= 10000 {
		t.Error("cas ring should have rejected some writes")
	}
	if _, err := RunAblationRings(0, 1, 1); err == nil {
		t.Error("invalid params should fail")
	}
}

func TestCompactDimsPreservesDistances(t *testing.T) {
	data := getQuickData(t)
	sigs := data.Set.Sigs[:10]
	compact := CompactDims(sigs)
	if len(compact) != len(sigs) {
		t.Fatal("lost signatures")
	}
	if compact[0].Dim() >= sigs[0].Dim() {
		t.Error("compaction did not reduce dimensionality")
	}
	// Pairwise dot products preserved — bit-identical, since compaction
	// is a pure support remap.
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			a := sigs[i].W.Dot(sigs[j].W)
			b := compact[i].W.Dot(compact[j].W)
			if a != b {
				t.Fatalf("dot product changed: %v vs %v", a, b)
			}
		}
	}
}
