package fmeter

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each benchmark
// executes one full experiment per iteration and reports the experiment's
// headline quantity as a custom metric, so a bench run doubles as a
// reproduction check:
//
//	BenchmarkFigure1Boot          — Fig 1  (power-law exponent)
//	BenchmarkTable1Lmbench        — Table 1 (avg Fmeter/Ftrace slowdowns)
//	BenchmarkTable2Apachebench    — Table 2 (throughput slowdowns)
//	BenchmarkTable3Kcompile       — Table 3 (sys-time slowdowns)
//	BenchmarkTable4SVMWorkloads   — Table 4 (mean accuracy)
//	BenchmarkTable5SVMDriver      — Table 5 (mean accuracy)
//	BenchmarkFigure4Dendrogram    — Fig 4  (perfect root split)
//	BenchmarkFigure5KmeansPurity  — Fig 5  (mean purity)
//	BenchmarkFigure6KmeansK       — Fig 6  (purity at max K)
//	BenchmarkAblation*            — the five ablations of internal/experiments
//
// The corpora are collected once and shared across iterations; collection
// itself is benchmarked separately (BenchmarkSignatureCollection).

import (
	"sync"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/experiments"
)

// benchML sizes the learning experiments for the bench harness: paper
// protocol (10-/8-fold, full C grid) at a corpus size that keeps a full
// bench sweep in CPU-minutes. cmd/fmeter-bench runs the paper-scale 250.
func benchML() experiments.MLParams {
	p := experiments.DefaultMLParams()
	p.PerClass = 120
	return p
}

var (
	wlOnce sync.Once
	wlData *experiments.WorkloadData
	wlErr  error

	drvOnce sync.Once
	drvSet  *experiments.SignatureSet
	drvErr  error
)

func workloadData(b *testing.B) *experiments.WorkloadData {
	b.Helper()
	wlOnce.Do(func() {
		wlData, wlErr = experiments.CollectWorkloadData(benchML())
	})
	if wlErr != nil {
		b.Fatal(wlErr)
	}
	return wlData
}

func driverSet(b *testing.B) *experiments.SignatureSet {
	b.Helper()
	drvOnce.Do(func() {
		drvSet, drvErr = experiments.CollectDriverSignatures(benchML())
	})
	if drvErr != nil {
		b.Fatal(drvErr)
	}
	return drvSet
}

func BenchmarkFigure1Boot(b *testing.B) {
	b.ReportAllocs()
	var alpha float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1(int64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		alpha = res.Fit.Alpha
	}
	b.ReportMetric(alpha, "powerlaw-alpha")
}

func BenchmarkTable1Lmbench(b *testing.B) {
	b.ReportAllocs()
	var fm, ft float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(int64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		fm, ft = res.AvgFmeterSlowdown, res.AvgFtraceSlowdown
	}
	b.ReportMetric(fm, "fmeter-slowdown")
	b.ReportMetric(ft, "ftrace-slowdown")
}

func BenchmarkTable2Apachebench(b *testing.B) {
	b.ReportAllocs()
	var fmSlow, ftSlow float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable2(int64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			switch row.Config {
			case daemon.Fmeter:
				fmSlow = row.SlowdownPct
			case daemon.Ftrace:
				ftSlow = row.SlowdownPct
			}
		}
	}
	b.ReportMetric(fmSlow, "fmeter-slowdown-%")
	b.ReportMetric(ftSlow, "ftrace-slowdown-%")
}

func BenchmarkTable3Kcompile(b *testing.B) {
	b.ReportAllocs()
	var fm, ft float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3(int64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		fm, ft = res.SysSlowdownFmeter, res.SysSlowdownFtrace
	}
	b.ReportMetric(100*fm, "fmeter-sys-slowdown-%")
	b.ReportMetric(100*ft, "ftrace-sys-slowdown-%")
}

func BenchmarkSignatureCollection(b *testing.B) {
	// The daemon's end-to-end cost: one 10-second interval of the scp
	// workload, counters read through debugfs before and after.
	sys, err := New(Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Collect(ScpWorkload(), 1, 10*time.Second, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4SVMWorkloads(b *testing.B) {
	data := workloadData(b)
	b.ReportAllocs()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4(data.Set, benchML())
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, row := range res.Rows {
			sum += row.CV.MeanAccuracy
		}
		acc = sum / float64(len(res.Rows))
	}
	b.ReportMetric(100*acc, "mean-accuracy-%")
}

func BenchmarkTable5SVMDriver(b *testing.B) {
	set := driverSet(b)
	p := benchML()
	p.Folds = 8 // the paper uses eight-fold cross validation here
	b.ReportAllocs()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable5(set, p)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, row := range res.Rows {
			sum += row.CV.MeanAccuracy
		}
		acc = sum / float64(len(res.Rows))
	}
	b.ReportMetric(100*acc, "mean-accuracy-%")
}

func BenchmarkFigure4Dendrogram(b *testing.B) {
	data := workloadData(b)
	b.ReportAllocs()
	b.ResetTimer()
	perfect := 0.0
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(data.Set, "scp", "kcompile", int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if res.PerfectRootSplit {
			perfect = 1
		} else {
			perfect = 0
		}
	}
	b.ReportMetric(perfect, "perfect-root-split")
}

func BenchmarkFigure5KmeansPurity(b *testing.B) {
	data := workloadData(b)
	p := experiments.DefaultFig5Params()
	// Cap the per-class sample sizes at the bench corpus size.
	p.SampleSizes = []int{20, 60, 100}
	b.ReportAllocs()
	b.ResetTimer()
	var purity float64
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i) + 1
		res, err := experiments.RunFig5(data.Set, p)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		var n int
		for _, s := range res.Series {
			for _, pt := range s.Points {
				sum += pt.Purity
				n++
			}
		}
		purity = sum / float64(n)
	}
	b.ReportMetric(purity, "mean-purity")
}

func BenchmarkFigure6KmeansK(b *testing.B) {
	data := workloadData(b)
	p := experiments.DefaultFig6Params()
	p.SampleSizes = []int{60, 100}
	b.ReportAllocs()
	b.ResetTimer()
	var lastPurity float64
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i) + 1
		res, err := experiments.RunFig6(data.Set, p)
		if err != nil {
			b.Fatal(err)
		}
		s := res.Series[len(res.Series)-1]
		lastPurity = s.Points[len(s.Points)-1].Purity
	}
	b.ReportMetric(lastPurity, "purity-at-K20")
}

func BenchmarkAblationCounterDesigns(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationCounters(int64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationHotCache(b *testing.B) {
	b.ReportAllocs()
	var bestSpeedup float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationHotCache(int64(i)+1, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Speedup > bestSpeedup {
				bestSpeedup = row.Speedup
			}
		}
	}
	b.ReportMetric(bestSpeedup, "best-speedup")
}

func BenchmarkAblationWeighting(b *testing.B) {
	data := workloadData(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationWeighting(data, benchML()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRingBuffer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationRings(200000, 1<<12, 1<<14); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationInterval(b *testing.B) {
	b.ReportAllocs()
	var transfer float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationInterval(40, 8, int64(i)+1, nil)
		if err != nil {
			b.Fatal(err)
		}
		transfer = res.TransferAccuracy
	}
	b.ReportMetric(100*transfer, "transfer-accuracy-%")
}
