package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Table1Row is one lmbench micro-benchmark under the three kernel
// configurations, with measured mean latency ± SEM in microseconds and the
// derived slowdown ratios, matching the paper's Table 1 columns.
type Table1Row struct {
	Test            string
	Baseline        stats.Summary // µs
	Ftrace          stats.Summary // µs
	Fmeter          stats.Summary // µs
	FtraceSlowdown  float64
	FmeterSlowdown  float64
	FtFmRatio       float64 // how much slower Ftrace is than Fmeter
	PaperFtraceSlow float64 // the paper's ratios, for the report
	PaperFmeterSlow float64
}

// Table1Result is the full lmbench table.
type Table1Result struct {
	Rows []Table1Row
	// AvgFmeterSlowdown and AvgFtraceSlowdown are the cross-test averages
	// the paper quotes in prose (1.4x and 6.69x respectively).
	AvgFmeterSlowdown float64
	AvgFtraceSlowdown float64
}

// table1Trials is how many repetitions each (test, config) cell runs; the
// op itself executes in a closed loop inside each trial.
const (
	table1Trials     = 9
	table1LoopLength = 400
)

// RunTable1 executes each of the 23 lmbench operations in a closed loop
// under vanilla, Ftrace, and Fmeter kernels, measuring virtual latency.
func RunTable1(seed int64) (*Table1Result, error) {
	tests := workload.LmbenchTests()
	res := &Table1Result{}
	var fmSum, ftSum float64
	for ti, tt := range tests {
		row := Table1Row{
			Test:            tt.Display,
			PaperFtraceSlow: tt.PaperFtraceUS / tt.PaperBaselineUS,
			PaperFmeterSlow: tt.PaperFmeterUS / tt.PaperBaselineUS,
		}
		sums := map[daemon.Tracer]*[]float64{
			daemon.Vanilla: {}, daemon.Ftrace: {}, daemon.Fmeter: {},
		}
		for _, tracer := range []daemon.Tracer{daemon.Vanilla, daemon.Ftrace, daemon.Fmeter} {
			for trial := 0; trial < table1Trials; trial++ {
				sys, err := daemon.Boot(tracer, seed+int64(ti*100+trial))
				if err != nil {
					return nil, err
				}
				op, err := sys.Cat.Op(tt.Op)
				if err != nil {
					return nil, err
				}
				elapsed, err := sys.Eng.ExecOp(op, table1LoopLength)
				if err != nil {
					return nil, err
				}
				perOpUS := float64(elapsed) / float64(time.Microsecond) / table1LoopLength
				*sums[tracer] = append(*sums[tracer], perOpUS)
			}
		}
		var err error
		if row.Baseline, err = stats.Summarize(*sums[daemon.Vanilla]); err != nil {
			return nil, err
		}
		if row.Ftrace, err = stats.Summarize(*sums[daemon.Ftrace]); err != nil {
			return nil, err
		}
		if row.Fmeter, err = stats.Summarize(*sums[daemon.Fmeter]); err != nil {
			return nil, err
		}
		if row.Baseline.Mean <= 0 {
			return nil, fmt.Errorf("experiments: zero baseline for %s", tt.Display)
		}
		row.FtraceSlowdown = row.Ftrace.Mean / row.Baseline.Mean
		row.FmeterSlowdown = row.Fmeter.Mean / row.Baseline.Mean
		row.FtFmRatio = row.Ftrace.Mean / row.Fmeter.Mean
		fmSum += row.FmeterSlowdown
		ftSum += row.FtraceSlowdown
		res.Rows = append(res.Rows, row)
	}
	res.AvgFmeterSlowdown = fmSum / float64(len(res.Rows))
	res.AvgFtraceSlowdown = ftSum / float64(len(res.Rows))
	return res, nil
}

// Render prints the table in the paper's layout.
func (r *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 1: LMbench latencies (µs), vanilla vs Ftrace vs Fmeter\n")
	widths := []int{30, 18, 20, 18, 8, 8, 7}
	renderRow(&b, widths, "Test", "Baseline", "Ftrace", "Fmeter", "FtSlow", "FmSlow", "Ratio")
	for _, row := range r.Rows {
		renderRow(&b, widths,
			row.Test,
			row.Baseline.String(),
			row.Ftrace.String(),
			row.Fmeter.String(),
			fmt.Sprintf("%.3f", row.FtraceSlowdown),
			fmt.Sprintf("%.3f", row.FmeterSlowdown),
			fmt.Sprintf("%.3f", row.FtFmRatio),
		)
	}
	fmt.Fprintf(&b, "average slowdown: fmeter %.2fx, ftrace %.2fx (paper: 1.4x, 6.69x)\n",
		r.AvgFmeterSlowdown, r.AvgFtraceSlowdown)
	return b.String()
}
