package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig1Result is the boot-time rank/count curve of Figure 1: kernel
// function call counts during boot-up, sorted by rank, following a
// power law.
type Fig1Result struct {
	// Counts is the invocation count per rank (rank = index + 1),
	// descending.
	Counts []float64
	// Functions is the number of functions with non-zero counts.
	Functions int
	// TotalCalls is the total invocations during the boot phase.
	TotalCalls float64
	// Fit is the least-squares power-law fit in log-log space.
	Fit stats.PowerLawFit
}

// RunFig1 boots a simulated machine under the Fmeter tracer and collects
// the full-table invocation counts of the boot phase.
func RunFig1(seed int64) (*Fig1Result, error) {
	sys, err := daemon.Boot(daemon.Fmeter, seed)
	if err != nil {
		return nil, err
	}
	run, err := workload.NewRunner(sys.Eng, workload.Boot(), seed+1)
	if err != nil {
		return nil, err
	}
	if _, err := run.RunInterval(2 * time.Second); err != nil {
		return nil, err
	}
	snap := sys.Fm.Snapshot()
	counts := make([]float64, 0, len(snap))
	var total float64
	for _, c := range snap {
		if c > 0 {
			counts = append(counts, float64(c))
			total += float64(c)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(counts)))
	fit, err := stats.FitPowerLaw(counts)
	if err != nil {
		return nil, err
	}
	return &Fig1Result{
		Counts:     counts,
		Functions:  len(counts),
		TotalCalls: total,
		Fit:        fit,
	}, nil
}

// Render prints a log-log summary of the curve: counts at decade ranks,
// like reading points off Figure 1's axes.
func (r *Fig1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: kernel function call count during boot-up\n")
	fmt.Fprintf(&b, "functions invoked: %d, total calls: %.0f\n", r.Functions, r.TotalCalls)
	fmt.Fprintf(&b, "power-law fit: count ~ rank^-%.3f (R^2 = %.4f)\n", r.Fit.Alpha, r.Fit.R2)
	fmt.Fprintf(&b, "%-12s %s\n", "rank", "call count")
	for _, rank := range []int{1, 10, 100, 1000, len(r.Counts)} {
		if rank <= len(r.Counts) {
			fmt.Fprintf(&b, "%-12d %.0f\n", rank, r.Counts[rank-1])
		}
	}
	return b.String()
}
