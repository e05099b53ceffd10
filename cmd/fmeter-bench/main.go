// Command fmeter-bench regenerates the paper's tables and figures at
// paper scale and writes the rendered reports.
//
// Usage:
//
//	fmeter-bench -run all
//	fmeter-bench -run table1,table4 -out reports/
//	fmeter-bench -run table4 -perclass 250
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fmeter-bench:", err)
		os.Exit(1)
	}
}

// experimentNames in canonical order.
var experimentNames = []string{
	"fig1", "table1", "table2", "table3", "table4", "table5",
	"fig4", "fig5", "fig6", "ablations",
}

//fmeter:nondeterministic-ok bench harness: wall-clock timing and run timestamps are the product
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fmeter-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runList    = fs.String("run", "all", "comma-separated experiments: "+strings.Join(experimentNames, ",")+" or all")
		outDir     = fs.String("out", "", "also write each report to <out>/<name>.txt")
		perClass   = fs.Int("perclass", 250, "signatures per class for the learning experiments (paper: ~250)")
		seed       = fs.Int64("seed", 1, "random seed")
		workers    = fs.Int("workers", 0, "worker-pool bound for parallel sweeps (0 = one per CPU, <0 = sequential; results are identical at any setting)")
		benchJSON  = fs.String("benchjson", "", "write per-experiment wall-clock seconds to this JSON file (perf trajectory for future PRs)")
		pruneJSON  = fs.String("prunejson", "", "run the scale benchmark (synthetic signature ladder up to -scale: TopK latency, pruning counters and segment counts at each rung) and write it to this JSON file, then exit")
		scale      = fs.Int("scale", 1_000_000, "corpus ceiling for -prunejson: the ladder measures at 10k and 100k signatures, then at this count")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(stderr, "fmeter-bench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "fmeter-bench: -memprofile:", err)
			}
		}()
	}
	if *pruneJSON != "" {
		return runPruneBench(*pruneJSON, *scale, stderr)
	}

	selected := make(map[string]bool)
	if *runList == "all" {
		for _, n := range experimentNames {
			selected[n] = true
		}
	} else {
		for _, n := range strings.Split(*runList, ",") {
			n = strings.TrimSpace(n)
			found := false
			for _, known := range experimentNames {
				if n == known {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("unknown experiment %q", n)
			}
			selected[n] = true
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	emit := func(name, report string) error {
		fmt.Fprintln(stdout, report)
		if *outDir == "" {
			return nil
		}
		path := filepath.Join(*outDir, name+".txt")
		return os.WriteFile(path, []byte(report), 0o644)
	}

	mlp := experiments.DefaultMLParams()
	mlp.PerClass = *perClass
	mlp.Seed = *seed
	mlp.Workers = *workers

	// The learning experiments share the workload corpus; collect lazily.
	var data *experiments.WorkloadData
	getData := func() (*experiments.WorkloadData, error) {
		if data == nil {
			fmt.Fprintf(stderr, "collecting %d signatures per workload class...\n", mlp.PerClass)
			d, err := experiments.CollectWorkloadData(mlp)
			if err != nil {
				return nil, err
			}
			data = d
		}
		return data, nil
	}

	type step struct {
		name string
		fn   func() (string, error)
	}
	steps := []step{
		{"fig1", func() (string, error) {
			r, err := experiments.RunFig1(*seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"table1", func() (string, error) {
			r, err := experiments.RunTable1(*seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"table2", func() (string, error) {
			r, err := experiments.RunTable2(*seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"table3", func() (string, error) {
			r, err := experiments.RunTable3(*seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"table4", func() (string, error) {
			d, err := getData()
			if err != nil {
				return "", err
			}
			r, err := experiments.RunTable4(d.Set, mlp)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"table5", func() (string, error) {
			fmt.Fprintf(stderr, "collecting %d signatures per driver variant...\n", mlp.PerClass)
			set, err := experiments.CollectDriverSignatures(mlp)
			if err != nil {
				return "", err
			}
			p := mlp
			p.Folds = 8 // the paper's eight-fold protocol for Table 5
			r, err := experiments.RunTable5(set, p)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fig4", func() (string, error) {
			d, err := getData()
			if err != nil {
				return "", err
			}
			r, err := experiments.RunFig4(d.Set, "scp", "kcompile", *seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fig5", func() (string, error) {
			d, err := getData()
			if err != nil {
				return "", err
			}
			p := experiments.DefaultFig5Params()
			p.Seed = *seed
			p.Workers = *workers
			capSizes(&p, mlp.PerClass)
			r, err := experiments.RunFig5(d.Set, p)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fig6", func() (string, error) {
			d, err := getData()
			if err != nil {
				return "", err
			}
			p := experiments.DefaultFig6Params()
			p.Seed = *seed
			p.Workers = *workers
			capSizes(&p, mlp.PerClass)
			r, err := experiments.RunFig6(d.Set, p)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"ablations", func() (string, error) {
			var b strings.Builder
			a1, err := experiments.RunAblationCounters(*seed)
			if err != nil {
				return "", err
			}
			b.WriteString(a1.Render())
			b.WriteByte('\n')
			a2, err := experiments.RunAblationHotCache(*seed, nil)
			if err != nil {
				return "", err
			}
			b.WriteString(a2.Render())
			b.WriteByte('\n')
			d, err := getData()
			if err != nil {
				return "", err
			}
			a3, err := experiments.RunAblationWeighting(d, mlp)
			if err != nil {
				return "", err
			}
			b.WriteString(a3.Render())
			b.WriteByte('\n')
			a4, err := experiments.RunAblationRings(200000, 1<<12, 1<<14)
			if err != nil {
				return "", err
			}
			b.WriteString(a4.Render())
			b.WriteByte('\n')
			a5, err := experiments.RunAblationInterval(min(mlp.PerClass, 60), mlp.Folds, *seed, nil)
			if err != nil {
				return "", err
			}
			b.WriteString(a5.Render())
			return b.String(), nil
		}},
	}

	elapsed := make(map[string]float64)
	for _, s := range steps {
		if !selected[s.name] {
			continue
		}
		start := time.Now()
		fmt.Fprintf(stderr, "== %s ==\n", s.name)
		report, err := s.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if err := emit(s.name, report); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		d := time.Since(start)
		elapsed[s.name] = d.Seconds()
		fmt.Fprintf(stderr, "%s done in %v\n", s.name, d.Round(time.Millisecond))
	}
	if *benchJSON != "" {
		rec := benchRecord{
			Timestamp:  time.Now().UTC().Format(time.RFC3339),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			Workers:    *workers,
			PerClass:   *perClass,
			Seed:       *seed,
			Seconds:    elapsed,
		}
		// Carry the perf-trajectory history across regenerations.
		if old, err := os.ReadFile(*benchJSON); err == nil {
			var prev benchRecord
			if json.Unmarshal(old, &prev) == nil {
				rec.History = prev.History
			}
		}
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*benchJSON, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wall-clock record written to %s\n", *benchJSON)
	}
	return nil
}

// benchRecord is the perf-trajectory artifact emitted by -benchjson (and
// `make bench-smoke`): per-experiment wall-clock seconds plus the knobs
// that produced them, so future PRs can compare like against like.
type benchRecord struct {
	Timestamp  string             `json:"timestamp"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Workers    int                `json:"workers"`
	PerClass   int                `json:"perclass"`
	Seed       int64              `json:"seed"`
	Seconds    map[string]float64 `json:"seconds"`
	// History holds hand-recorded before/after milestones (e.g. the
	// headline benchmark of a perf PR); it is preserved verbatim when
	// the record is regenerated.
	History []map[string]any `json:"history,omitempty"`
}

// capSizes bounds sample sizes by the collected per-class corpus size.
func capSizes(p *experiments.ClusterParams, perClass int) {
	var sizes []int
	for _, n := range p.SampleSizes {
		if n <= perClass {
			sizes = append(sizes, n)
		}
	}
	if len(sizes) == 0 {
		sizes = []int{perClass}
	}
	p.SampleSizes = sizes
}
