// Command bench is the repository's end-to-end benchmark: one seeded
// pipeline (simulated kernel → daemon → tf-idf → store → HTTP service →
// snapshot directory → reopen) run as four workloads that each stress
// another stage. See README.md and ../BENCHMARK.json.
//
//	go run . -workload wire_small -seed 1 -seconds 10 -trace 0
//	go run .                                # every workload, untraced then traced
//	go run . -compare a.jsonl b.jsonl       # two recorded sets of runs against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metricValue is one reported metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a resultLine with the run it came from, as -record appends
// it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	resultLine
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run; empty runs all four, untraced then traced")
		seed      = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds   = fs.Float64("seconds", 10, "length of the measured phase")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics; 1: the traced run, per-layer metrics and out/trace-<workload>.jsonl")
		short     = fs.Bool("short", false, "test shape: 1/50 of the signatures and a handful of repetitions")
		outDir    = fs.String("outdir", "out", "directory for trace files and scratch snapshots")
		recordTo  = fs.String("record", "", "append each run's result to this JSON Lines file, for -compare")
		compare   = fs.Bool("compare", false, "compare two -record files (arguments) against the bounds in BENCHMARK.json; exit 1 on any worse")
		benchJSON = fs.String("benchmark-json", "../BENCHMARK.json", "with -compare: where the bounds are")
		printSpec = fs.Bool("print-benchmark-json", false, "print BENCHMARK.json as this program defines it and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *printSpec:
		return writeBenchmarkJSON(stdout)
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two files, have %d arguments", fs.NArg())
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), *benchJSON, stdout)
	case fs.NArg() != 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, have %d", *trace)
	case !(*seconds > 0):
		return fmt.Errorf("-seconds must be positive, have %v", *seconds)
	}

	type job struct {
		w     workload
		trace int
	}
	var jobs []job
	if *name == "" {
		for _, tr := range []int{0, 1} {
			for _, w := range workloads {
				jobs = append(jobs, job{w, tr})
			}
		}
	} else {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		jobs = []job{{w, *trace}}
	}

	for _, j := range jobs {
		cfg := config{w: j.w, seed: *seed, seconds: *seconds, trace: j.trace == 1, short: *short, outDir: *outDir}
		res, err := runWorkload(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", j.w.name, err)
		}
		for _, p := range res.problems {
			fmt.Fprintf(stderr, "bench: %s: %s\n", j.w.name, p)
		}
		line, err := report(stdout, cfg, res)
		if err != nil {
			return fmt.Errorf("%s: %w", j.w.name, err)
		}
		if *recordTo != "" {
			if err := appendRecord(*recordTo, record{Workload: j.w.name, Seed: *seed, Trace: j.trace, resultLine: line}); err != nil {
				return err
			}
		}
	}
	return nil
}

// report prints every metric the run measured, by name with its unit,
// and then the result line: the end-to-end metrics of an untraced run,
// the per-layer metrics of a traced one. A metric of that list the run
// did not produce, or produced as NaN or Inf, is an error.
func report(w io.Writer, cfg config, res *result) (resultLine, error) {
	kind, defs := "end to end", endToEnd
	if cfg.trace {
		kind, defs = "per layer", perLayer
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g procs=%d: %s; %d operations attempted, %d failed\n",
		cfg.w.name, cfg.seed, cfg.seconds, procs(), kind, res.attempted, res.failed)
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := res.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return line, fmt.Errorf("metric %s: no finite value (have %v, measured %v)", d.Name, v, ok)
		}
		fmt.Fprintf(w, "%-36s %14.6g %s\n", d.Name, v, d.Unit)
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if !cfg.trace { // what else the untraced run happened to measure, for the reader
		for _, d := range perLayer {
			if v, ok := res.values[d.Name]; ok {
				fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, v, d.Unit)
			}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return line, err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return line, err
}

func appendRecord(path string, rec record) (err error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return json.NewEncoder(f).Encode(rec)
}
