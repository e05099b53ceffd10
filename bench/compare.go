package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []boundedJSON  `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 10

// benchmarkSpec renders this program's workloads and metrics as
// BENCHMARK.json.
func benchmarkSpec() benchmarkJSON {
	spec := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, boundedJSON{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layerJSON{d.Name, d.Unit, d.Better})
	}
	return spec
}

func writeBenchmarkJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(benchmarkSpec())
}

// readRecords groups a -record file's untraced runs by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byWorkload := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if rec.Trace == 0 {
			byWorkload[rec.Workload] = append(byWorkload[rec.Workload], rec)
		}
	}
	return byWorkload, sc.Err()
}

// verdict places b against a: "worse" or "better" when the median moved
// by more than bound in that direction, else "within".
func verdict(a, b, bound float64, better string) (change float64, word string) {
	if a == 0 {
		return 0, "within"
	}
	change = (b - a) / a
	gain := -change
	if better == "higher" {
		gain = change
	}
	switch {
	case gain < -bound:
		return change, "worse"
	case gain > bound:
		return change, "better"
	}
	return change, "within"
}

// compareFiles prints, per workload and end-to-end metric, the median of
// each side's runs, the relative change from a to b, and the verdict
// against the metric's bound. It returns an error if any verdict is
// worse, or if b has runs that failed operations.
func compareFiles(aPath, bPath, specPath string, w io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readRecords(aPath)
	if err != nil {
		return err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return err
	}
	medianOf := func(recs []record, metric string) (float64, bool) {
		var xs []float64
		for _, r := range recs {
			if m, ok := r.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
		return median(xs), len(xs) > 0
	}
	worse := 0
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "change", "bound", "verdict")
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-16s no untraced runs on both sides (a: %d, b: %d)\n", wl.Name, len(ra), len(rb))
			continue
		}
		for _, r := range rb {
			if !r.Correct {
				fmt.Fprintf(w, "%-16s seed %d: %d of %d operations failed\n", wl.Name, r.Seed, r.Failed, r.Attempted)
				worse++
			}
		}
		for _, m := range spec.EndToEnd {
			va, okA := medianOf(ra, m.Name)
			vb, okB := medianOf(rb, m.Name)
			if !okA || !okB {
				continue
			}
			change, word := verdict(va, vb, m.Bound, m.Better)
			if word == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-16s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", wl.Name, m.Name, va, vb, 100*change, 100*m.Bound, word)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d comparisons worse than their bound", worse)
	}
	return nil
}
