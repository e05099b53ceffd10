package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every workload, untraced and traced, in the short shape: each named
// metric must come out present, finite and unit-tagged on the result
// line, nothing may fail, and the traced run must leave its span file.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	out := t.TempDir()
	rec := filepath.Join(out, "runs.jsonl")
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var stdout bytes.Buffer
			args := []string{"-workload", w.name, "-short", "-seconds", "0.3", "-trace", []string{"0", "1"}[trace], "-outdir", out, "-record", rec}
			if err := run(args, &stdout, io.Discard); err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result: %v", w.name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics on the result line, want %d", w.name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: %s missing", w.name, trace, d.Name)
				case m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%d: %s = %v %q, want a finite value in %q", w.name, trace, d.Name, m.Value, m.Unit, d.Unit)
				case trace == 0 && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, m.Value)
				}
			}
			if m := line.Metrics["recall_at_k"]; trace == 0 && m.Value != 1 {
				t.Errorf("%s: recall_at_k = %v, want 1", w.name, m.Value)
			}
		}
		if fi, err := os.Stat(filepath.Join(out, "trace-"+w.name+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "tmp-") {
			t.Errorf("scratch directory %s left behind", e.Name())
		}
	}

	// A set of runs compared with itself is within every bound.
	var cmp bytes.Buffer
	if err := run([]string{"-compare", "-benchmark-json", "../BENCHMARK.json", rec, rec}, &cmp, io.Discard); err != nil {
		t.Errorf("comparing a record with itself: %v\n%s", err, cmp.String())
	}
	if strings.Contains(cmp.String(), "worse") || strings.Contains(cmp.String(), "better") {
		t.Errorf("comparing a record with itself:\n%s", cmp.String())
	}
}

// BENCHMARK.json is generated from spec.go; this keeps the two equal and
// checks the contract's limits on names, units and counts.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeBenchmarkJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Errorf("../BENCHMARK.json differs from -print-benchmark-json; regenerate it")
	}
	spec := benchmarkSpec()
	names := make(map[string]bool)
	check := func(name, unit string) {
		if names[name] {
			t.Errorf("name %q used twice", name)
		}
		names[name] = true
		if len(name) > 64 || len(unit) > 16 {
			t.Errorf("%q (%q) exceeds the length limits", name, unit)
		}
	}
	for _, w := range spec.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside [0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
}

// README.md is where each metric is defined and where a per-layer metric
// names the end-to-end metric it should move, so it must know them all.
func TestReadmeNamesEveryWorkloadAndMetric(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.name+"`") {
			t.Errorf("README.md does not mention workload %s", w.name)
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !strings.Contains(readme, "`"+d.Name+"`") {
				t.Errorf("README.md does not mention metric %s", d.Name)
			}
		}
	}
}
