package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestRunSingleExperiment(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-run", "fig1"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "power-law fit") {
		t.Errorf("fig1 report missing: %q", out.String())
	}
	if !strings.Contains(errBuf.String(), "fig1 done in") {
		t.Errorf("progress line missing: %q", errBuf.String())
	}
}

func TestRunWritesReportsToDir(t *testing.T) {
	dir := t.TempDir()
	var out, errBuf bytes.Buffer
	if err := run([]string{"-run", "table2,table3", "-out", dir}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table2.txt", "table3.txt"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

func TestRunMLAtSmallScale(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-run", "table4,fig4", "-perclass", "12"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Table 4") || !strings.Contains(s, "dbench(+1), kcompile(-1)") {
		t.Errorf("table4 report missing: %q", s)
	}
	if !strings.Contains(s, "Figure 4") {
		t.Errorf("fig4 report missing")
	}
	// The shared corpus is collected once for both experiments.
	if strings.Count(errBuf.String(), "collecting 12 signatures per workload class") != 1 {
		t.Errorf("corpus should be collected exactly once: %q", errBuf.String())
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-run", "table9"}, &out, &errBuf); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestCapSizes(t *testing.T) {
	p := experiments.DefaultFig5Params()
	capSizes(&p, 80)
	for _, n := range p.SampleSizes {
		if n > 80 {
			t.Errorf("size %d exceeds corpus", n)
		}
	}
	if len(p.SampleSizes) == 0 {
		t.Error("capSizes emptied the sweep")
	}
	q := experiments.ClusterParams{SampleSizes: []int{500}}
	capSizes(&q, 40)
	if len(q.SampleSizes) != 1 || q.SampleSizes[0] != 40 {
		t.Errorf("fallback size = %v", q.SampleSizes)
	}
}
