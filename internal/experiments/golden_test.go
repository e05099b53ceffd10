package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateReports = flag.Bool("update", false, "rewrite testdata/quick_reports.golden from the current learners")

// renderer is what every experiment result has in common.
type renderer interface{ Render() string }

// TestQuickReportsGolden freezes the rendered reports — Figure 1, Tables
// 2–5, Figures 4–6 and the weighting ablation — at the quick parameters
// and seed 1. Figure 1 and Tables 2 and 3 boot the simulated machine
// under all three tracers; the rest exercise the learners. Everything is
// deterministic, so a change to the machine boot, the SVM, K-means,
// hierarchical clustering or cross-validation code that moves one byte of
// a paper-facing report fails here; a deliberate change reruns with
// -update and shows up in the diff. Table 1 is left out: it takes
// seconds.
func TestQuickReportsGolden(t *testing.T) {
	data := getQuickData(t)
	mlp := quickMLParams()
	cp := quickClusterParams()
	reports := []struct {
		name string
		run  func() (renderer, error)
	}{
		{"fig1", func() (renderer, error) { return RunFig1(1) }},
		{"table2", func() (renderer, error) { return RunTable2(1) }},
		{"table3", func() (renderer, error) { return RunTable3(1) }},
		{"table4", func() (renderer, error) { return RunTable4(data.Set, mlp) }},
		{"table5", func() (renderer, error) {
			set, err := CollectDriverSignatures(mlp)
			if err != nil {
				return nil, err
			}
			return RunTable5(set, mlp)
		}},
		{"fig4", func() (renderer, error) { return RunFig4(data.Set, "scp", "kcompile", 1) }},
		{"fig5", func() (renderer, error) { return RunFig5(data.Set, cp) }},
		{"fig6", func() (renderer, error) { return RunFig6(data.Set, cp) }},
		{"weighting", func() (renderer, error) { return RunAblationWeighting(data, mlp) }},
	}
	var b strings.Builder
	for _, r := range reports {
		res, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		b.WriteString("== " + r.name + " ==\n" + res.Render() + "\n")
	}
	got := b.String()

	golden := filepath.Join("testdata", "quick_reports.golden")
	if *updateReports {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("reports differ from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update only if the change is deliberate)", golden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("reports differ from %s in length: %d lines, want %d", golden, len(gl), len(wl))
}
