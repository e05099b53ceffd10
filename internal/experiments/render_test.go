package experiments

import (
	"strings"
	"testing"
	"time"
)

// The Render methods produce the operator-facing reports; these tests pin
// their structure (headers, row counts, paper references).

func TestTable2Render(t *testing.T) {
	res, err := RunTable2(3)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Render()
	for _, want := range []string{"Table 2", "vanilla", "fmeter", "ftrace", "Paper req/s", "14215"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}

func TestTable3Render(t *testing.T) {
	res, err := RunTable3(3)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Render()
	for _, want := range []string{"Table 3", "real", "user", "sys", "paper sys", "fmeter"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
	// time(1)-style duration formatting.
	if !strings.Contains(s, "m") || !strings.Contains(s, "s") {
		t.Error("durations not formatted like time(1)")
	}
}

func TestTable5Render(t *testing.T) {
	p := quickMLParams()
	set, err := CollectDriverSignatures(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTable5(set, p)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Render()
	for _, want := range []string{"Table 5", "myri10ge 1.4.3", "LRO disabled", "Precision"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}

func TestFigRenders(t *testing.T) {
	data := getQuickData(t)
	cp := quickClusterParams()
	f5, err := RunFig5(data.Set, cp)
	if err != nil {
		t.Fatal(err)
	}
	if s := f5.Render(); !strings.Contains(s, "Figure 5") || !strings.Contains(s, "scp, kcompile, dbench") {
		t.Errorf("fig5 render:\n%s", s)
	}
	f6, err := RunFig6(data.Set, cp)
	if err != nil {
		t.Fatal(err)
	}
	if s := f6.Render(); !strings.Contains(s, "Figure 6") || !strings.Contains(s, "K=2") {
		t.Errorf("fig6 render:\n%s", s)
	}
}

func TestAblationRenders(t *testing.T) {
	a1, err := RunAblationCounters(2)
	if err != nil {
		t.Fatal(err)
	}
	if s := a1.Render(); !strings.Contains(s, "kprobes breakpoints") {
		t.Errorf("a1 render:\n%s", s)
	}
	a2, err := RunAblationHotCache(2, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if s := a2.Render(); !strings.Contains(s, "HitRate") {
		t.Errorf("a2 render:\n%s", s)
	}
	data := getQuickData(t)
	a3, err := RunAblationWeighting(data, quickMLParams())
	if err != nil {
		t.Fatal(err)
	}
	if s := a3.Render(); !strings.Contains(s, "tf-idf (paper)") {
		t.Errorf("a3 render:\n%s", s)
	}
	a4, err := RunAblationRings(1000, 64, 500)
	if err != nil {
		t.Fatal(err)
	}
	if s := a4.Render(); !strings.Contains(s, "locked (overwrite)") {
		t.Errorf("a4 render:\n%s", s)
	}
	a5, err := RunAblationInterval(10, 5, 2, []time.Duration{2 * time.Second, 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if s := a5.Render(); !strings.Contains(s, "transfer") {
		t.Errorf("a5 render:\n%s", s)
	}
}
