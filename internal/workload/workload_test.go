package workload

import (
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/trace"
)

func newEngineWithFmeter(t testing.TB, cpus int, seed int64) (*kernel.Engine, *trace.Fmeter) {
	t.Helper()
	st := kernel.NewSymbolTable()
	cat, err := kernel.NewCatalog(st)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := trace.NewFmeter(st, cpus)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kernel.NewEngine(cat, kernel.EngineConfig{
		NumCPU: cpus, Backend: fm, Seed: seed, CountJitter: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, fm
}

func TestNewRunnerValidation(t *testing.T) {
	eng, _ := newEngineWithFmeter(t, 4, 1)
	if _, err := NewRunner(nil, Kcompile(4), 1); err == nil {
		t.Error("nil engine should fail")
	}
	if _, err := NewRunner(eng, Spec{}, 1); err == nil {
		t.Error("unnamed spec should fail")
	}
	if _, err := NewRunner(eng, Spec{Name: "x"}, 1); err == nil {
		t.Error("empty mix should fail")
	}
	if _, err := NewRunner(eng, Spec{Name: "x", Ops: []OpRate{{Op: "nope", PerSec: 1}}}, 1); err == nil {
		t.Error("unknown op should fail")
	}
	if _, err := NewRunner(eng, Spec{Name: "x", Ops: []OpRate{{Op: kernel.OpSimpleRead, PerSec: 0}}}, 1); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := NewRunner(eng, Spec{Name: "x", Ops: []OpRate{{Op: kernel.OpSimpleRead, PerSec: 1, Jitter: -1}}}, 1); err == nil {
		t.Error("negative jitter should fail")
	}
	if _, err := NewRunner(eng, Spec{Name: "x", Ops: []OpRate{{Module: "ghost", Op: "rx", PerSec: 1}}}, 1); err == nil {
		t.Error("unknown module should fail")
	}
}

func TestRunIntervalProducesCounts(t *testing.T) {
	eng, fm := newEngineWithFmeter(t, 16, 7)
	r, err := NewRunner(eng, Scp(16), 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInterval(0); err == nil {
		t.Error("zero interval should fail")
	}
	kt, err := r.RunInterval(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if kt <= 0 {
		t.Error("interval consumed no kernel time")
	}
	snap := fm.Snapshot()
	nonzero := 0
	for _, c := range snap {
		if c > 0 {
			nonzero++
		}
	}
	if nonzero < 50 {
		t.Errorf("only %d functions invoked; mix too narrow", nonzero)
	}
}

func TestIntervalsDifferButResemble(t *testing.T) {
	eng, fm := newEngineWithFmeter(t, 16, 3)
	r, err := NewRunner(eng, Dbench(16), 5)
	if err != nil {
		t.Fatal(err)
	}
	var prev []uint64
	intervals := make([][]uint64, 0, 3)
	for i := 0; i < 3; i++ {
		before := fm.Snapshot()
		if _, err := r.RunInterval(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		after := fm.Snapshot()
		diff := make([]uint64, len(after))
		for j := range after {
			diff[j] = after[j] - before[j]
		}
		intervals = append(intervals, diff)
		prev = diff
	}
	_ = prev
	// Distinct: intervals are not bit-identical.
	same := true
	for j := range intervals[0] {
		if intervals[0][j] != intervals[1][j] {
			same = false
			break
		}
	}
	if same {
		t.Error("consecutive intervals identical; noise model inert")
	}
	// Similar: totals within a factor of 2.
	tot := func(v []uint64) (s float64) {
		for _, c := range v {
			s += float64(c)
		}
		return s
	}
	if r := tot(intervals[0]) / tot(intervals[1]); r < 0.5 || r > 2 {
		t.Errorf("interval totals diverge wildly: ratio %v", r)
	}
}

func TestWorkloadsAreDistinguishableInRawCounts(t *testing.T) {
	// The three classification workloads must differ grossly in their raw
	// footprints; fine separation is the ML evaluation's job.
	collect := func(spec Spec, seed int64) []uint64 {
		eng, fm := newEngineWithFmeter(t, 16, seed)
		r, err := NewRunner(eng, spec, seed+100)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunInterval(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		return fm.Snapshot()
	}
	st := kernel.NewSymbolTable()
	lookup := func(name string) kernel.FuncID {
		t.Helper()
		id, err := st.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	scp := collect(Scp(16), 1)
	kc := collect(Kcompile(16), 2)
	db := collect(Dbench(16), 3)

	crypto := lookup("crypto_aes_encrypt_op")
	journal := lookup("journal_dirty_metadata")
	fault := lookup("handle_mm_fault")

	if scp[crypto] == 0 || scp[crypto] < db[crypto]*10 {
		t.Errorf("scp should dominate crypto calls: scp=%d dbench=%d", scp[crypto], db[crypto])
	}
	if db[journal] < scp[journal]*5 {
		t.Errorf("dbench should dominate journal calls: dbench=%d scp=%d", db[journal], scp[journal])
	}
	if kc[fault] < scp[fault]*5 {
		t.Errorf("kcompile should dominate page faults: kcompile=%d scp=%d", kc[fault], scp[fault])
	}
}

func TestBackgroundIncludedEverywhere(t *testing.T) {
	for _, spec := range []Spec{Kcompile(16), Scp(16), Dbench(16), Apachebench(16)} {
		found := false
		for _, or := range spec.Ops {
			if or.Op == kernel.OpDaemonLog {
				found = true
			}
		}
		if !found {
			t.Errorf("workload %s lacks daemon-logging background (§5 interference)", spec.Name)
		}
	}
}

func TestBackgroundLogRate(t *testing.T) {
	bg := Background(4, 2)
	var logRate float64
	for _, or := range bg {
		if or.Op == kernel.OpDaemonLog {
			logRate = or.PerSec
		}
	}
	if logRate != 0.5 {
		t.Errorf("log rate for 2s interval = %v, want 0.5", logRate)
	}
	bg = Background(4, 0)
	for _, or := range bg {
		if or.Op == kernel.OpDaemonLog && or.PerSec != 0.1 {
			t.Errorf("default log rate = %v, want 0.1", or.PerSec)
		}
	}
}

func TestBootTouchesWholeTable(t *testing.T) {
	eng, fm := newEngineWithFmeter(t, 16, 42)
	r, err := NewRunner(eng, Boot(), 43)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInterval(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap := fm.Snapshot()
	zero := 0
	for _, c := range snap {
		if c == 0 {
			zero++
		}
	}
	if zero > len(snap)/100 {
		t.Errorf("%d of %d functions never called during boot", zero, len(snap))
	}
}

func TestLmbenchTableComplete(t *testing.T) {
	tests := LmbenchTests()
	if len(tests) != 23 {
		t.Fatalf("Table 1 has %d rows, want 23", len(tests))
	}
	st := kernel.NewSymbolTable()
	cat, err := kernel.NewCatalog(st)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, tt := range tests {
		if seen[tt.Display] {
			t.Errorf("duplicate row %q", tt.Display)
		}
		seen[tt.Display] = true
		if _, err := cat.Op(tt.Op); err != nil {
			t.Errorf("row %q references unknown op: %v", tt.Display, err)
		}
		if !(tt.PaperBaselineUS < tt.PaperFmeterUS || tt.Display == "Semaphore latency") {
			t.Errorf("row %q: paper fmeter %v should exceed baseline %v", tt.Display, tt.PaperFmeterUS, tt.PaperBaselineUS)
		}
		if tt.PaperFmeterUS >= tt.PaperFtraceUS {
			t.Errorf("row %q: paper fmeter should beat ftrace", tt.Display)
		}
	}
}

func TestRunnerDeterministicGivenSeeds(t *testing.T) {
	run := func() []uint64 {
		eng, fm := newEngineWithFmeter(t, 8, 21)
		r, err := NewRunner(eng, Scp(8), 22)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := r.RunInterval(5 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
		return fm.Snapshot()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("snapshots diverge at fn %d: %d vs %d", i, a[i], b[i])
		}
	}
}
