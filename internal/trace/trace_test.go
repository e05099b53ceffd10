package trace

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/debugfs"
	"repro/internal/kernel"
	"repro/internal/ringbuf"
)

func newEngine(t testing.TB, b kernel.Backend, cpus int) *kernel.Engine {
	t.Helper()
	cat, err := kernel.NewCatalog(kernel.NewSymbolTable())
	if err != nil {
		t.Fatal(err)
	}
	e, err := kernel.NewEngine(cat, kernel.EngineConfig{NumCPU: cpus, Backend: b, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFmeterCountsMatchEngine(t *testing.T) {
	st := kernel.NewSymbolTable()
	fm, err := NewFmeter(st, 8)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, fm, 8)
	if _, err := e.ExecOpName(kernel.OpSimpleRead, 500); err != nil {
		t.Fatal(err)
	}
	snap := fm.Snapshot()
	var total uint64
	nonzero := 0
	for _, c := range snap {
		total += c
		if c > 0 {
			nonzero++
		}
	}
	if total != e.TotalCalls() {
		t.Errorf("snapshot total %d != engine calls %d", total, e.TotalCalls())
	}
	if nonzero == 0 {
		t.Error("no functions counted")
	}
}

func TestFmeterResetZeroesCounters(t *testing.T) {
	st := kernel.NewSymbolTable()
	fm, err := NewFmeter(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	fm.OnCalls(0, 5, 10)
	fm.Reset()
	if got := fm.Snapshot()[5]; got != 0 {
		t.Errorf("count after reset = %d", got)
	}
}

func TestFmeterIgnoresOutOfRange(t *testing.T) {
	st := kernel.NewSymbolTable()
	fm, err := NewFmeter(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	fm.OnCalls(0, -1, 5)
	fm.OnCalls(0, kernel.FuncID(st.Len()), 5)
	for _, c := range fm.Snapshot() {
		if c != 0 {
			t.Fatal("out-of-range call leaked into counters")
		}
	}
}

func TestMarshalUnmarshalCountersRoundTrip(t *testing.T) {
	st := kernel.NewSymbolTable()
	fm, err := NewFmeter(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	fm.OnCalls(0, 3, 7)
	fm.OnCalls(1, 3, 2)
	fm.OnCalls(2, 100, 1)
	data, err := MarshalCounters(st, fm.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalCounters(st, data)
	if err != nil {
		t.Fatal(err)
	}
	if back[3] != 9 || back[100] != 1 {
		t.Errorf("round trip lost counts: %d %d", back[3], back[100])
	}
	var total uint64
	for _, c := range back {
		total += c
	}
	if total != 10 {
		t.Errorf("round trip total = %d", total)
	}
}

func TestUnmarshalCountersErrors(t *testing.T) {
	st := kernel.NewSymbolTable()
	for _, bad := range []string{
		"justonefield\n",
		"zzzz 5\n",             // bad hex
		"ffffffff81000000 x\n", // bad count
		"1234 5\n",             // unknown address
	} {
		if _, err := UnmarshalCounters(st, []byte(bad)); err == nil {
			t.Errorf("UnmarshalCounters(%q) should fail", bad)
		}
	}
	if _, err := MarshalCounters(st, make([]uint64, 3)); err == nil {
		t.Error("MarshalCounters with wrong snapshot length should fail")
	}
}

// FuzzUnmarshalCounters feeds arbitrary bytes to the counter-export
// parser: it returns an error or a count vector of the symbol table's
// length, never panics, and a vector it returns re-marshals and
// re-parses to itself. The seeds are MarshalCounters output and the
// refusals of TestUnmarshalCountersErrors.
func FuzzUnmarshalCounters(f *testing.F) {
	st := kernel.NewSymbolTable()
	fm, err := NewFmeter(st, 2)
	if err != nil {
		f.Fatal(err)
	}
	fm.OnCalls(0, 3, 7)
	fm.OnCalls(1, 100, 1)
	fm.OnCalls(1, kernel.FuncID(st.Len()-1), 1<<40)
	seed, err := MarshalCounters(st, fm.Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(""))
	for _, bad := range []string{"justonefield\n", "zzzz 5\n", "ffffffff81000000 x\n", "1234 5\n"} {
		f.Add([]byte(bad))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		counts, err := UnmarshalCounters(st, data)
		if err != nil {
			return
		}
		if len(counts) != st.Len() {
			t.Fatalf("parsed %d counts, the table holds %d functions", len(counts), st.Len())
		}
		again, err := MarshalCounters(st, counts)
		if err != nil {
			t.Fatalf("re-marshalling a parsed vector: %v", err)
		}
		back, err := UnmarshalCounters(st, again)
		if err != nil {
			t.Fatalf("re-parsing %q: %v", again, err)
		}
		if !slices.Equal(back, counts) {
			t.Fatal("the re-marshalled vector parses to different counts")
		}
	})
}

func TestFmeterDebugfs(t *testing.T) {
	st := kernel.NewSymbolTable()
	fm, err := NewFmeter(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs := debugfs.New()
	if err := fm.RegisterDebugfs(fs); err != nil {
		t.Fatal(err)
	}
	fm.OnCalls(0, 7, 3)
	data, err := fs.ReadFile(CountersPath)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := UnmarshalCounters(st, data)
	if err != nil {
		t.Fatal(err)
	}
	if counts[7] != 3 {
		t.Errorf("debugfs counts[7] = %d", counts[7])
	}
	if err := fs.WriteFile(ResetPath, []byte("1")); err != nil {
		t.Fatal(err)
	}
	if got := fm.Snapshot()[7]; got != 0 {
		t.Errorf("after debugfs reset, count = %d", got)
	}
}

func TestFtraceRecordsAndOverhead(t *testing.T) {
	st := kernel.NewSymbolTable()
	ft, err := NewFtrace(st, 4, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	// Per-call cost grows with CPU count and exceeds Fmeter's by a large
	// factor (the paper's core performance claim).
	fm, err := NewFmeter(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	ftCost := ft.PerCallOverheadNS(0, 0)
	fmCost := fm.PerCallOverheadNS(0, 0)
	if ftCost/fmCost < 8 {
		t.Errorf("ftrace/fmeter per-call ratio = %v, want >= 8", ftCost/fmCost)
	}
	ft.OnCalls(1, 5, 10)
	n := 0
	ft.Drain(func(cpu int, rec ringbuf.Record) {
		if rec.FnAddr == 0 {
			t.Error("record missing function address")
		}
		n++
	})
	if n != 10 {
		t.Errorf("drained %d records, want 10", n)
	}
}

// A batch of n calls materializes at most maxMaterializedPerBatch
// records; the rest are charged for but not written.
func TestFtraceSyntheticAccounting(t *testing.T) {
	st := kernel.NewSymbolTable()
	ft, err := NewFtrace(st, 1, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	ft.OnCalls(0, 5, n)
	if w := ft.rings[0].Stats().Writes; w != maxMaterializedPerBatch {
		t.Errorf("materialized %d, want %d", w, maxMaterializedPerBatch)
	}
}

func TestFtraceDebugfsDrains(t *testing.T) {
	st := kernel.NewSymbolTable()
	ft, err := NewFtrace(st, 2, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	fs := debugfs.New()
	if err := ft.RegisterDebugfs(fs); err != nil {
		t.Fatal(err)
	}
	ft.OnCalls(0, 3, 5)
	data, err := fs.ReadFile(TracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines != 5 {
		t.Errorf("trace lines = %d, want 5", lines)
	}
	// Reading again: buffer drained, empty.
	data, err = fs.ReadFile(TracePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Errorf("second read returned %d bytes", len(data))
	}
}

func TestFtraceValidation(t *testing.T) {
	st := kernel.NewSymbolTable()
	if _, err := NewFtrace(nil, 1, 0); err == nil {
		t.Error("nil table should fail")
	}
	if _, err := NewFtrace(st, 0, 0); err == nil {
		t.Error("0 CPUs should fail")
	}
	if _, err := NewFmeter(nil, 1); err == nil {
		t.Error("nil table should fail")
	}
	if _, err := NewSharedAtomic(nil, 1); err == nil {
		t.Error("nil table should fail")
	}
	if _, err := NewSharedAtomic(st, 0); err == nil {
		t.Error("0 CPUs should fail")
	}
}

func TestSharedAtomicCostsMoreThanPerCPU(t *testing.T) {
	st := kernel.NewSymbolTable()
	sa, err := NewSharedAtomic(st, 16)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := NewFmeter(st, 16)
	if err != nil {
		t.Fatal(err)
	}
	if sa.PerCallOverheadNS(0, 0) <= fm.PerCallOverheadNS(0, 0) {
		t.Error("shared atomic counters should cost more than per-CPU slots at 16 CPUs")
	}
}

func TestHotCacheFmeter(t *testing.T) {
	st := kernel.NewSymbolTable()
	hot := []kernel.FuncID{1, 2, 3}
	h, err := NewHotCacheFmeter(st, 4, hot)
	if err != nil {
		t.Fatal(err)
	}
	if h.PerCallOverheadNS(0, 1) >= h.PerCallOverheadNS(0, 50) {
		t.Error("hot function should be cheaper than cold")
	}
	// Hot hit is cheaper than the flat stub; miss is slightly dearer.
	if h.PerCallOverheadNS(0, 1) >= FmeterStubNS {
		t.Error("hot hit should undercut the flat stub cost")
	}
	if h.PerCallOverheadNS(0, 50) <= FmeterStubNS {
		t.Error("miss should exceed the flat stub cost")
	}
	h.OnCalls(0, 1, 30)
	h.OnCalls(0, 50, 70)
	if got := h.HitRate(); got != 0.3 {
		t.Errorf("hit rate = %v, want 0.3", got)
	}
	if got := h.Snapshot()[1]; got != 30 {
		t.Errorf("hot count = %d", got)
	}
	if _, err := NewHotCacheFmeter(st, 4, []kernel.FuncID{-5}); err == nil {
		t.Error("out-of-range hot set should fail")
	}
}

func TestHotCacheEmptyHitRate(t *testing.T) {
	st := kernel.NewSymbolTable()
	h, err := NewHotCacheFmeter(st, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.HitRate() != 0 {
		t.Error("hit rate with no calls should be 0")
	}
}

func BenchmarkFmeterOnCalls(b *testing.B) {
	st := kernel.NewSymbolTable()
	fm, err := NewFmeter(st, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fm.OnCalls(i&15, kernel.FuncID(i%3815), 1)
	}
}

func BenchmarkFtraceOnCalls(b *testing.B) {
	st := kernel.NewSymbolTable()
	ft, err := NewFtrace(st, 16, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.OnCalls(i&15, kernel.FuncID(i%3815), 1)
	}
}
