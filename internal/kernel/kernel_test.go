package kernel

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func newTestCatalog(t *testing.T) *Catalog {
	t.Helper()
	cat, err := NewCatalog(NewSymbolTable())
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	return cat
}

// mustOp returns the compiled op for a catalog name.
func mustOp(t *testing.T, cat *Catalog, name string) *Op {
	t.Helper()
	op, err := cat.Op(name)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestSymbolTableSizeMatchesPaper(t *testing.T) {
	st := NewSymbolTable()
	if st.Len() != 3815 {
		t.Errorf("symbol table has %d functions, want 3815 (paper, Fig. 1)", st.Len())
	}
}

func TestSymbolTableDeterministic(t *testing.T) {
	a, b := NewSymbolTable(), NewSymbolTable()
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Symbols() {
		sa, sb := a.Symbols()[i], b.Symbols()[i]
		if sa != sb {
			t.Fatalf("symbol %d differs: %+v vs %+v", i, sa, sb)
		}
	}
}

func TestSymbolTableUniqueNamesAndAddrs(t *testing.T) {
	st := NewSymbolTable()
	names := make(map[string]bool, st.Len())
	addrs := make(map[uint64]bool, st.Len())
	for _, s := range st.Symbols() {
		if names[s.Name] {
			t.Fatalf("duplicate name %q", s.Name)
		}
		if addrs[s.Addr] {
			t.Fatalf("duplicate address %#x", s.Addr)
		}
		names[s.Name] = true
		addrs[s.Addr] = true
	}
}

func TestSymbolLookupRoundTrip(t *testing.T) {
	st := NewSymbolTable()
	for _, s := range st.Symbols()[:100] {
		id, err := st.Lookup(s.Name)
		if err != nil || id != s.ID {
			t.Fatalf("Lookup(%q) = %v, %v; want %v", s.Name, id, err, s.ID)
		}
		aid, err := st.LookupAddr(s.Addr)
		if err != nil || aid != s.ID {
			t.Fatalf("LookupAddr(%#x) = %v, %v", s.Addr, aid, err)
		}
	}
	if _, err := st.Lookup("nonexistent_function"); err == nil {
		t.Error("Lookup of unknown name should fail")
	}
	if _, err := st.LookupAddr(0xdead); err == nil {
		t.Error("LookupAddr of unknown address should fail")
	}
	if _, err := st.Symbol(-1); err == nil {
		t.Error("Symbol(-1) should fail")
	}
	if _, err := st.Symbol(FuncID(st.Len())); err == nil {
		t.Error("Symbol(out of range) should fail")
	}
}

func TestAddressesMonotoneAligned(t *testing.T) {
	st := NewSymbolTable()
	var prev uint64
	for _, s := range st.Symbols() {
		if s.Addr <= prev {
			t.Fatalf("addresses not strictly increasing at %q", s.Name)
		}
		if s.Addr%16 != 0 {
			t.Fatalf("address %#x of %q not 16-byte aligned", s.Addr, s.Name)
		}
		prev = s.Addr
	}
}

func TestCatalogCompilesAllOps(t *testing.T) {
	cat := newTestCatalog(t)
	want := []string{
		OpSimpleSyscall, OpSimpleRead, OpSimpleWrite, OpSimpleStat, OpSimpleFstat,
		OpSimpleOpenClose, OpSelect10, OpSelect10TCP, OpSelect100, OpSelect100TCP,
		OpSignalInstall, OpSignalHandle, OpProtFault, OpPipeLatency, OpAFUnixLatency,
		OpFcntlLock, OpSemaphore, OpForkExit, OpForkExecve, OpForkSh, OpMmapFile,
		OpPageFault, OpUnixConnect, OpHTTPRequest, OpDbenchIO, OpScpChunk,
		OpCompileUnit, OpDiskRead, OpDiskWrite, OpFsyncOp, OpCtxSwitch,
		OpTimerTick, OpBgHousekeep, OpDaemonLog, OpBootPhase, OpTCPTxSegment,
	}
	for _, name := range want {
		op, err := cat.Op(name)
		if err != nil {
			t.Errorf("missing op %s: %v", name, err)
			continue
		}
		if len(op.Funcs) == 0 {
			t.Errorf("op %s has empty profile", name)
		}
		if len(op.Funcs) != len(op.MeanCounts) {
			t.Errorf("op %s: funcs/counts length mismatch", name)
		}
	}
	if _, err := cat.Op("no_such_op"); err == nil {
		t.Error("unknown op should fail")
	}
}

func TestOpMeanCountsSumToTotal(t *testing.T) {
	cat := newTestCatalog(t)
	for _, name := range cat.Names() {
		op := mustOp(t, cat, name)
		var sum float64
		for _, c := range op.MeanCounts {
			sum += c
			if c < 0 {
				t.Errorf("op %s has negative mean count", name)
			}
		}
		// Boot op's floor-at-1 rule inflates its total slightly; its
		// TotalCalls field records the actual sum, so this holds everywhere.
		if math.Abs(sum-op.TotalCalls) > 1e-6*op.TotalCalls {
			t.Errorf("op %s: counts sum %v != TotalCalls %v", name, sum, op.TotalCalls)
		}
	}
}

func TestBootOpCoversWholeTable(t *testing.T) {
	cat := newTestCatalog(t)
	boot := mustOp(t, cat, OpBootPhase)
	if len(boot.Funcs) != cat.SymbolTable().Len() {
		t.Errorf("boot op touches %d functions, want %d", len(boot.Funcs), cat.SymbolTable().Len())
	}
	for i, c := range boot.MeanCounts {
		if c < 1 {
			t.Errorf("boot mean count for %d is %v, want >= 1", boot.Funcs[i], c)
		}
	}
}

// countingBackend records per-function totals for test assertions.
type countingBackend struct {
	counts     map[FuncID]uint64
	perCallNS  float64
	cpusSeen   map[int]bool
	totalCalls uint64
}

func newCountingBackend(perCallNS float64) *countingBackend {
	return &countingBackend{
		counts:    make(map[FuncID]uint64),
		cpusSeen:  make(map[int]bool),
		perCallNS: perCallNS,
	}
}

func (b *countingBackend) Name() string { return "counting" }
func (b *countingBackend) OnCalls(cpu int, fn FuncID, n uint64) {
	b.counts[fn] += n
	b.totalCalls += n
	b.cpusSeen[cpu] = true
}
func (b *countingBackend) PerCallOverheadNS(int, FuncID) float64 { return b.perCallNS }

func TestEngineValidation(t *testing.T) {
	cat := newTestCatalog(t)
	if _, err := NewEngine(nil, EngineConfig{NumCPU: 1}); err == nil {
		t.Error("nil catalog should fail")
	}
	if _, err := NewEngine(cat, EngineConfig{NumCPU: 0}); err == nil {
		t.Error("0 CPUs should fail")
	}
	if _, err := NewEngine(cat, EngineConfig{NumCPU: 1, CountJitter: -1}); err == nil {
		t.Error("negative jitter should fail")
	}
	e, err := NewEngine(cat, EngineConfig{NumCPU: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecOpOn(5, mustOp(t, cat, OpSimpleRead), 1); err == nil {
		t.Error("out-of-range CPU should fail")
	}
	if _, err := e.ExecOpOn(0, nil, 1); err == nil {
		t.Error("nil op should fail")
	}
	if _, err := e.ExecOpOn(0, mustOp(t, cat, OpSimpleRead), -1); err == nil {
		t.Error("negative times should fail")
	}
	if err := e.RecordUser(9, time.Second); err == nil {
		t.Error("RecordUser out-of-range CPU should fail")
	}
}

func TestEngineDeterministicCountsWithoutJitter(t *testing.T) {
	cat := newTestCatalog(t)
	run := func() map[FuncID]uint64 {
		b := newCountingBackend(0)
		e, err := NewEngine(cat, EngineConfig{NumCPU: 4, Backend: b, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.ExecOpName(OpSimpleRead, 1000); err != nil {
			t.Fatal(err)
		}
		return b.counts
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("count maps differ in size: %d vs %d", len(a), len(b))
	}
	for fn, n := range a {
		if b[fn] != n {
			t.Fatalf("counts differ for fn %d: %d vs %d", fn, n, b[fn])
		}
	}
}

func TestEngineTotalsMatchOpSpec(t *testing.T) {
	cat := newTestCatalog(t)
	b := newCountingBackend(0)
	e, err := NewEngine(cat, EngineConfig{NumCPU: 4, Backend: b, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	op := mustOp(t, cat, OpSimpleStat)
	const times = 10000
	if _, err := e.ExecOp(op, times); err != nil {
		t.Fatal(err)
	}
	want := op.TotalCalls * times
	got := float64(b.totalCalls)
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("total calls %v, want ~%v", got, want)
	}
	if e.TotalCalls() != b.totalCalls {
		t.Errorf("engine TotalCalls %d != backend %d", e.TotalCalls(), b.totalCalls)
	}
}

func TestEngineVirtualClock(t *testing.T) {
	cat := newTestCatalog(t)
	const overhead = 40.0
	b := newCountingBackend(overhead)
	e, err := NewEngine(cat, EngineConfig{NumCPU: 1, Backend: b, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	op := mustOp(t, cat, OpSimpleSyscall)
	const times = 100000
	d, err := e.ExecOp(op, times)
	if err != nil {
		t.Fatal(err)
	}
	wantNS := op.BaseNS*times + float64(b.totalCalls)*overhead
	if math.Abs(float64(d)-wantNS) > 1e-3*wantNS {
		t.Errorf("elapsed %v, want ~%vns", d, wantNS)
	}
	if e.KernelTime() != d {
		t.Errorf("KernelTime %v != batch elapsed %v", e.KernelTime(), d)
	}
	if err := e.RecordUser(0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if e.UserTime() != 5*time.Second {
		t.Errorf("UserTime = %v", e.UserTime())
	}
}

func TestEngineInstrumentationSlowsExecution(t *testing.T) {
	cat := newTestCatalog(t)
	elapsed := func(overhead float64) time.Duration {
		b := newCountingBackend(overhead)
		e, err := NewEngine(cat, EngineConfig{NumCPU: 1, Backend: b, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.ExecOpName(OpSimpleOpenClose, 10000)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	vanilla := elapsed(0)
	fmeter := elapsed(3)
	ftrace := elapsed(40)
	if !(vanilla < fmeter && fmeter < ftrace) {
		t.Errorf("expected vanilla < fmeter < ftrace, got %v %v %v", vanilla, fmeter, ftrace)
	}
	// The shape the paper reports: fmeter stays close to vanilla, ftrace
	// is several times slower on call-dense ops.
	if r := float64(fmeter) / float64(vanilla); r > 2.5 {
		t.Errorf("fmeter slowdown %v too large", r)
	}
	if r := float64(ftrace) / float64(vanilla); r < 3 {
		t.Errorf("ftrace slowdown %v too small", r)
	}
}

func TestEngineRoundRobinCPUs(t *testing.T) {
	cat := newTestCatalog(t)
	b := newCountingBackend(0)
	e, err := NewEngine(cat, EngineConfig{NumCPU: 4, Backend: b, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := e.ExecOpName(OpCtxSwitch, 10); err != nil {
			t.Fatal(err)
		}
	}
	if len(b.cpusSeen) != 4 {
		t.Errorf("expected all 4 CPUs used, saw %d", len(b.cpusSeen))
	}
}

func TestModuleLifecycle(t *testing.T) {
	st := NewSymbolTable()
	cat, err := NewCatalog(st)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cat, EngineConfig{NumCPU: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := NewModule(st, "testdrv", "1.0", map[string]string{"lro": "on"}, []ModuleOpSpec{{
		Name: "rx", BaseUS: 1, CoreCalls: 10, ModuleCalls: 5,
		CoreProfile: map[string]float64{"alloc_skb": 1, "netif_receive_skb": 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterModule(mod); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterModule(mod); err == nil {
		t.Error("duplicate registration should fail")
	}
	if _, err := e.ExecModuleOp("testdrv", "rx", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecModuleOp("testdrv", "tx", 1); err == nil {
		t.Error("unknown module op should fail")
	}
	if _, err := e.ExecModuleOp("nodrv", "rx", 1); err == nil {
		t.Error("unknown module should fail")
	}
}

func TestModuleValidation(t *testing.T) {
	st := NewSymbolTable()
	if _, err := NewModule(st, "", "1.0", nil, nil); err == nil {
		t.Error("empty module name should fail")
	}
	if _, err := NewModule(st, "m", "1.0", nil, []ModuleOpSpec{{
		Name: "x", BaseUS: 1, CoreCalls: 1,
		CoreProfile: map[string]float64{"no_such_fn": 1},
	}}); err == nil {
		t.Error("unknown core function should fail")
	}
	if _, err := NewModule(st, "m", "1.0", nil, []ModuleOpSpec{
		{Name: "x", BaseUS: 1, CoreCalls: 1, CoreProfile: map[string]float64{"alloc_skb": 1}},
		{Name: "x", BaseUS: 1, CoreCalls: 1, CoreProfile: map[string]float64{"alloc_skb": 1}},
	}); err == nil {
		t.Error("duplicate op name should fail")
	}
}

func TestCompileOpFromCountsDeterministic(t *testing.T) {
	st := NewSymbolTable()
	mk := func() *Op {
		op, err := CompileOpFromCounts(st, "x", 1, 100, 0, map[string]float64{
			"alloc_skb": 1, "kfree_skb": 1, "netif_receive_skb": 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	a, b := mk(), mk()
	for i := range a.Funcs {
		if a.Funcs[i] != b.Funcs[i] || a.MeanCounts[i] != b.MeanCounts[i] {
			t.Fatal("CompileOpFromCounts not deterministic")
		}
	}
}

// Property: with jitter enabled, long-run totals still track the op spec.
// The batch samples each function's count once with relative SD 0.05, so
// the total's relative SD is ~0.05*sqrt(Σ(w_i/W)^2) ≈ 1.6% for this op;
// a 12% bound is ~7σ — effectively impossible to trip unless the sampler
// is actually biased.
func TestPropertyJitteredCountsUnbiased(t *testing.T) {
	cat := newTestCatalog(t)
	f := func(seed int64) bool {
		b := newCountingBackend(0)
		e, err := NewEngine(cat, EngineConfig{
			NumCPU: 2, Backend: b, Seed: seed, CountJitter: 0.05,
		})
		if err != nil {
			return false
		}
		op := mustOp(t, cat, OpPageFault)
		const times = 5000
		if _, err := e.ExecOp(op, times); err != nil {
			return false
		}
		want := op.TotalCalls * times
		got := float64(b.totalCalls)
		return math.Abs(got-want)/want < 0.12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
	// The mean over many seeds must sit tight around the spec (bias
	// check, as opposed to the per-draw variance check above).
	var sum float64
	const draws = 30
	op := mustOp(t, cat, OpPageFault)
	for s := int64(0); s < draws; s++ {
		b := newCountingBackend(0)
		e, err := NewEngine(cat, EngineConfig{NumCPU: 2, Backend: b, Seed: s, CountJitter: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.ExecOp(op, 5000); err != nil {
			t.Fatal(err)
		}
		sum += float64(b.totalCalls)
	}
	mean := sum / draws
	want := op.TotalCalls * 5000
	if math.Abs(mean-want)/want > 0.01 {
		t.Errorf("mean over %d seeds = %v, want ~%v (sampler biased)", draws, mean, want)
	}
}

func BenchmarkExecOpSimpleRead(b *testing.B) {
	cat, err := NewCatalog(NewSymbolTable())
	if err != nil {
		b.Fatal(err)
	}
	cb := newCountingBackend(3)
	e, err := NewEngine(cat, EngineConfig{NumCPU: 16, Backend: cb, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecOpName(OpSimpleRead, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// Names returns all op names in sorted order.
func (c *Catalog) Names() []string {
	names := make([]string, 0, len(c.ops))
	for n := range c.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
