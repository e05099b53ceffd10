package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Backend is the instrumentation hook an engine drives. Implementations
// live in the trace package: a no-op backend (vanilla kernel), the Fmeter
// per-CPU counter backend, and the Ftrace ring-buffer backend.
//
// OnCalls is batched: the engine reports n invocations of fn on cpu at once.
// This is purely a simulation optimization — semantically it is n calls —
// and backends account their per-call costs accordingly via
// PerCallOverheadNS, which the engine charges to the virtual clock for
// every (un-batched) call.
type Backend interface {
	// Name identifies the configuration ("vanilla", "ftrace", "fmeter").
	Name() string
	// OnCalls records n invocations of fn on cpu.
	OnCalls(cpu int, fn FuncID, n uint64)
	// PerCallOverheadNS returns the virtual-time cost the instrumentation
	// adds to a single invocation of fn on cpu.
	PerCallOverheadNS(cpu int, fn FuncID) float64
}

// nopBackend is the vanilla (un-instrumented) configuration: zero overhead,
// no counts. Ftrace and Fmeter both have "virtually zero overhead if not
// enabled" (paper §1); this models all of those states.
type nopBackend struct{}

func (nopBackend) Name() string                          { return "vanilla" }
func (nopBackend) OnCalls(int, FuncID, uint64)           {}
func (nopBackend) PerCallOverheadNS(int, FuncID) float64 { return 0 }

// NopBackend returns the vanilla, un-instrumented backend.
func NopBackend() Backend { return nopBackend{} }

// EngineConfig configures a simulated kernel instance.
type EngineConfig struct {
	// NumCPU is the number of simulated processors (the paper's R710
	// exposes 16). Must be >= 1.
	NumCPU int
	// Backend is the active instrumentation; nil means vanilla.
	Backend Backend
	// Seed drives all stochastic behaviour of this engine instance.
	Seed int64
	// CountJitter is the relative standard deviation applied to each
	// function's per-batch invocation count (models scheduling and cache
	// nondeterminism). 0 disables count noise.
	CountJitter float64
	// LatencyJitter is the relative standard deviation applied to the
	// base (un-instrumented) cost of each op batch. 0 disables.
	LatencyJitter float64
}

// Engine executes kernel operations against a symbol table, driving the
// instrumentation backend and a virtual nanosecond clock. It is not safe
// for concurrent use; the simulated CPUs are a modeling construct, not Go
// concurrency.
type Engine struct {
	st      *SymbolTable
	cat     *Catalog
	backend Backend
	rng     *rand.Rand
	cfg     EngineConfig

	kernelNS   []float64 // per-CPU virtual kernel-mode time
	userNS     []float64 // per-CPU virtual user-mode time
	nextCPU    int
	totalCalls uint64
	modules    map[string]*Module
}

// NewEngine builds an engine over st with the op catalog cat.
func NewEngine(cat *Catalog, cfg EngineConfig) (*Engine, error) {
	if cat == nil {
		return nil, fmt.Errorf("kernel: nil catalog")
	}
	if cfg.NumCPU < 1 {
		return nil, fmt.Errorf("kernel: NumCPU %d must be >= 1", cfg.NumCPU)
	}
	if cfg.CountJitter < 0 || cfg.LatencyJitter < 0 {
		return nil, fmt.Errorf("kernel: jitter must be non-negative")
	}
	b := cfg.Backend
	if b == nil {
		b = NopBackend()
	}
	return &Engine{
		st:       cat.SymbolTable(),
		cat:      cat,
		backend:  b,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		cfg:      cfg,
		kernelNS: make([]float64, cfg.NumCPU),
		userNS:   make([]float64, cfg.NumCPU),
		modules:  make(map[string]*Module),
	}, nil
}

// Catalog returns the engine's op catalog.
func (e *Engine) Catalog() *Catalog { return e.cat }

// SymbolTable returns the engine's symbol table.
func (e *Engine) SymbolTable() *SymbolTable { return e.st }

// NumCPU returns the number of simulated processors.
func (e *Engine) NumCPU() int { return e.cfg.NumCPU }

// pickCPU round-robins batches across simulated CPUs.
func (e *Engine) pickCPU() int {
	cpu := e.nextCPU
	e.nextCPU = (e.nextCPU + 1) % e.cfg.NumCPU
	return cpu
}

// ExecOp executes op `times` times on an engine-chosen CPU and returns the
// virtual elapsed kernel time of the batch.
func (e *Engine) ExecOp(op *Op, times int) (time.Duration, error) {
	return e.ExecOpOn(e.pickCPU(), op, times)
}

// ExecOpName resolves name in the catalog and executes it.
func (e *Engine) ExecOpName(name string, times int) (time.Duration, error) {
	op, err := e.cat.Op(name)
	if err != nil {
		return 0, err
	}
	return e.ExecOp(op, times)
}

// ExecOpOn executes op `times` times on the given simulated CPU. The batch
// cost charged to the virtual clock is
//
//	times*BaseNS*(1±latencyJitter) + Σ_fn calls(fn)*backendOverhead(fn)
//
// where calls(fn) are the (possibly jittered) per-function counts.
// Module-internal calls (op.ModuleCalls) contribute no instrumentation
// overhead and no counts: modules are not instrumented (paper §3).
func (e *Engine) ExecOpOn(cpu int, op *Op, times int) (time.Duration, error) {
	if op == nil {
		return 0, fmt.Errorf("kernel: nil op")
	}
	if cpu < 0 || cpu >= e.cfg.NumCPU {
		return 0, fmt.Errorf("kernel: cpu %d out of range [0,%d)", cpu, e.cfg.NumCPU)
	}
	if times < 0 {
		return 0, fmt.Errorf("kernel: negative times %d", times)
	}
	if times == 0 {
		return 0, nil
	}
	ft := float64(times)
	var actualCalls, overheadNS float64
	for i, fn := range op.Funcs {
		mean := op.MeanCounts[i] * ft
		n := e.sampleCount(mean)
		if n == 0 {
			continue
		}
		e.backend.OnCalls(cpu, fn, n)
		actualCalls += float64(n)
		overheadNS += float64(n) * e.backend.PerCallOverheadNS(cpu, fn)
	}
	e.totalCalls += uint64(actualCalls)

	base := op.BaseNS * ft
	if e.cfg.LatencyJitter > 0 {
		base *= 1 + e.cfg.LatencyJitter*e.rng.NormFloat64()
		if base < 0 {
			base = 0
		}
	}
	elapsed := base + overheadNS
	e.kernelNS[cpu] += elapsed
	return time.Duration(elapsed), nil
}

// sampleCount turns a mean invocation count into an integer sample. With
// jitter disabled it rounds deterministically (fractional remainders are
// resolved by an unbiased coin so long-run totals match the mean).
func (e *Engine) sampleCount(mean float64) uint64 {
	if mean <= 0 {
		return 0
	}
	m := mean
	if e.cfg.CountJitter > 0 {
		m *= 1 + e.cfg.CountJitter*e.rng.NormFloat64()
		if m < 0 {
			m = 0
		}
	}
	floor := math.Floor(m)
	frac := m - floor
	n := uint64(floor)
	if frac > 0 && e.rng.Float64() < frac {
		n++
	}
	return n
}

// InvokeRaw records n invocations of a single function outside any
// operation path, charging perCallNS base cost plus instrumentation
// overhead. It models sporadic kernel events (error paths, rare ioctls,
// background callbacks) that are not part of a workload's steady mix.
func (e *Engine) InvokeRaw(cpu int, fn FuncID, n uint64, perCallNS float64) error {
	if cpu < 0 || cpu >= e.cfg.NumCPU {
		return fmt.Errorf("kernel: cpu %d out of range [0,%d)", cpu, e.cfg.NumCPU)
	}
	if _, err := e.st.Symbol(fn); err != nil {
		return err
	}
	if perCallNS < 0 {
		return fmt.Errorf("kernel: negative per-call cost %v", perCallNS)
	}
	if n == 0 {
		return nil
	}
	e.backend.OnCalls(cpu, fn, n)
	e.totalCalls += n
	e.kernelNS[cpu] += float64(n) * (perCallNS + e.backend.PerCallOverheadNS(cpu, fn))
	return nil
}

// RecordUser charges user-mode virtual time to a CPU. User code is never
// instrumented, so this bypasses the backend entirely.
func (e *Engine) RecordUser(cpu int, d time.Duration) error {
	if cpu < 0 || cpu >= e.cfg.NumCPU {
		return fmt.Errorf("kernel: cpu %d out of range [0,%d)", cpu, e.cfg.NumCPU)
	}
	e.userNS[cpu] += float64(d.Nanoseconds())
	return nil
}

// KernelTime returns the total virtual kernel-mode time across CPUs.
func (e *Engine) KernelTime() time.Duration {
	var s float64
	for _, ns := range e.kernelNS {
		s += ns
	}
	return time.Duration(s)
}

// UserTime returns the total virtual user-mode time across CPUs.
func (e *Engine) UserTime() time.Duration {
	var s float64
	for _, ns := range e.userNS {
		s += ns
	}
	return time.Duration(s)
}

// TotalCalls returns the number of instrumentable core-kernel function
// calls executed so far (module-internal calls excluded).
func (e *Engine) TotalCalls() uint64 { return e.totalCalls }

// RegisterModule loads a runtime module into the engine. Module functions
// are not added to the symbol table: they are invisible to instrumentation,
// exactly like the paper's myri10ge driver.
func (e *Engine) RegisterModule(m *Module) error {
	if m == nil {
		return fmt.Errorf("kernel: nil module")
	}
	if _, dup := e.modules[m.Name]; dup {
		return fmt.Errorf("kernel: module %q already loaded", m.Name)
	}
	e.modules[m.Name] = m
	return nil
}

// Module returns a loaded module by name.
func (e *Engine) Module(name string) (*Module, error) {
	m, ok := e.modules[name]
	if !ok {
		return nil, fmt.Errorf("kernel: module %q not loaded", name)
	}
	return m, nil
}

// ExecModuleOp executes a module entry point `times` times: the module's
// internal calls cost time but produce no counts, while its calls into the
// core kernel are traced like any other (that is the only way the module
// shows up in signatures).
func (e *Engine) ExecModuleOp(moduleName, opName string, times int) (time.Duration, error) {
	m, err := e.Module(moduleName)
	if err != nil {
		return 0, err
	}
	op, err := m.Op(opName)
	if err != nil {
		return 0, err
	}
	return e.ExecOp(op, times)
}
