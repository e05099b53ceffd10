package daemon

import (
	"fmt"

	"repro/internal/debugfs"
	"repro/internal/driver"
	"repro/internal/kernel"
	"repro/internal/trace"
)

// Tracer selects the instrumentation configuration of a machine.
type Tracer int

// The paper's three kernel configurations.
const (
	Vanilla Tracer = iota + 1
	Ftrace
	Fmeter
)

// String names the configuration as the paper's tables do.
func (t Tracer) String() string {
	switch t {
	case Vanilla:
		return "vanilla"
	case Ftrace:
		return "ftrace"
	case Fmeter:
		return "fmeter"
	default:
		return fmt.Sprintf("tracer(%d)", int(t))
	}
}

// NumCPU is the paper's testbed width: a dual-socket quad-core Nehalem
// with hyperthreads, 16 logical processors.
const NumCPU = 16

// Machine is one simulated monitored machine: the symbol table, the op
// catalog, the engine running under the chosen tracer and, under Fmeter,
// the counter backend whose debugfs export the collector reads.
type Machine struct {
	ST  *kernel.SymbolTable
	Cat *kernel.Catalog
	Eng *kernel.Engine
	Fm  *trace.Fmeter // non-nil iff the tracer is Fmeter
	Col *Collector    // non-nil iff the tracer is Fmeter
}

// Boot wires a testbed-width machine under tracer at the evaluation's
// noise levels: Ftrace and Fmeter register their debugfs exports, and
// Fmeter gets a collector over its counters. seed goes to the engine.
func Boot(tracer Tracer, seed int64) (*Machine, error) {
	st := kernel.NewSymbolTable()
	cat, err := kernel.NewCatalog(st)
	if err != nil {
		return nil, err
	}
	m := &Machine{ST: st, Cat: cat}
	fs := debugfs.New()
	var backend kernel.Backend
	switch tracer {
	case Vanilla:
		backend = kernel.NopBackend()
	case Ftrace:
		ft, err := trace.NewFtrace(st, NumCPU, 0)
		if err != nil {
			return nil, err
		}
		if err := ft.RegisterDebugfs(fs); err != nil {
			return nil, err
		}
		backend = ft
	case Fmeter:
		fm, err := trace.NewFmeter(st, NumCPU)
		if err != nil {
			return nil, err
		}
		if err := fm.RegisterDebugfs(fs); err != nil {
			return nil, err
		}
		m.Fm = fm
		backend = fm
	default:
		return nil, fmt.Errorf("daemon: unknown tracer %v", tracer)
	}
	m.Eng, err = kernel.NewEngine(cat, kernel.EngineConfig{
		NumCPU:        NumCPU,
		Backend:       backend,
		Seed:          seed,
		CountJitter:   0.02, // the evaluation's relative count noise
		LatencyJitter: 0.01, // and latency noise
	})
	if err != nil {
		return nil, err
	}
	if m.Fm != nil {
		if m.Col, err = NewCollector(fs, st); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// LoadDriver loads a myri10ge variant as an uninstrumented runtime module
// (its functions never appear in signatures; only its calls into the core
// kernel do).
func (m *Machine) LoadDriver(v driver.Variant) error {
	mod, err := driver.New(m.ST, v)
	if err != nil {
		return err
	}
	return m.Eng.RegisterModule(mod)
}
