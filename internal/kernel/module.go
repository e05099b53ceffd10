package kernel

import (
	"fmt"
	"sort"
)

// Module models a runtime-loadable kernel module. The paper deliberately
// does not instrument module functions (§3): module code is relocated at
// load time and even tiny code changes shift all subsequent offsets, so
// Fmeter's signature space covers core-kernel functions only. A module is
// therefore visible to signatures exclusively through the core-kernel
// functions its entry points call.
type Module struct {
	Name    string
	Version string
	// Params are load-time parameters (e.g. the paper's myri10ge
	// lro_disable switch). They are informational; variants encode their
	// behavioural differences directly in their op profiles.
	Params map[string]string

	ops map[string]*Op
}

// ModuleOpSpec declares one module entry point: how many module-internal
// (uninstrumented) calls it performs and which core-kernel functions it
// invokes with what weights, scaled to CoreCalls total traced calls.
type ModuleOpSpec struct {
	Name string
	// BaseUS is the virtual latency of the entry point in microseconds,
	// including the module-internal work.
	BaseUS float64
	// CoreCalls is the mean number of core-kernel calls per execution.
	CoreCalls float64
	// ModuleCalls is the mean number of module-internal calls per
	// execution (cost only, never traced, never counted in signatures).
	ModuleCalls float64
	// CoreProfile maps core-kernel function name to relative weight.
	CoreProfile map[string]float64
}

// NewModule compiles a module against the core-kernel symbol table.
func NewModule(st *SymbolTable, name, version string, params map[string]string, specs []ModuleOpSpec) (*Module, error) {
	if name == "" {
		return nil, fmt.Errorf("kernel: module name must be non-empty")
	}
	m := &Module{
		Name:    name,
		Version: version,
		Params:  make(map[string]string, len(params)),
		ops:     make(map[string]*Op, len(specs)),
	}
	for k, v := range params {
		m.Params[k] = v
	}
	for _, spec := range specs {
		op, err := CompileOpFromCounts(st, spec.Name, spec.BaseUS, spec.CoreCalls, spec.ModuleCalls, spec.CoreProfile)
		if err != nil {
			return nil, fmt.Errorf("kernel: module %s op %s: %w", name, spec.Name, err)
		}
		if _, dup := m.ops[op.Name]; dup {
			return nil, fmt.Errorf("kernel: module %s has duplicate op %s", name, op.Name)
		}
		m.ops[op.Name] = op
	}
	return m, nil
}

// Op returns a module entry point by name.
func (m *Module) Op(name string) (*Op, error) {
	op, ok := m.ops[name]
	if !ok {
		return nil, fmt.Errorf("kernel: module %s has no op %q", m.Name, name)
	}
	return op, nil
}

// CompileOpFromCounts compiles an operation from a name→weight map. It is
// the exported construction path for packages (e.g. the driver simulator)
// that define ops outside this package's static catalog.
func CompileOpFromCounts(st *SymbolTable, name string, baseUS, totalCalls, moduleCalls float64, weights map[string]float64) (*Op, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("empty profile for op %s", name)
	}
	profile := make([]callWeight, 0, len(weights))
	fns := make([]string, 0, len(weights))
	for fn := range weights {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		profile = append(profile, callWeight{fn: fn, weight: weights[fn]})
	}
	return compileOp(st, OpSpec{
		Name:        name,
		BaseUS:      baseUS,
		TotalCalls:  totalCalls,
		ModuleCalls: moduleCalls,
		Profile:     profile,
	})
}
