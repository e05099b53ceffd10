package trace

import (
	"fmt"

	"repro/internal/kernel"
)

// Kprobes cost-model constants (virtual nanoseconds). A kprobe fires a
// breakpoint trap, runs the handler, then single-steps the displaced
// instruction — an order of magnitude above an inlined stub.
const (
	// KprobeTrapNS is the int3 trap + exception entry/exit cost.
	KprobeTrapNS = 320.0
	// KprobeHandlerNS is the registered handler body (counter update).
	KprobeHandlerNS = 40.0
	// KprobeSingleStepNS is the single-step of the original instruction.
	KprobeSingleStepNS = 180.0
)

// Kprobes is the instrumentation path the paper rejects in §3: grafting
// breakpoint instructions at runtime via the Kernel Dynamic Probes
// subsystem. It would produce exactly the same counts as the Fmeter
// backend — the information content is identical — but every call pays a
// trap, handler dispatch, and single-step, which is why Fmeter builds on
// the mcount machinery instead ("unlike Kprobes which incur runtime
// overhead ... Ftrace shifts most of the overhead to kernel compile
// time"). Only that cost is modelled, so it keeps no counters.
type Kprobes struct {
	perCallNS float64
}

var _ kernel.Backend = (*Kprobes)(nil)

// NewKprobes builds the kprobes-based counting backend.
func NewKprobes(st *kernel.SymbolTable, numCPU int) (*Kprobes, error) {
	if st == nil {
		return nil, fmt.Errorf("trace: kprobes: nil symbol table")
	}
	if numCPU < 1 {
		return nil, fmt.Errorf("trace: kprobes: numCPU %d must be >= 1", numCPU)
	}
	return &Kprobes{perCallNS: KprobeTrapNS + KprobeHandlerNS + KprobeSingleStepNS}, nil
}

// Name implements kernel.Backend.
func (k *Kprobes) Name() string { return "kprobes" }

// OnCalls implements kernel.Backend; the probes' counts are not kept.
func (k *Kprobes) OnCalls(int, kernel.FuncID, uint64) {}

// PerCallOverheadNS implements kernel.Backend: trap + handler +
// single-step on every probed call.
func (k *Kprobes) PerCallOverheadNS(int, kernel.FuncID) float64 { return k.perCallNS }
