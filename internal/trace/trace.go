// Package trace implements the instrumentation backends the paper compares
// (§3, §4.1): the Fmeter per-CPU counter tracer, the Ftrace function tracer
// with its SMP-safe ring buffer, and two ablation backends (a shared
// atomic-counter array and a hot-cache Fmeter variant, §6).
//
// # Cost model
//
// Each backend charges a virtual per-call overhead to the engine clock. The
// constants below are calibrated so the simulated Table 1/2/3 reproduce the
// paper's slowdown shape:
//
//   - An Fmeter stub does preempt_disable, a two-index dereference, a
//     non-atomic per-CPU increment, and preempt_enable: a few nanoseconds,
//     no cross-core traffic.
//   - An Ftrace call formats a 24-byte record and reserves/commits ring
//     buffer space under SMP-safe synchronization, paying lock and
//     cache-coherency costs that grow with the number of processors.
//
// With the defaults and 16 CPUs, Ftrace's per-call cost is ~40 ns versus
// Fmeter's 3 ns — a 13x per-call gap, matching the paper's observed
// slowdown ratios (Ftrace 2.1x-8x slower than Fmeter per Table 1).
package trace

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/debugfs"
	"repro/internal/kernel"
	"repro/internal/percpu"
)

// Cost-model constants (virtual nanoseconds).
const (
	// FmeterStubNS is the cost of one Fmeter stub execution.
	FmeterStubNS = 3.0
	// FtraceRecordNS is the CPU-local cost of formatting and storing one
	// Ftrace function-trace record.
	FtraceRecordNS = 34.0
	// FtraceCoherencyPerCPUNS is the additional per-call cost per online
	// CPU from ring-buffer synchronization (lock and cache-line traffic).
	FtraceCoherencyPerCPUNS = 0.375
	// SharedAtomicBaseNS is the base cost of a lock;inc on a shared
	// counter array (ablation backend).
	SharedAtomicBaseNS = 3.0
	// SharedAtomicCoherencyPerCPUNS is the cache-line bouncing cost per
	// online CPU for shared counters, absent in the per-CPU design.
	SharedAtomicCoherencyPerCPUNS = 1.5
)

// Fmeter is the paper's counting backend: per-CPU pages of 8-byte slots
// addressed by (page, slot) indices embedded in per-function stubs
// (Figure 3).
type Fmeter struct {
	st    *kernel.SymbolTable
	idx   *percpu.Index
	addrs []percpu.SlotAddr
}

var _ kernel.Backend = (*Fmeter)(nil)

// NewFmeter builds the Fmeter backend for the given symbol table and CPU
// count. The function→slot mapping is allocated up front ("at boot-time,
// right after the kernel introspects itself").
func NewFmeter(st *kernel.SymbolTable, numCPU int) (*Fmeter, error) {
	if st == nil {
		return nil, fmt.Errorf("trace: nil symbol table")
	}
	idx, err := percpu.New(numCPU, st.Len())
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	addrs := make([]percpu.SlotAddr, st.Len())
	for i := range addrs {
		addrs[i] = percpu.AddrOf(i)
	}
	return &Fmeter{
		st:    st,
		idx:   idx,
		addrs: addrs,
	}, nil
}

// Name implements kernel.Backend.
func (f *Fmeter) Name() string { return "fmeter" }

// OnCalls implements kernel.Backend: it follows the two embedded indices
// and increments the current CPU's slot.
func (f *Fmeter) OnCalls(cpu int, fn kernel.FuncID, n uint64) {
	if fn < 0 || int(fn) >= len(f.addrs) {
		return // functions outside the instrumented space are invisible
	}
	// The engine serializes per-CPU execution, so Inc's validation errors
	// are impossible here by construction; ignore the nil error.
	_ = f.idx.Inc(cpu, f.addrs[fn], n)
}

// PerCallOverheadNS implements kernel.Backend: a flat per-stub cost,
// independent of CPU count (no shared state is touched).
func (f *Fmeter) PerCallOverheadNS(int, kernel.FuncID) float64 { return FmeterStubNS }

// Snapshot returns the per-function invocation totals summed over CPUs.
func (f *Fmeter) Snapshot() []uint64 { return f.idx.Snapshot() }

// Reset zeroes all counters.
func (f *Fmeter) Reset() { f.idx.Reset() }

// CountersPath is the debugfs node exporting the counters.
const CountersPath = "fmeter/counters"

// ResetPath is the debugfs node that zeroes the counters on any write.
const ResetPath = "fmeter/reset"

// RegisterDebugfs exposes the backend through fs: CountersPath serializes
// "addr count" lines for every function with a non-zero count, and
// ResetPath zeroes the counters when written.
func (f *Fmeter) RegisterDebugfs(fs *debugfs.FS) error {
	if fs == nil {
		return fmt.Errorf("trace: nil debugfs")
	}
	if err := fs.Create(CountersPath, func() ([]byte, error) {
		return MarshalCounters(f.st, f.Snapshot())
	}, nil); err != nil {
		return err
	}
	return fs.Create(ResetPath, nil, func([]byte) error {
		f.Reset()
		return nil
	})
}

// MarshalCounters serializes a snapshot as "addr count" lines (hexadecimal
// address, decimal count), one per function with a non-zero count. The
// address — not the name — is the identifier, following the paper.
func MarshalCounters(st *kernel.SymbolTable, snap []uint64) ([]byte, error) {
	if len(snap) != st.Len() {
		return nil, fmt.Errorf("trace: snapshot length %d != table size %d", len(snap), st.Len())
	}
	var b strings.Builder
	syms := st.Symbols()
	for i, c := range snap {
		if c == 0 {
			continue
		}
		b.WriteString(strconv.FormatUint(syms[i].Addr, 16))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(c, 10))
		b.WriteByte('\n')
	}
	return []byte(b.String()), nil
}

// UnmarshalCounters parses MarshalCounters output back into a full-length
// count vector for st (zero for absent functions).
func UnmarshalCounters(st *kernel.SymbolTable, data []byte) ([]uint64, error) {
	out := make([]uint64, st.Len())
	for lineNo, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("trace: line %d: want 'addr count', got %q", lineNo+1, line)
		}
		addr, err := strconv.ParseUint(fields[0], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad address: %w", lineNo+1, err)
		}
		count, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad count: %w", lineNo+1, err)
		}
		id, err := st.LookupAddr(addr)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo+1, err)
		}
		out[id] = count
	}
	return out, nil
}
