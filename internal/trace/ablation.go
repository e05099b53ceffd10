package trace

import (
	"fmt"

	"repro/internal/kernel"
)

// SharedAtomic is an ablation backend: a single shared counter array
// updated with atomic read-modify-write from every CPU. It would produce
// the same counts as Fmeter but pays cross-core cache-coherency traffic
// on every increment — the cost the paper's per-CPU design (Figure 3)
// exists to avoid ("lock-free constructs do not absolve such atomic
// operations from generating expensive cache-coherency traffic"). Only
// that cost is modelled, so it keeps no counters.
type SharedAtomic struct {
	perCallNS float64
}

var _ kernel.Backend = (*SharedAtomic)(nil)

// NewSharedAtomic builds the shared-counter ablation backend.
func NewSharedAtomic(st *kernel.SymbolTable, numCPU int) (*SharedAtomic, error) {
	if st == nil {
		return nil, fmt.Errorf("trace: nil symbol table")
	}
	if numCPU < 1 {
		return nil, fmt.Errorf("trace: numCPU %d must be >= 1", numCPU)
	}
	return &SharedAtomic{
		perCallNS: SharedAtomicBaseNS + SharedAtomicCoherencyPerCPUNS*float64(numCPU),
	}, nil
}

// Name implements kernel.Backend.
func (s *SharedAtomic) Name() string { return "shared-atomic" }

// OnCalls implements kernel.Backend; the shared counts are not kept.
func (s *SharedAtomic) OnCalls(int, kernel.FuncID, uint64) {}

// PerCallOverheadNS implements kernel.Backend: base atomic cost plus
// coherency traffic proportional to the number of contending CPUs.
func (s *SharedAtomic) PerCallOverheadNS(int, kernel.FuncID) float64 { return s.perCallNS }

// HotCacheFmeter is the §6 future-work variant: a small fast cache holds
// the counters of the top-N hottest functions, lowering their stub cost
// (less cache pollution following the two-index map), while misses pay a
// small penalty over the flat Fmeter stub for the extra hot-set check.
type HotCacheFmeter struct {
	*Fmeter
	hot    []bool
	hitNS  float64
	missNS float64
	hits   uint64
	misses uint64
}

var _ kernel.Backend = (*HotCacheFmeter)(nil)

// HotCache cost-model constants (virtual nanoseconds).
const (
	// HotCacheHitNS is the stub cost when the function's counter lives in
	// the hot cache.
	HotCacheHitNS = 1.6
	// HotCacheMissPenaltyNS is added to the flat stub cost on a miss.
	HotCacheMissPenaltyNS = 0.3
)

// NewHotCacheFmeter wraps an Fmeter backend with a hot cache over the given
// function set (typically the top-N of a boot-profile ranking; "the value
// of N can be experimentally chosen based on the size of the processor
// caches").
func NewHotCacheFmeter(st *kernel.SymbolTable, numCPU int, hotSet []kernel.FuncID) (*HotCacheFmeter, error) {
	base, err := NewFmeter(st, numCPU)
	if err != nil {
		return nil, err
	}
	h := &HotCacheFmeter{
		Fmeter: base,
		hot:    make([]bool, st.Len()),
		hitNS:  HotCacheHitNS,
		missNS: FmeterStubNS + HotCacheMissPenaltyNS,
	}
	for _, fn := range hotSet {
		if fn < 0 || int(fn) >= st.Len() {
			return nil, fmt.Errorf("trace: hot-set function %d out of range", fn)
		}
		h.hot[fn] = true
	}
	return h, nil
}

// Name implements kernel.Backend.
func (h *HotCacheFmeter) Name() string { return "fmeter-hotcache" }

// OnCalls implements kernel.Backend, tracking hit/miss statistics.
func (h *HotCacheFmeter) OnCalls(cpu int, fn kernel.FuncID, n uint64) {
	if fn >= 0 && int(fn) < len(h.hot) {
		if h.hot[fn] {
			h.hits += n
		} else {
			h.misses += n
		}
	}
	h.Fmeter.OnCalls(cpu, fn, n)
}

// PerCallOverheadNS implements kernel.Backend with per-function costs.
func (h *HotCacheFmeter) PerCallOverheadNS(_ int, fn kernel.FuncID) float64 {
	if fn >= 0 && int(fn) < len(h.hot) && h.hot[fn] {
		return h.hitNS
	}
	return h.missNS
}

// HitRate returns the fraction of calls served from the hot cache.
func (h *HotCacheFmeter) HitRate() float64 {
	total := h.hits + h.misses
	if total == 0 {
		return 0
	}
	return float64(h.hits) / float64(total)
}
