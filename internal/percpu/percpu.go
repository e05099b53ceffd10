// Package percpu implements the Fmeter runtime counter structure of the
// paper's Figure 3: a set of per-CPU indices, each mapping a kernel function
// to an 8-byte invocation count. Each per-CPU index is a list of pages, and
// each page holds an array of slots. A function's counter is addressed by
// two small indices — the page index and the slot index within the page —
// which the real Fmeter embeds into the per-function mcount stub.
//
// The per-CPU split is the point of the design: a stub only ever touches the
// current CPU's slot, so increments need no atomic read-modify-write and
// generate no cross-core cache-coherency traffic (the paper contrasts this
// with the lock;inc and compare-and-swap traffic of ring buffers). This Go
// model uses atomic operations because a Go process genuinely shares memory
// between goroutines (the logging daemon snapshots concurrently), but the
// structure — and the cost model the trace package assigns to it — follows
// the per-CPU no-contention design.
package percpu

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// SlotsPerPage is the number of 8-byte counter slots in one 4 KiB page.
const SlotsPerPage = 512

// SlotAddr is the pair of indices embedded in a function's mcount stub: the
// page within the per-CPU page list and the slot within that page.
type SlotAddr struct {
	Page int
	Slot int
}

// AddrOf maps a function index (its FuncID) to its slot address. The
// mapping is fixed at "boot" time exactly once and is the same on every
// CPU, mirroring the paper's boot-time allocation.
func AddrOf(fn int) SlotAddr {
	return SlotAddr{Page: fn / SlotsPerPage, Slot: fn % SlotsPerPage}
}

// FuncOf is the inverse of AddrOf.
func FuncOf(a SlotAddr) int { return a.Page*SlotsPerPage + a.Slot }

// page is one 4 KiB block of counter slots.
type page struct {
	slots [SlotsPerPage]uint64
}

// Index is the full per-CPU counter structure: cpus × pages × slots.
type Index struct {
	numCPU   int
	numFuncs int
	pages    int
	cpus     [][]*page
}

// New allocates the counter index for numCPU simulated processors and
// numFuncs instrumented functions.
func New(numCPU, numFuncs int) (*Index, error) {
	if numCPU < 1 {
		return nil, fmt.Errorf("percpu: numCPU %d must be >= 1", numCPU)
	}
	if numFuncs < 1 {
		return nil, fmt.Errorf("percpu: numFuncs %d must be >= 1", numFuncs)
	}
	npages := (numFuncs + SlotsPerPage - 1) / SlotsPerPage
	ix := &Index{numCPU: numCPU, numFuncs: numFuncs, pages: npages}
	ix.cpus = make([][]*page, numCPU)
	for c := range ix.cpus {
		ix.cpus[c] = make([]*page, npages)
		for p := range ix.cpus[c] {
			ix.cpus[c][p] = &page{}
		}
	}
	return ix, nil
}

// Inc adds n to the counter of the function at addr on the given CPU. It is
// the operation the mcount stub performs: disable preemption, follow the
// two indices, increment, re-enable preemption.
func (ix *Index) Inc(cpu int, addr SlotAddr, n uint64) error {
	if cpu < 0 || cpu >= ix.numCPU {
		return fmt.Errorf("percpu: cpu %d out of range [0,%d)", cpu, ix.numCPU)
	}
	if addr.Page < 0 || addr.Page >= ix.pages || addr.Slot < 0 || addr.Slot >= SlotsPerPage {
		return fmt.Errorf("percpu: slot address %+v out of range", addr)
	}
	if FuncOf(addr) >= ix.numFuncs {
		return fmt.Errorf("percpu: slot address %+v beyond function space %d", addr, ix.numFuncs)
	}
	atomic.AddUint64(&ix.cpus[cpu][addr.Page].slots[addr.Slot], n)
	return nil
}

// Snapshot sums the per-CPU counters into a per-function total vector of
// length numFuncs. This is what the debugfs read handler exports to the
// logging daemon.
func (ix *Index) Snapshot() []uint64 {
	out := make([]uint64, ix.numFuncs)
	for c := 0; c < ix.numCPU; c++ {
		fn := 0
		for p := 0; p < ix.pages && fn < ix.numFuncs; p++ {
			pg := ix.cpus[c][p]
			for s := 0; s < SlotsPerPage && fn < ix.numFuncs; s++ {
				out[fn] += atomic.LoadUint64(&pg.slots[s])
				fn++
			}
		}
	}
	return out
}

// Reset zeroes every counter on every CPU.
func (ix *Index) Reset() {
	for c := range ix.cpus {
		for _, pg := range ix.cpus[c] {
			for s := range pg.slots {
				atomic.StoreUint64(&pg.slots[s], 0)
			}
		}
	}
}

// ErrCounterWrapped reports a counter that moved backwards between two
// snapshots, which can only happen if the counters were reset in between.
var ErrCounterWrapped = errors.New("percpu: counter decreased between snapshots")

// Diff returns after-before for two snapshots taken from the same index.
// It is the logging daemon's interval computation ("reads all kernel
// function invocation counts twice and generates the difference").
func Diff(before, after []uint64) ([]uint64, error) {
	if len(before) != len(after) {
		return nil, fmt.Errorf("percpu: snapshot lengths differ: %d vs %d", len(before), len(after))
	}
	out := make([]uint64, len(before))
	for i := range before {
		if after[i] < before[i] {
			return nil, fmt.Errorf("%w: function %d: %d -> %d", ErrCounterWrapped, i, before[i], after[i])
		}
		out[i] = after[i] - before[i]
	}
	return out, nil
}
