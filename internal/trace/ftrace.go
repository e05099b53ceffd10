package trace

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/debugfs"
	"repro/internal/kernel"
	"repro/internal/ringbuf"
)

// DefaultFtraceRingRecords is the default per-CPU ring capacity in records.
// Ftrace's buffers are "large fixed size circular buffers"; 64K 24-byte
// records per CPU is ~1.5 MiB/CPU, in the realistic range.
const DefaultFtraceRingRecords = 1 << 16

// maxMaterializedPerBatch bounds how many records one batched OnCalls
// materializes into the ring. A batch of n calls is semantically n records;
// materializing millions of identical records per batch would only burn
// simulator memory bandwidth, so beyond this bound the records are not
// written; their cost is still charged per call (PerCallOverheadNS), and
// they would have been overwritten in the ring anyway — the ring only ever
// retains the newest Cap() records.
const maxMaterializedPerBatch = 512

// Ftrace models the kernel function tracer: every call appends a
// fixed-size record (ip, parent ip, timestamp) to a per-CPU SMP-safe ring
// buffer, which user-space drains through debugfs.
type Ftrace struct {
	st        *kernel.SymbolTable
	rings     []*ringbuf.LockedRing
	numCPU    int
	perCallNS float64
	seq       uint64 // virtual timestamp source for records
}

var _ kernel.Backend = (*Ftrace)(nil)

// NewFtrace builds the Ftrace backend with per-CPU LockedRing buffers of
// the given capacity (0 means DefaultFtraceRingRecords).
func NewFtrace(st *kernel.SymbolTable, numCPU, ringRecords int) (*Ftrace, error) {
	if st == nil {
		return nil, fmt.Errorf("trace: nil symbol table")
	}
	if numCPU < 1 {
		return nil, fmt.Errorf("trace: numCPU %d must be >= 1", numCPU)
	}
	if ringRecords == 0 {
		ringRecords = DefaultFtraceRingRecords
	}
	f := &Ftrace{
		st:        st,
		rings:     make([]*ringbuf.LockedRing, numCPU),
		numCPU:    numCPU,
		perCallNS: FtraceRecordNS + FtraceCoherencyPerCPUNS*float64(numCPU),
	}
	for i := range f.rings {
		r, err := ringbuf.NewLocked(ringRecords)
		if err != nil {
			return nil, err
		}
		f.rings[i] = r
	}
	return f, nil
}

// Name implements kernel.Backend.
func (f *Ftrace) Name() string { return "ftrace" }

// OnCalls implements kernel.Backend: each call becomes one trace record in
// the CPU's ring buffer (materialization bounded per batch; see
// maxMaterializedPerBatch).
func (f *Ftrace) OnCalls(cpu int, fn kernel.FuncID, n uint64) {
	if cpu < 0 || cpu >= f.numCPU {
		return
	}
	sym, err := f.st.Symbol(fn)
	if err != nil {
		return // outside the instrumented space
	}
	materialize := n
	if materialize > maxMaterializedPerBatch {
		materialize = maxMaterializedPerBatch
	}
	for i := uint64(0); i < materialize; i++ {
		f.seq++
		f.rings[cpu].Write(ringbuf.Record{
			FnAddr:     sym.Addr,
			ParentAddr: sym.Addr ^ 0x5a5a, // simulated caller ip
			TimeNS:     f.seq,
		})
	}
}

// PerCallOverheadNS implements kernel.Backend: record formatting plus ring
// reservation costs that grow with the number of online CPUs.
func (f *Ftrace) PerCallOverheadNS(int, kernel.FuncID) float64 { return f.perCallNS }

// Drain consumes all per-CPU rings in CPU order, invoking fn per record,
// and returns the number of records consumed (materialized records only).
func (f *Ftrace) Drain(fn func(cpu int, rec ringbuf.Record)) int {
	total := 0
	for cpu, r := range f.rings {
		total += r.Drain(func(rec ringbuf.Record) { fn(cpu, rec) })
	}
	return total
}

// TracePath is the debugfs node exporting (and consuming) the trace.
const TracePath = "tracing/trace"

// RegisterDebugfs exposes the trace through fs: reading TracePath drains
// all per-CPU buffers into the textual format "cpu addr parent ts".
func (f *Ftrace) RegisterDebugfs(fs *debugfs.FS) error {
	if fs == nil {
		return fmt.Errorf("trace: nil debugfs")
	}
	return fs.Create(TracePath, func() ([]byte, error) {
		var b strings.Builder
		f.Drain(func(cpu int, rec ringbuf.Record) {
			b.WriteString(strconv.Itoa(cpu))
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(rec.FnAddr, 16))
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(rec.ParentAddr, 16))
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(rec.TimeNS, 10))
			b.WriteByte('\n')
		})
		return []byte(b.String()), nil
	}, nil)
}
