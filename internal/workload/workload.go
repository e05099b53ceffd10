// Package workload implements the workload generators of the paper's
// evaluation (§4): the three classification workloads (kcompile, scp,
// dbench), the macro-benchmarks (apachebench HTTP serving, netperf TCP
// streaming, Linux kernel compile), the lmbench micro-operations of
// Table 1, and the boot phase of Figure 1.
//
// A workload is a mix of kernel operations with mean rates per virtual
// second. Executing an interval draws per-op counts with two layers of
// seeded noise — a per-interval lognormal jitter and a slow multiplicative
// drift across intervals — so consecutive intervals of the same workload
// produce similar but never identical signatures, which is what makes the
// learning experiments non-trivial.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/kernel"
)

// OpRate is one component of a workload mix.
type OpRate struct {
	// Module is empty for catalog ops; otherwise the loadable module
	// whose entry point Op names.
	Module string
	// Op is the operation name (catalog op, or module op when Module is
	// set).
	Op string
	// PerSec is the mean executions per virtual second.
	PerSec float64
	// Jitter is the lognormal sigma of the per-interval count noise.
	// Zero uses DefaultJitter.
	Jitter float64
}

// DefaultJitter is the per-interval lognormal sigma applied when an OpRate
// does not specify its own.
const DefaultJitter = 0.18

// Spec declares a workload.
type Spec struct {
	// Name labels documents collected under this workload.
	Name string
	// Ops is the operation mix.
	Ops []OpRate
	// UserPerSec is user-mode CPU time consumed per virtual second
	// (uninstrumented; matters for the kernel-compile Table 3).
	UserPerSec time.Duration
	// DriftSigma is the per-interval random-walk sigma of the slow rate
	// drift. Zero uses DefaultDriftSigma.
	DriftSigma float64
	// RareEventsPerInterval is the mean number of sporadic one-off kernel
	// events per interval (error paths, rare ioctls, background
	// callbacks): random functions invoked a handful of times. These are
	// what give terms a document frequency below the corpus size, keeping
	// idf informative even within a single workload class. Negative
	// disables; zero uses DefaultRareEvents.
	RareEventsPerInterval float64
	// BurstProb is the per-interval probability of a contamination
	// burst: a short spell of unrelated foreground activity (a cron job,
	// a log rotation, a stray compile) that bleeds another workload's
	// kernel footprint into this interval. Bursts are what keep the
	// clustering evaluation honest — without them every interval is a
	// textbook member of its class and purity is trivially 1.0. Negative
	// disables; zero uses DefaultBurstProb.
	BurstProb float64
}

// DefaultRareEvents is the default mean number of sporadic events per
// interval.
const DefaultRareEvents = 12

// rareEventCostNS is the base virtual cost of one sporadic invocation.
const rareEventCostNS = 150

// DefaultBurstProb is the default per-interval contamination probability.
const DefaultBurstProb = 0.12

// burstCatalog is the pool of foreground activities a contamination burst
// draws from, with their full-tilt rates; a burst runs one of them at a
// random fraction of that rate for the interval.
var burstCatalog = []OpRate{
	{Op: kernel.OpDbenchIO, PerSec: 700},
	{Op: kernel.OpScpChunk, PerSec: 260},
	{Op: kernel.OpCompileUnit, PerSec: 1.6},
	{Op: kernel.OpHTTPRequest, PerSec: 1800},
	{Op: kernel.OpDiskRead, PerSec: 350},
	{Op: kernel.OpFsyncOp, PerSec: 18},
	{Op: kernel.OpForkSh, PerSec: 25},
	{Op: kernel.OpMmapFile, PerSec: 40},
}

// DefaultDriftSigma is the default slow-drift sigma.
const DefaultDriftSigma = 0.03

// driftClamp bounds the multiplicative drift factor so a long run cannot
// wander into a different workload's regime.
const (
	driftMin = 0.7
	driftMax = 1.4
)

// Runner executes a workload spec against an engine.
type Runner struct {
	eng   *kernel.Engine
	spec  Spec
	rng   *rand.Rand
	drift []float64
}

// NewRunner validates the spec against the engine's catalog and modules
// and returns a runner. The seed isolates this workload's noise stream
// from the engine's.
func NewRunner(eng *kernel.Engine, spec Spec, seed int64) (*Runner, error) {
	if eng == nil {
		return nil, fmt.Errorf("workload: nil engine")
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("workload: spec needs a name")
	}
	if len(spec.Ops) == 0 {
		return nil, fmt.Errorf("workload %s: empty op mix", spec.Name)
	}
	for _, or := range spec.Ops {
		if or.PerSec <= 0 {
			return nil, fmt.Errorf("workload %s: op %s has non-positive rate %v", spec.Name, or.Op, or.PerSec)
		}
		if or.Jitter < 0 {
			return nil, fmt.Errorf("workload %s: op %s has negative jitter", spec.Name, or.Op)
		}
		if or.Module == "" {
			if _, err := eng.Catalog().Op(or.Op); err != nil {
				return nil, fmt.Errorf("workload %s: %w", spec.Name, err)
			}
		} else {
			m, err := eng.Module(or.Module)
			if err != nil {
				return nil, fmt.Errorf("workload %s: %w", spec.Name, err)
			}
			if _, err := m.Op(or.Op); err != nil {
				return nil, fmt.Errorf("workload %s: %w", spec.Name, err)
			}
		}
	}
	drift := make([]float64, len(spec.Ops))
	for i := range drift {
		drift[i] = 1
	}
	return &Runner{
		eng:   eng,
		spec:  spec,
		rng:   rand.New(rand.NewSource(seed)),
		drift: drift,
	}, nil
}

// RunInterval executes one monitoring interval of virtual duration d:
// every op in the mix runs rate×seconds times, modulated by drift and
// jitter, and user-mode time is charged. It returns the total virtual
// kernel time consumed by the interval's batches.
func (r *Runner) RunInterval(d time.Duration) (time.Duration, error) {
	if d <= 0 {
		return 0, fmt.Errorf("workload %s: non-positive interval %v", r.spec.Name, d)
	}
	secs := d.Seconds()
	driftSigma := r.spec.DriftSigma
	if driftSigma == 0 {
		driftSigma = DefaultDriftSigma
	}
	var kernelTime time.Duration
	for i, or := range r.spec.Ops {
		// Slow drift: multiplicative random walk, clamped.
		r.drift[i] *= math.Exp(driftSigma * r.rng.NormFloat64())
		if r.drift[i] < driftMin {
			r.drift[i] = driftMin
		} else if r.drift[i] > driftMax {
			r.drift[i] = driftMax
		}
		sigma := or.Jitter
		if sigma == 0 {
			sigma = DefaultJitter
		}
		// Mean-preserving lognormal: E[exp(sigma*Z - sigma^2/2)] = 1.
		noise := math.Exp(sigma*r.rng.NormFloat64() - sigma*sigma/2)
		times := int(math.Round(or.PerSec * secs * r.drift[i] * noise))
		if times == 0 {
			continue
		}
		var (
			dt  time.Duration
			err error
		)
		if or.Module == "" {
			dt, err = r.eng.ExecOpName(or.Op, times)
		} else {
			dt, err = r.eng.ExecModuleOp(or.Module, or.Op, times)
		}
		if err != nil {
			return kernelTime, fmt.Errorf("workload %s: %w", r.spec.Name, err)
		}
		kernelTime += dt
	}
	if err := r.runRareEvents(secs); err != nil {
		return kernelTime, err
	}
	if err := r.runBurst(secs); err != nil {
		return kernelTime, err
	}
	if r.spec.UserPerSec > 0 {
		user := time.Duration(float64(r.spec.UserPerSec) * secs)
		if err := r.eng.RecordUser(0, user); err != nil {
			return kernelTime, err
		}
	}
	return kernelTime, nil
}

// runRareEvents injects the interval's sporadic one-off invocations.
func (r *Runner) runRareEvents(secs float64) error {
	mean := r.spec.RareEventsPerInterval
	if mean == 0 {
		mean = DefaultRareEvents
	}
	if mean < 0 {
		return nil
	}
	// Scale with interval length relative to the 10 s reference, so short
	// intervals see proportionally fewer sporadic events.
	mean *= secs / 10
	n := int(math.Round(mean * math.Exp(0.4*r.rng.NormFloat64()-0.08)))
	dim := r.eng.SymbolTable().Len()
	for i := 0; i < n; i++ {
		fn := kernel.FuncID(r.rng.Intn(dim))
		count := uint64(1 + r.rng.Intn(12))
		if err := r.eng.InvokeRaw(r.rng.Intn(r.eng.NumCPU()), fn, count, rareEventCostNS); err != nil {
			return fmt.Errorf("workload %s: rare event: %w", r.spec.Name, err)
		}
	}
	return nil
}

// runBurst rolls the contamination dice and, on a hit, runs one random
// burst activity at a random intensity for this interval.
func (r *Runner) runBurst(secs float64) error {
	prob := r.spec.BurstProb
	if prob == 0 {
		prob = DefaultBurstProb
	}
	if prob < 0 || r.rng.Float64() >= prob {
		return nil
	}
	burst := burstCatalog[r.rng.Intn(len(burstCatalog))]
	// Most bursts are mild; a minority are heavy enough to dominate the
	// interval (a backup job or stray build eating the machine).
	intensity := 0.15 + 0.85*r.rng.Float64()
	if r.rng.Float64() < 0.45 {
		intensity = 1.5 + 2.0*r.rng.Float64()
	}
	times := int(math.Round(burst.PerSec * secs * intensity))
	if times == 0 {
		return nil
	}
	if _, err := r.eng.ExecOpName(burst.Op, times); err != nil {
		return fmt.Errorf("workload %s: burst: %w", r.spec.Name, err)
	}
	return nil
}

// Background returns the op mix every monitored system carries regardless
// of the foreground workload: timer ticks, softirq housekeeping, and the
// Fmeter logging daemon's own kernel footprint (§5's measurement
// interference, which idf attenuates). perCPUHz is the tick rate per CPU.
func Background(numCPU int, logIntervalSec float64) []OpRate {
	logRate := 0.1
	if logIntervalSec > 0 {
		logRate = 1 / logIntervalSec
	}
	return []OpRate{
		{Op: kernel.OpTimerTick, PerSec: 250 * float64(numCPU), Jitter: 0.02},
		{Op: kernel.OpBgHousekeep, PerSec: 40, Jitter: 0.10},
		{Op: kernel.OpDaemonLog, PerSec: logRate, Jitter: 0.05},
	}
}

// withBackground appends the standard background mix to ops.
func withBackground(ops []OpRate, numCPU int, logIntervalSec float64) []OpRate {
	return append(append([]OpRate{}, ops...), Background(numCPU, logIntervalSec)...)
}

// Kcompile is the paper's kernel-compile workload: parallel compiler
// processes fork/exec, fault in address spaces, scan headers, and write
// objects; most CPU time is user-mode (gcc itself).
func Kcompile(numCPU int) Spec {
	return Spec{
		Name: "kcompile",
		Ops: withBackground([]OpRate{
			{Op: kernel.OpCompileUnit, PerSec: 8},
			{Op: kernel.OpForkExit, PerSec: 6, Jitter: 0.25},
			{Op: kernel.OpSimpleStat, PerSec: 900, Jitter: 0.22},
			{Op: kernel.OpSimpleOpenClose, PerSec: 350, Jitter: 0.22},
			{Op: kernel.OpSimpleRead, PerSec: 2500, Jitter: 0.20},
			{Op: kernel.OpPageFault, PerSec: 9000, Jitter: 0.20},
			{Op: kernel.OpCtxSwitch, PerSec: 2500, Jitter: 0.15},
			{Op: kernel.OpPipeLatency, PerSec: 120, Jitter: 0.30}, // make jobserver
		}, numCPU, 10),
		UserPerSec: 13 * time.Second, // ~13 user CPU-seconds/s on 16 CPUs (make -j)
	}
}

// Scp is the secure-copy workload: disk reads, AES/SHA crypto, and a
// saturated TCP stream.
func Scp(numCPU int) Spec {
	return Spec{
		Name: "scp",
		Ops: withBackground([]OpRate{
			{Op: kernel.OpScpChunk, PerSec: 1200},
			{Op: kernel.OpSelect10TCP, PerSec: 600, Jitter: 0.20},
			{Op: kernel.OpCtxSwitch, PerSec: 3200, Jitter: 0.15},
			{Op: kernel.OpSimpleRead, PerSec: 300, Jitter: 0.25},
			{Op: kernel.OpSignalHandle, PerSec: 4, Jitter: 0.4},
		}, numCPU, 10),
		UserPerSec: 1800 * time.Millisecond, // ssh's cipher work
	}
}

// Dbench is the disk-throughput benchmark workload: a metadata-heavy
// filesystem transaction mix with periodic fsyncs.
func Dbench(numCPU int) Spec {
	return Spec{
		Name: "dbench",
		Ops: withBackground([]OpRate{
			{Op: kernel.OpDbenchIO, PerSec: 3500},
			{Op: kernel.OpFsyncOp, PerSec: 45, Jitter: 0.30},
			{Op: kernel.OpDiskWrite, PerSec: 900, Jitter: 0.22},
			{Op: kernel.OpDiskRead, PerSec: 500, Jitter: 0.22},
			{Op: kernel.OpCtxSwitch, PerSec: 4200, Jitter: 0.15},
			{Op: kernel.OpSimpleStat, PerSec: 700, Jitter: 0.25},
		}, numCPU, 10),
		UserPerSec: 400 * time.Millisecond,
	}
}

// Apachebench is the closed-loop HTTP macro-benchmark of Table 2: the
// request rate is not an input — the experiment executes a fixed request
// count and derives requests/second from the virtual clock.
func Apachebench(numCPU int) Spec {
	return Spec{
		Name: "apachebench",
		Ops: withBackground([]OpRate{
			{Op: kernel.OpHTTPRequest, PerSec: 14000},
			{Op: kernel.OpCtxSwitch, PerSec: 9000, Jitter: 0.15},
		}, numCPU, 10),
		UserPerSec: 2500 * time.Millisecond,
	}
}

// Boot is the Figure 1 workload: one execution of the boot-phase op,
// touching the entire symbol table with power-law weights.
func Boot() Spec {
	return Spec{
		Name:       "boot",
		Ops:        []OpRate{{Op: kernel.OpBootPhase, PerSec: 0.5, Jitter: 0.01}},
		DriftSigma: 1e-9, // effectively no drift in a single boot
		BurstProb:  -1,   // nothing else runs during boot
	}
}
