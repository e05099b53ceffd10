//fmeter:nondeterministic-ok benchmark harness: the collection path is timed on the wall clock

package main

import (
	"fmt"
	"time"

	fmeter "repro"
	"repro/internal/daemon"
	"repro/internal/debugfs"
	"repro/internal/kernel"
	"repro/internal/trace"
	simwl "repro/internal/workload"
)

const collectInterval = 10 * time.Second // virtual time per monitoring interval

// The paper's workloads. netperf needs a loaded driver module and is
// left out.
var simulated = map[string]func() fmeter.WorkloadSpec{
	"scp":         fmeter.ScpWorkload,
	"kcompile":    fmeter.KcompileWorkload,
	"dbench":      fmeter.DbenchWorkload,
	"apachebench": fmeter.ApachebenchWorkload,
}

var simulatedOrder = []string{"scp", "kcompile", "dbench", "apachebench"}

// collected is what the collection phase observed.
type collected struct {
	batchMs           []float64 // one per CollectStream call
	retries, skipped  uint64
	attempted, failed int
	problems          []string
}

// collectPhase drives the paper's own path through the facade: boot the
// simulated machine, fit a model on a warm-up of all four workloads,
// then stream the named workloads' intervals through the daemon into a
// live DB in calls of collectBatch intervals each, between calls[0] and
// calls[1] rounds of one call per workload.
func collectPhase(names []string, seed int64, procs int, calls [2]int) (*collected, error) {
	sys, err := fmeter.New(fmeter.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	var warm []*fmeter.Document
	for _, name := range simulatedOrder {
		docs, err := sys.Collect(simulated[name](), collectWarmup, collectInterval, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", name, err)
		}
		warm = append(warm, docs...)
	}
	_, model, err := fmeter.BuildSignatures(warm, sys.Dim())
	if err != nil {
		return nil, err
	}
	db, err := fmeter.NewDB(sys.Dim(), fmeter.WithShards(procs))
	if err != nil {
		return nil, err
	}
	defer db.Close()
	sys.SetIngestBatch(collectBatch)

	c := &collected{}
	for call, start := 0, time.Now(); !enough(call, time.Since(start), calls[0], calls[1]); call++ {
		for _, name := range names {
			c.attempted++
			t := time.Now()
			n, err := sys.CollectStream(simulated[name](), collectBatch, collectInterval, model, db, nil)
			d := time.Since(t)
			if err == nil && n != collectBatch {
				err = fmt.Errorf("%s: %d of %d intervals reached the store", name, n, collectBatch)
			}
			if err != nil {
				c.failed++
				if len(c.problems) < 5 {
					c.problems = append(c.problems, err.Error())
				}
				continue
			}
			c.batchMs = append(c.batchMs, ms(d))
		}
	}
	if want := (c.attempted - c.failed) * collectBatch; db.Len() != want {
		c.failed++
		c.problems = append(c.problems, fmt.Sprintf("collection store holds %d signatures, want %d", db.Len(), want))
	}
	stats := sys.CollectorStats()
	c.retries, c.skipped = stats.Retries, stats.SkippedIntervals
	return c, nil
}

// collectLayers times the modules of the collection path one by one, on
// a machine assembled the way fmeter.New assembles it: the simulated
// kernel under the Fmeter backend and under no backend, the per-CPU
// counter snapshot, the debugfs read and parse, and one daemon interval.
func collectLayers(name string, seed int64, reps int, set func(string, float64)) error {
	spec := simulated[name]()
	const cpus = 16 // fmeter.New's default, the paper's testbed width

	st := kernel.NewSymbolTable()
	cat, err := kernel.NewCatalog(st)
	if err != nil {
		return err
	}
	fm, err := trace.NewFmeter(st, cpus)
	if err != nil {
		return err
	}
	fs := debugfs.New()
	if err := fm.RegisterDebugfs(fs); err != nil {
		return err
	}
	runner := func(backend kernel.Backend) (*simwl.Runner, error) {
		eng, err := kernel.NewEngine(cat, kernel.EngineConfig{NumCPU: cpus, Backend: backend, Seed: seed, CountJitter: 0.02, LatencyJitter: 0.01})
		if err != nil {
			return nil, err
		}
		return simwl.NewRunner(eng, spec, seed+101)
	}
	traced, err := runner(fm)
	if err != nil {
		return err
	}
	vanilla, err := runner(kernel.NopBackend())
	if err != nil {
		return err
	}
	col, err := daemon.NewCollector(fs, st)
	if err != nil {
		return err
	}

	// The two kernels alternate so a slow stretch of the host lands on both.
	var tracedUs, vanillaUs []float64
	for i := 0; i < reps; i++ {
		for _, side := range []struct {
			r   *simwl.Runner
			out *[]float64
		}{{traced, &tracedUs}, {vanilla, &vanillaUs}} {
			t := time.Now()
			if _, err := side.r.RunInterval(collectInterval); err != nil {
				return err
			}
			*side.out = append(*side.out, us(time.Since(t)))
		}
	}
	set("kernel.run_interval_us", median(tracedUs))
	set("kernel.run_interval_vanilla_us", median(vanillaUs))
	set("trace.fmeter_overhead_share", (median(tracedUs)-median(vanillaUs))/median(vanillaUs))

	var snapUs, readUs, intervalUs []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		_ = fm.Snapshot()
		snapUs = append(snapUs, us(time.Since(t)))

		t = time.Now()
		if _, err := col.ReadCounters(); err != nil {
			return err
		}
		readUs = append(readUs, us(time.Since(t)))

		t = time.Now()
		_, err := col.CollectInterval("probe", name, collectInterval, func(d time.Duration) error {
			_, err := traced.RunInterval(d)
			return err
		})
		if err != nil {
			return err
		}
		intervalUs = append(intervalUs, us(time.Since(t)))
	}
	set("percpu.snapshot_us", median(snapUs))
	set("debugfs.read_counters_us", median(readUs))
	set("daemon.collect_interval_us", median(intervalUs))
	return nil
}
