// Package daemon implements the user-space logging daemon of §3: it
// periodically reads the kernel function invocation counts through the
// debugfs interface, computes the difference across each collection
// interval, and logs the resulting raw-count documents to disk. The
// tf-idf transformation happens later, "once an entire corpus is
// generated". Boot wires the simulated machine the daemon monitors.
package daemon

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/debugfs"
	"repro/internal/kernel"
	"repro/internal/percpu"
	"repro/internal/trace"
)

// ErrCountersUnavailable wraps a debugfs read failure that persisted
// through the whole retry schedule. The series collectors treat it as a
// degraded interval — skip and count — rather than a run-ending fault;
// everything else (workload errors, counter wraps, a removed node)
// still aborts.
var ErrCountersUnavailable = errors.New("daemon: counters unavailable")

// RetryPolicy governs how the collector handles transient debugfs read
// failures: each failed read is retried Retries more times, sleeping
// Backoff<<attempt before each retry with the delay jittered uniformly
// in [1-Jitter, 1+Jitter] so a fleet of daemons doesn't re-read in
// lockstep. Retries <= 0 disables retrying (and with it the
// skip-don't-abort behaviour, restoring fail-fast semantics).
type RetryPolicy struct {
	Retries int
	Backoff time.Duration
	Jitter  float64
}

// DefaultRetryPolicy retries three times over ~70ms of jittered
// exponential backoff — long enough to ride out a torn read or a
// transiently busy debugfs, short next to any sane collection interval.
var DefaultRetryPolicy = RetryPolicy{Retries: 3, Backoff: 10 * time.Millisecond, Jitter: 0.5}

// Stats are the collector's degradation counters: how many reads needed
// a retry, and how many intervals were dropped after the retries ran
// out. A long-running daemon exports these instead of dying.
type Stats struct {
	Retries          uint64
	SkippedIntervals uint64
}

// Collector reads counters through debugfs and produces interval
// documents.
type Collector struct {
	fs *debugfs.FS
	st *kernel.SymbolTable

	policy  RetryPolicy
	sleepFn func(time.Duration) // test seam; time.Sleep
	randFn  func() float64      // test seam; rand.Float64
	warnf   func(format string, args ...any)
	retries atomic.Uint64
	skipped atomic.Uint64

	// ingestBatch is how many signatures CollectStream buffers before
	// publishing them in one AddAll; <= 1 keeps per-signature Add.
	ingestBatch int
}

// NewCollector builds a collector over the debugfs instance where an
// Fmeter backend registered its counters node.
func NewCollector(fs *debugfs.FS, st *kernel.SymbolTable) (*Collector, error) {
	if fs == nil {
		return nil, fmt.Errorf("daemon: nil debugfs")
	}
	if st == nil {
		return nil, fmt.Errorf("daemon: nil symbol table")
	}
	if !fs.Exists(trace.CountersPath) {
		return nil, fmt.Errorf("daemon: %s not present; is the Fmeter backend registered?", trace.CountersPath)
	}
	return &Collector{
		fs:      fs,
		st:      st,
		policy:  DefaultRetryPolicy,
		sleepFn: time.Sleep,
		//fmeter:nondeterministic-ok backoff jitter is deliberately unseeded so retrying daemons decorrelate
		randFn: rand.Float64,
	}, nil
}

// SetRetryPolicy replaces the read retry schedule (see RetryPolicy).
func (c *Collector) SetRetryPolicy(p RetryPolicy) {
	if p.Retries < 0 {
		p.Retries = 0
	}
	c.policy = p
}

// SetWarnf installs the sink for the collector's counted warnings
// (retry exhaustion, skipped intervals). nil silences them; a daemon
// typically passes log.Printf.
func (c *Collector) SetWarnf(fn func(format string, args ...any)) { c.warnf = fn }

// SetIngestBatch makes CollectStream buffer up to n embedded signatures
// and publish them with a single AddAll instead of one Add (and thus
// one RCU view publication) per signature — amortizing the writer-lock
// epoch churn that ROADMAP flagged on the live-ingestion path. n <= 1
// restores the per-signature behavior. The stream still flushes the
// partial tail batch at the end and before surfacing any abort error,
// so callers observe exactly the same signatures in the DB either way.
func (c *Collector) SetIngestBatch(n int) { c.ingestBatch = n }

// Stats returns the degradation counters accumulated so far.
func (c *Collector) Stats() Stats {
	return Stats{Retries: c.retries.Load(), SkippedIntervals: c.skipped.Load()}
}

func (c *Collector) warn(format string, args ...any) {
	if c.warnf != nil {
		c.warnf(format, args...)
	}
}

// backoff is the jittered exponential delay before retry attempt k.
func (c *Collector) backoff(attempt int) time.Duration {
	d := c.policy.Backoff << uint(attempt)
	if j := c.policy.Jitter; j > 0 {
		d = time.Duration(float64(d) * (1 + j*(2*c.randFn()-1)))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// readOnce performs one read+parse of the counter export.
func (c *Collector) readOnce() ([]uint64, error) {
	data, err := c.fs.ReadFile(trace.CountersPath)
	if err != nil {
		return nil, fmt.Errorf("daemon: reading counters: %w", err)
	}
	counts, err := trace.UnmarshalCounters(c.st, data)
	if err != nil {
		return nil, fmt.Errorf("daemon: parsing counters: %w", err)
	}
	return counts, nil
}

// ReadCounters reads and parses the current counter export, retrying
// transient failures per the RetryPolicy. A missing or write-only node
// is permanent (the backend unregistered) and fails immediately; any
// other failure is retried, and once the schedule runs out the error
// wraps both ErrCountersUnavailable and the last underlying cause.
func (c *Collector) ReadCounters() ([]uint64, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		counts, err := c.readOnce()
		if err == nil {
			return counts, nil
		}
		if errors.Is(err, debugfs.ErrNotFound) || errors.Is(err, debugfs.ErrNotSupported) {
			return nil, err
		}
		lastErr = err
		if attempt >= c.policy.Retries {
			if c.policy.Retries <= 0 {
				return nil, lastErr
			}
			return nil, fmt.Errorf("%w after %d attempts: %w", ErrCountersUnavailable, attempt+1, lastErr)
		}
		c.retries.Add(1)
		c.warn("daemon: counter read failed (attempt %d/%d), retrying: %v", attempt+1, c.policy.Retries+1, err)
		c.sleepFn(c.backoff(attempt))
	}
}

// CollectInterval reads the counters, runs one monitoring interval via
// run (which should advance the simulated system by d), reads the counters
// again, and returns the difference as a labeled document.
func (c *Collector) CollectInterval(id, label string, d time.Duration, run func(time.Duration) error) (*core.Document, error) {
	if d <= 0 {
		return nil, fmt.Errorf("daemon: non-positive interval %v", d)
	}
	if run == nil {
		return nil, fmt.Errorf("daemon: nil interval body")
	}
	before, err := c.ReadCounters()
	if err != nil {
		return nil, err
	}
	if err := run(d); err != nil {
		return nil, fmt.Errorf("daemon: interval body: %w", err)
	}
	after, err := c.ReadCounters()
	if err != nil {
		return nil, err
	}
	diff, err := percpu.Diff(before, after)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	return core.NewDocument(id, label, d, diff), nil
}

// CollectSeries collects n consecutive intervals, optionally streaming
// each document to w (nil w disables logging). Documents are named
// "<prefix>-<index>". An interval whose counter reads stay unavailable
// through the whole retry schedule is skipped with a counted warning
// (see Stats) instead of aborting the run — a long-lived daemon
// degrades, it does not die — so the result can hold fewer than n
// documents. Any other failure still aborts with the documents
// collected so far.
func (c *Collector) CollectSeries(prefix, label string, n int, d time.Duration, run func(time.Duration) error, w io.Writer) ([]*core.Document, error) {
	if n < 1 {
		return nil, fmt.Errorf("daemon: series length %d must be >= 1", n)
	}
	docs := make([]*core.Document, 0, n)
	for i := 0; i < n; i++ {
		doc, err := c.CollectInterval(fmt.Sprintf("%s-%04d", prefix, i), label, d, run)
		if err != nil {
			if errors.Is(err, ErrCountersUnavailable) {
				c.skipped.Add(1)
				c.warn("daemon: skipping interval %d (%d skipped so far): %v", i, c.skipped.Load(), err)
				continue
			}
			return docs, fmt.Errorf("daemon: interval %d: %w", i, err)
		}
		docs = append(docs, doc)
		if w != nil {
			if err := core.WriteDocuments(w, []*core.Document{doc}); err != nil {
				return docs, fmt.Errorf("daemon: logging interval %d: %w", i, err)
			}
		}
	}
	return docs, nil
}

// CollectStream collects n consecutive intervals and feeds each one
// straight into a live signature database: the interval document is
// embedded through the fitted tf-idf model, L2-normalized, and Added to
// db the moment its interval ends. Under the DB's epoch-view contract
// this ingestion runs safely while other goroutines query db — the
// always-on serving posture of a production daemon. Unavailable-counter
// intervals are retried and then skipped exactly like CollectSeries; a
// non-nil w additionally logs each raw document as JSON Lines. Returns
// the number of signatures added.
func (c *Collector) CollectStream(prefix, label string, n int, d time.Duration, run func(time.Duration) error, model *core.Model, db *core.DB, w io.Writer) (int, error) {
	if n < 1 {
		return 0, fmt.Errorf("daemon: series length %d must be >= 1", n)
	}
	if model == nil {
		return 0, fmt.Errorf("daemon: nil model")
	}
	if db == nil {
		return 0, fmt.Errorf("daemon: nil database")
	}
	// With an ingest batch configured, embedded signatures accumulate in
	// buf and publish through one AddAll per flush — one epoch view
	// publication amortized over the whole batch. flush is called on a
	// full buffer, at stream end, and before every abort return, so the
	// DB contents match the per-signature path exactly.
	batch := c.ingestBatch
	var buf []core.Signature
	if batch > 1 {
		buf = make([]core.Signature, 0, batch)
	}
	added := 0
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if err := db.AddAll(buf); err != nil {
			return err
		}
		added += len(buf)
		buf = buf[:0]
		return nil
	}
	for i := 0; i < n; i++ {
		doc, err := c.CollectInterval(fmt.Sprintf("%s-%04d", prefix, i), label, d, run)
		if err != nil {
			if errors.Is(err, ErrCountersUnavailable) {
				c.skipped.Add(1)
				c.warn("daemon: skipping interval %d (%d skipped so far): %v", i, c.skipped.Load(), err)
				continue
			}
			if ferr := flush(); ferr != nil {
				return added, fmt.Errorf("daemon: flushing before abort at interval %d: %w", i, ferr)
			}
			return added, fmt.Errorf("daemon: interval %d: %w", i, err)
		}
		sig, err := model.Transform(doc)
		if err != nil {
			if ferr := flush(); ferr != nil {
				return added, fmt.Errorf("daemon: flushing before abort at interval %d: %w", i, ferr)
			}
			return added, fmt.Errorf("daemon: embedding interval %d: %w", i, err)
		}
		sigs := []core.Signature{sig}
		core.Normalize(sigs)
		if batch > 1 {
			buf = append(buf, sigs[0])
			if len(buf) >= batch {
				if err := flush(); err != nil {
					return added, fmt.Errorf("daemon: ingesting batch at interval %d: %w", i, err)
				}
			}
		} else {
			if err := db.Add(sigs[0]); err != nil {
				return added, fmt.Errorf("daemon: ingesting interval %d: %w", i, err)
			}
			added++
		}
		if w != nil {
			if err := core.WriteDocuments(w, []*core.Document{doc}); err != nil {
				if ferr := flush(); ferr != nil {
					return added, fmt.Errorf("daemon: flushing before abort at interval %d: %w", i, ferr)
				}
				return added, fmt.Errorf("daemon: logging interval %d: %w", i, err)
			}
		}
	}
	if err := flush(); err != nil {
		return added, fmt.Errorf("daemon: ingesting final batch: %w", err)
	}
	return added, nil
}
