package daemon

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/debugfs"
	"repro/internal/kernel"
	"repro/internal/percpu"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestCounterResetMidIntervalSurfacesWrap: if the counters are zeroed
// between the daemon's two reads (someone echoed into fmeter/reset), the
// after-snapshot is below the before-snapshot and the collector must
// report the wrap instead of producing a bogus huge diff.
func TestCounterResetMidIntervalSurfacesWrap(t *testing.T) {
	h := newHarness(t, workload.Scp(16), 50)
	// Prime some counts so before > 0.
	if _, err := h.run.RunInterval(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	body := func(d time.Duration) error {
		// Workload runs, then the counters get reset mid-interval.
		if _, err := h.run.RunInterval(d); err != nil {
			return err
		}
		h.fm.Reset()
		return nil
	}
	_, err := h.col.CollectInterval("wrap", "scp", 10*time.Second, body)
	if !errors.Is(err, percpu.ErrCounterWrapped) {
		t.Fatalf("want ErrCounterWrapped, got %v", err)
	}
}

// TestIntervalBodyErrorPropagates: a failure inside the monitored interval
// aborts the collection with context.
func TestIntervalBodyErrorPropagates(t *testing.T) {
	h := newHarness(t, workload.Scp(16), 51)
	boom := errors.New("workload crashed")
	_, err := h.col.CollectInterval("x", "scp", time.Second, func(time.Duration) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want workload error, got %v", err)
	}
}

// TestSeriesReturnsPartialResultsOnFailure: CollectSeries hands back the
// documents collected before the failing interval.
func TestSeriesReturnsPartialResultsOnFailure(t *testing.T) {
	h := newHarness(t, workload.Scp(16), 52)
	calls := 0
	body := func(d time.Duration) error {
		calls++
		if calls == 3 {
			return fmt.Errorf("disk full")
		}
		_, err := h.run.RunInterval(d)
		return err
	}
	docs, err := h.col.CollectSeries("p", "scp", 5, time.Second, body, nil)
	if err == nil {
		t.Fatal("expected failure on interval 3")
	}
	if len(docs) != 2 {
		t.Fatalf("partial docs = %d, want 2", len(docs))
	}
}

// TestDebugfsNodeRemovedMidRun: unregistering the counters node between
// intervals produces a clean read error, not a panic.
func TestDebugfsNodeRemovedMidRun(t *testing.T) {
	h := newHarness(t, workload.Scp(16), 53)
	if _, err := h.col.CollectInterval("ok", "scp", time.Second, h.body); err != nil {
		t.Fatal(err)
	}
	if err := h.fs.Remove(trace.CountersPath); err != nil {
		t.Fatal(err)
	}
	_, err := h.col.CollectInterval("gone", "scp", time.Second, h.body)
	if !errors.Is(err, debugfs.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

// TestCorruptCountersExport: a debugfs node serving garbage is reported as
// a parse error.
func TestCorruptCountersExport(t *testing.T) {
	st := kernel.NewSymbolTable()
	fs := debugfs.New()
	err := fs.Create(trace.CountersPath, func() ([]byte, error) {
		return []byte("garbage not counters\n"), nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewCollector(fs, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.ReadCounters(); err == nil {
		t.Fatal("corrupt export should fail to parse")
	}
}

// TestReadHandlerErrorPropagates: a failing read handler surfaces through
// the collector with context.
func TestReadHandlerErrorPropagates(t *testing.T) {
	st := kernel.NewSymbolTable()
	fs := debugfs.New()
	ioErr := errors.New("simulated EIO")
	err := fs.Create(trace.CountersPath, func() ([]byte, error) {
		return nil, ioErr
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewCollector(fs, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.ReadCounters(); !errors.Is(err, ioErr) {
		t.Fatalf("want simulated EIO, got %v", err)
	}
}

// TestReadRetryRecoversFromTransientFailure: a read that fails twice and
// then succeeds is retried with the policy's jittered exponential
// backoff and returns counters as if nothing happened; only the retry
// counter betrays the bumps.
func TestReadRetryRecoversFromTransientFailure(t *testing.T) {
	h := newHarness(t, workload.Scp(16), 54)
	ioErr := errors.New("simulated EIO")
	fs2 := debugfs.New()
	readN := 0
	err := fs2.Create(trace.CountersPath, func() ([]byte, error) {
		readN++
		if readN <= 2 {
			return nil, ioErr
		}
		return h.fs.ReadFile(trace.CountersPath)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewCollector(fs2, h.st)
	if err != nil {
		t.Fatal(err)
	}
	var delays []time.Duration
	col.sleepFn = func(d time.Duration) { delays = append(delays, d) }
	col.randFn = func() float64 { return 1 } // jitter factor pinned to 1+Jitter
	col.SetRetryPolicy(RetryPolicy{Retries: 3, Backoff: 10 * time.Millisecond, Jitter: 0.5})
	if _, err := col.ReadCounters(); err != nil {
		t.Fatalf("read with transient failures: %v", err)
	}
	if got := col.Stats().Retries; got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	want := []time.Duration{15 * time.Millisecond, 30 * time.Millisecond}
	if len(delays) != len(want) || delays[0] != want[0] || delays[1] != want[1] {
		t.Fatalf("backoff delays = %v, want %v", delays, want)
	}
}

// TestReadRetryExhaustionIsTyped: once the schedule runs out the error
// wraps both the ErrCountersUnavailable sentinel (what the series
// collectors key their skip on) and the underlying cause.
func TestReadRetryExhaustionIsTyped(t *testing.T) {
	st := kernel.NewSymbolTable()
	fs := debugfs.New()
	ioErr := errors.New("simulated EIO")
	if err := fs.Create(trace.CountersPath, func() ([]byte, error) { return nil, ioErr }, nil); err != nil {
		t.Fatal(err)
	}
	col, err := NewCollector(fs, st)
	if err != nil {
		t.Fatal(err)
	}
	col.sleepFn = func(time.Duration) {}
	col.SetRetryPolicy(RetryPolicy{Retries: 2, Backoff: time.Millisecond})
	_, err = col.ReadCounters()
	if !errors.Is(err, ErrCountersUnavailable) {
		t.Fatalf("want ErrCountersUnavailable, got %v", err)
	}
	if !errors.Is(err, ioErr) {
		t.Fatalf("exhaustion error %v should wrap the underlying cause", err)
	}
	if got := col.Stats().Retries; got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
}

// TestRetryDoesNotMaskPermanentErrors: a removed node is not transient —
// no retries, no sentinel, the original ErrNotFound surfaces untouched.
func TestRetryDoesNotMaskPermanentErrors(t *testing.T) {
	h := newHarness(t, workload.Scp(16), 55)
	col := h.col
	col.sleepFn = func(d time.Duration) { t.Fatalf("slept %v for a permanent error", d) }
	if err := h.fs.Remove(trace.CountersPath); err != nil {
		t.Fatal(err)
	}
	_, err := col.ReadCounters()
	if !errors.Is(err, debugfs.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if errors.Is(err, ErrCountersUnavailable) {
		t.Fatalf("permanent error wrongly tagged transient: %v", err)
	}
	if got := col.Stats().Retries; got != 0 {
		t.Fatalf("retries = %d, want 0", got)
	}
}

// TestSeriesSkipsUnavailableInterval: when one interval's reads stay
// down through the whole retry schedule, the series drops that interval
// with a counted warning and keeps going — the run survives.
func TestSeriesSkipsUnavailableInterval(t *testing.T) {
	h := newHarness(t, workload.Scp(16), 56)
	ioErr := errors.New("simulated EIO")
	fs2 := debugfs.New()
	readN := 0
	// Reads 1-4 serve intervals 0 and 1; interval 2's before-read and its
	// two retries (reads 5-7) all fail; interval 3 recovers.
	err := fs2.Create(trace.CountersPath, func() ([]byte, error) {
		readN++
		if readN >= 5 && readN <= 7 {
			return nil, ioErr
		}
		return h.fs.ReadFile(trace.CountersPath)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewCollector(fs2, h.st)
	if err != nil {
		t.Fatal(err)
	}
	col.sleepFn = func(time.Duration) {}
	col.SetRetryPolicy(RetryPolicy{Retries: 2, Backoff: time.Millisecond})
	warns := 0
	col.SetWarnf(func(string, ...any) { warns++ })
	docs, err := col.CollectSeries("p", "scp", 4, time.Second, h.body, nil)
	if err != nil {
		t.Fatalf("series should survive a skipped interval: %v", err)
	}
	if len(docs) != 3 {
		t.Fatalf("docs = %d, want 3 (one interval skipped)", len(docs))
	}
	if docs[2].ID != "p-0003" {
		t.Fatalf("last doc ID = %q, want p-0003 (interval 2 skipped)", docs[2].ID)
	}
	st := col.Stats()
	if st.SkippedIntervals != 1 {
		t.Fatalf("skipped = %d, want 1", st.SkippedIntervals)
	}
	if st.Retries != 2 {
		t.Fatalf("retries = %d, want 2", st.Retries)
	}
	if warns != 3 { // two retry warnings + one skip warning
		t.Fatalf("warnings = %d, want 3", warns)
	}
}

// TestCollectStreamIngestsLiveDB: CollectStream embeds each interval
// through the fitted model and lands it in the DB while a concurrent
// goroutine queries that same DB — the serving posture the epoch-view
// DB exists for.
func TestCollectStreamIngestsLiveDB(t *testing.T) {
	h := newHarness(t, workload.Dbench(16), 57)
	warm, err := h.col.CollectSeries("warm", "dbench", 6, 10*time.Second, h.body, nil)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := core.NewCorpus(h.st.Len())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range warm {
		if err := corpus.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	sigs, model, err := corpus.Signatures()
	if err != nil {
		t.Fatal(err)
	}
	core.Normalize(sigs)
	db, err := core.NewDB(h.st.Len())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AddAll(sigs); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { // live queries against the DB being ingested into
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.TopKSparse(sigs[0].W, 3, core.CosineMetric()); err != nil {
				done <- err
				return
			}
		}
	}()
	added, err := h.col.CollectStream("live", "dbench", 5, 10*time.Second, h.body, model, db, nil)
	close(stop)
	if qerr := <-done; qerr != nil {
		t.Fatalf("concurrent query during stream: %v", qerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if added != 5 {
		t.Fatalf("added = %d, want 5", added)
	}
	if db.Len() != len(sigs)+5 {
		t.Fatalf("db.Len() = %d, want %d", db.Len(), len(sigs)+5)
	}
}

// TestCollectStreamBatchedIngestAmortizesPublishes: with an ingest
// batch configured, an n-interval stream must land the same signatures
// in the DB while publishing far fewer epoch views — one AddAll per
// full batch instead of one Add per signature.
func TestCollectStreamBatchedIngestAmortizesPublishes(t *testing.T) {
	h := newHarness(t, workload.Dbench(16), 61)
	warm, err := h.col.CollectSeries("warm", "dbench", 6, 10*time.Second, h.body, nil)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := core.NewCorpus(h.st.Len())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range warm {
		if err := corpus.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	_, model, err := corpus.Signatures()
	if err != nil {
		t.Fatal(err)
	}

	const intervals = 8
	stream := func(batch int) (*core.DB, uint64) {
		t.Helper()
		db, err := core.NewDB(h.st.Len())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		h.col.SetIngestBatch(batch)
		before := db.Publishes()
		added, err := h.col.CollectStream(fmt.Sprintf("b%d", batch), "dbench", intervals, 10*time.Second, h.body, model, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		if added != intervals {
			t.Fatalf("batch=%d: added = %d, want %d", batch, added, intervals)
		}
		if db.Len() != intervals {
			t.Fatalf("batch=%d: db.Len() = %d, want %d", batch, db.Len(), intervals)
		}
		return db, db.Publishes() - before
	}

	_, unbatched := stream(1)
	_, batched := stream(4)
	if unbatched != intervals {
		t.Fatalf("unbatched stream cost %d publishes, want %d (one per Add)", unbatched, intervals)
	}
	if want := uint64(intervals / 4); batched != want {
		t.Fatalf("batched stream cost %d publishes, want %d (one per AddAll)", batched, want)
	}
}
