package serve

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// OverloadError is returned when MaxQueue query requests are already
// admitted. It maps to HTTP 429 with a Retry-After derived from the
// recent per-request kernel time.
type OverloadError struct {
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
	// Depth is the admitted-request count (running + waiting) observed
	// at rejection time.
	Depth int
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: %d requests admitted, retry after %s", e.Depth, e.RetryAfter)
}

// errDraining is what query and ingest requests see once shutdown has
// begun; handlers map it to 503.
var errDraining = &core.ConfigError{Param: "server", Msg: "server is draining"}

// gate is the admission bound every query request passes on its own
// goroutine. It admits at most limit requests (running + waiting) and
// lets at most GOMAXPROCS of them hold a run slot, i.e. be inside a
// query, at once. A request waiting for a slot holds only its decoded
// body — no scratch, no view — so limit bounds the memory queries can
// claim. The slots bound queries, not goroutines: a slot holder walks
// its store's lanes itself and on up to lanes − 1 helper goroutines
// (parallel.For; lanes ≤ the DB's SetWorkers fan-out, GOMAXPROCS by
// default), so the holders may run GOMAXPROCS × lanes goroutines at
// once — four at GOMAXPROCS 2 — and the Go scheduler shares the cores
// among them.
type gate struct {
	limit int
	slots chan struct{} // run slots; a send takes one, a receive returns it

	mu       sync.Mutex
	admitted int  // requests between admit and leave
	closed   bool // drain has begun: admit refuses
	idle     sync.Cond

	// ewmaRunNS tracks the recent wall-clock time one request spent
	// holding a run slot, feeding the Retry-After estimate.
	ewmaRunNS atomic.Int64
}

func newGate(limit int) *gate {
	g := &gate{limit: limit, slots: make(chan struct{}, runtime.GOMAXPROCS(0))}
	g.idle.L = &g.mu
	return g
}

// admit counts the caller in, or refuses: a draining gate with the
// typed 503 error, a full one with *OverloadError.
func (g *gate) admit() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return errDraining
	}
	if g.admitted >= g.limit {
		return &OverloadError{RetryAfter: g.retryAfter(g.admitted), Depth: g.admitted}
	}
	g.admitted++
	return nil
}

// leave counts an admitted caller out and wakes a drain waiting for
// the last one.
func (g *gate) leave() {
	g.mu.Lock()
	g.admitted--
	if g.closed && g.admitted == 0 {
		g.idle.Broadcast()
	}
	g.mu.Unlock()
}

// enter admits the caller and blocks until it holds a run slot. A nil
// return must be paired with exit. If ctx ends while the caller waits
// it leaves again, never having run, and enter wraps ctx's error.
func (g *gate) enter(ctx context.Context) error {
	if err := g.admit(); err != nil {
		return err
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		g.leave()
		return fmt.Errorf("serve: request ended waiting for a run slot: %w", ctx.Err())
	}
}

// exit returns the caller's run slot after it held it for ran.
func (g *gate) exit(ran time.Duration) {
	<-g.slots
	// EWMA (alpha 1/4), seeded by the first sample; a lost update between
	// two exits only skips one sample of an estimate.
	old := g.ewmaRunNS.Load()
	if old == 0 {
		old = ran.Nanoseconds()
	}
	g.ewmaRunNS.Store(old + (ran.Nanoseconds()-old)/4)
	g.leave()
}

// depth reports the admitted-request count (running + waiting).
func (g *gate) depth() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.admitted
}

// retryAfter estimates when depth admitted requests will have run:
// rounds of cap(slots) requests ahead, times the recent per-request
// cost, clamped to [1s, 60s] (whole seconds — HTTP Retry-After has no
// finer grain).
func (g *gate) retryAfter(depth int) time.Duration {
	per := g.ewmaRunNS.Load()
	if per <= 0 {
		per = int64(time.Millisecond)
	}
	rounds := depth/cap(g.slots) + 1
	secs := math.Ceil(time.Duration(int64(rounds) * per).Seconds())
	return time.Duration(min(max(secs, 1), 60)) * time.Second
}

// drain stops intake and returns once every admitted request has left:
// each holds or is waiting for a run slot on its own goroutine, so none
// can be lost, only finish.
func (g *gate) drain() {
	g.mu.Lock()
	g.closed = true
	for g.admitted > 0 {
		g.idle.Wait()
	}
	g.mu.Unlock()
}
