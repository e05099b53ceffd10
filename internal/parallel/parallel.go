// Package parallel is the repo's deterministic worker-pool helper: bounded
// fan-out over an index space, ordered result collection, and first-error
// (lowest index) propagation.
//
// Determinism contract: every helper produces results that are bit-identical
// regardless of the worker count, provided each task i depends only on its
// index (and on state derived from SplitSeed or equivalent per-index
// seeding), never on execution order. Reductions over task results must be
// performed by the caller in index order; the helpers only guarantee that
// out[i] holds task i's result. DESIGN-PERF.md documents the full model.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n > 0 is used as-is, n == 0 means
// one worker per available CPU (GOMAXPROCS), and n < 0 forces sequential
// execution. Every Workers/For/Map knob in this repo shares this convention.
func Workers(n int) int {
	switch {
	case n > 0:
		return n
	case n == 0:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// For runs fn(0..n-1) on up to workers goroutines. Tasks are claimed from a
// shared atomic counter, so scheduling is dynamic, but each task writes only
// its own state. If any task fails, no new tasks are started and the error
// with the lowest index is returned (a deterministic choice: the same
// failing input yields the same reported error at any worker count, even
// though which later tasks were skipped may vary).
//
// For returns as soon as every task has finished (or, after a failure,
// every claimed one). It never waits for a helper goroutine that has not
// claimed a task: the caller is one of the workers, so when the helpers
// are not scheduled before the caller has run the last task — tasks of a
// few microseconds — the fan-out costs what the sequential loop does, and
// a helper that starts late finds the counter past n and exits.
func For(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	f := &fanout{n: n, fn: fn, errs: make([]error, n)}
	f.left.Store(int64(n))
	// done is held until the last task is accounted for; whoever accounts
	// for it unlocks, and the caller's second Lock is the wait.
	f.done.Lock()
	for w := 1; w < workers; w++ {
		go f.work()
	}
	f.work()
	f.done.Lock()
	for _, err := range f.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanout is one For call's shared state. A helper that starts after the
// call returned still claims from next (and finds no task), so the state
// belongs to one call and is never reused.
type fanout struct {
	n    int
	fn   func(i int) error
	errs []error
	// next counts claims; a claim at or past n is no task.
	next atomic.Int64
	// left counts the tasks neither finished nor abandoned after a failure.
	left atomic.Int64
	done sync.Mutex
}

func (f *fanout) work() {
	for {
		i := int(f.next.Add(1)) - 1
		if i >= f.n {
			return
		}
		settled := int64(1)
		if err := f.fn(i); err != nil {
			f.errs[i] = err
			// Close the counter: claims so far still finish, the rest are
			// abandoned here, once.
			if claimed := f.next.Swap(int64(f.n)); claimed < int64(f.n) {
				settled += int64(f.n) - claimed
			}
		}
		if f.left.Add(-settled) == 0 {
			f.done.Unlock()
		}
	}
}

// Map runs fn(0..n-1) on up to workers goroutines and collects the results
// in index order. On error the lowest-index error is returned and the
// result slice is nil.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	err := For(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Chunks splits [0, n) into contiguous ranges and runs body(lo, hi) on up
// to workers goroutines. It is meant for per-element writes into
// caller-owned slices (e.g. a K-means assignment step): each element is
// computed independently, so the worker count cannot affect the result.
// Callers that reduce across elements must not fold inside body unless the
// fold is order-independent (boolean OR, max with deterministic tie-break);
// floating-point sums belong in an index-ordered pass after Chunks returns.
func Chunks(workers, n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// SplitSeed derives an independent, well-mixed child seed from a master
// seed and a task coordinate path (restart index, fold index, run index,
// ...). It is the repo's seed discipline for parallel loops: instead of
// threading one *rand.Rand through a loop (which makes results depend on
// execution order), each task builds its own rand.New(rand.NewSource(
// SplitSeed(seed, coords...))). The mixing is SplitMix64 (Steele et al.,
// "Fast Splittable Pseudorandom Number Generators"), so adjacent seeds and
// coordinates land in unrelated streams.
func SplitSeed(seed int64, coords ...int64) int64 {
	x := uint64(seed)
	for _, c := range coords {
		x += 0x9e3779b97f4a7c15 * (uint64(c) + 0x632be59bd9b4e019)
		x = mix64(x)
	}
	// Keep the result non-negative so it is safe for APIs that treat
	// negative seeds as sentinels.
	return int64(mix64(x) >> 1)
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
