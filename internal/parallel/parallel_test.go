package parallel

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Errorf("Workers(4) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-3); got != 1 {
		t.Errorf("Workers(-3) = %d, want 1", got)
	}
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		err := For(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEmptyAndSingle(t *testing.T) {
	if err := For(8, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Error(err)
	}
	ran := false
	if err := For(8, 1, func(i int) error { ran = true; return nil }); err != nil || !ran {
		t.Error("single task should run")
	}
}

func TestForLowestIndexError(t *testing.T) {
	// Multiple tasks fail; the reported error must be the lowest-index one
	// among those that ran, and with 1 worker that is exactly index 3.
	mkErr := func(i int) error { return fmt.Errorf("task %d", i) }
	for _, workers := range []int{1, 4} {
		err := For(workers, 100, func(i int) error {
			if i >= 3 {
				return mkErr(i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: want error", workers)
		}
		if workers == 1 && err.Error() != "task 3" {
			t.Errorf("sequential error = %v, want task 3", err)
		}
	}
}

// At GOMAXPROCS(1) a helper For spawns cannot run while the caller does,
// and tasks that never yield never let it: the caller runs every task,
// and For must return without parking until the helper is scheduled —
// the helper is still pending when For returns. Once it runs it finds no
// task left.
func TestForDoesNotWaitForUnstartedHelper(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 6
	var ran [n]int
	sink := 0
	before := runtime.NumGoroutine()
	err := For(2, n, func(i int) error {
		for j := 0; j < 1000; j++ {
			sink += j ^ i
		}
		ran[i]++
		return nil
	})
	pending := runtime.NumGoroutine() - before
	if err != nil {
		t.Fatal(err)
	}
	if pending != 1 {
		t.Fatalf("For returned with %d helpers pending, want the 1 it must not wait for", pending)
	}
	for runtime.NumGoroutine() > before {
		runtime.Gosched()
	}
	for i, c := range ran {
		if c != 1 {
			t.Fatalf("task %d ran %d times (sink %d)", i, c, sink)
		}
	}
}

// Failures settle the tasks nobody will claim: For returns (it does not
// wait forever for them), runs no task twice, and reports the lowest-index
// error among the tasks that ran.
func TestForFailureSettles(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		workers, n := 2+r.Intn(15), 1+r.Intn(300)
		fail := make([]bool, n)
		for i := range fail {
			fail[i] = r.Intn(40) == 0
		}
		counts := make([]atomic.Int32, n)
		err := For(workers, n, func(i int) error {
			counts[i].Add(1)
			if fail[i] {
				return fmt.Errorf("task %d", i)
			}
			return nil
		})
		var want error
		for i := range counts {
			switch c := counts[i].Load(); {
			case c > 1:
				t.Fatalf("trial %d: task %d ran %d times", trial, i, c)
			case c == 1 && fail[i] && want == nil:
				want = fmt.Errorf("task %d", i)
			}
		}
		if fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("trial %d: For = %v, want %v", trial, err, want)
		}
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		out, err := Map(workers, 500, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	out, err := Map(4, 10, func(i int) (int, error) {
		if i == 5 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Error("Map should return nil results on error")
	}
}

func TestChunksCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 64} {
		const n = 777
		hit := make([]atomic.Int32, n)
		Chunks(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hit[i].Add(1)
			}
		})
		for i := range hit {
			if c := hit[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, c)
			}
		}
	}
}

// The core determinism claim: a seeded computation fanned out over any
// worker count produces bit-identical ordered results.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	task := func(i int) (float64, error) {
		rng := rand.New(rand.NewSource(SplitSeed(42, int64(i))))
		var s float64
		for j := 0; j < 100; j++ {
			s += rng.NormFloat64()
		}
		return s, nil
	}
	ref, err := Map(1, 64, task)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		got, err := Map(workers, 64, task)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: out[%d] = %v, want %v", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestSplitSeedDistinctAndStable(t *testing.T) {
	seen := make(map[int64]bool)
	for i := int64(0); i < 1000; i++ {
		s := SplitSeed(7, i)
		if s < 0 {
			t.Fatalf("SplitSeed negative: %d", s)
		}
		if seen[s] {
			t.Fatalf("collision at %d", i)
		}
		seen[s] = true
	}
	if SplitSeed(7, 3, 4) != SplitSeed(7, 3, 4) {
		t.Error("SplitSeed not stable")
	}
	if SplitSeed(7, 3, 4) == SplitSeed(7, 4, 3) {
		t.Error("SplitSeed should be order-sensitive")
	}
	if SplitSeed(1, 0) == SplitSeed(2, 0) {
		t.Error("different master seeds should diverge")
	}
}
