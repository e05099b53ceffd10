package workload

import (
	"testing"
	"time"

	"repro/internal/kernel"
)

// collectSnapshots runs n intervals of a spec and returns per-interval
// count diffs.
func collectSnapshots(t *testing.T, spec Spec, n int, seed int64) [][]uint64 {
	t.Helper()
	eng, fm := newEngineWithFmeter(t, 16, seed)
	r, err := NewRunner(eng, spec, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]uint64
	prev := fm.Snapshot()
	for i := 0; i < n; i++ {
		if _, err := r.RunInterval(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		cur := fm.Snapshot()
		diff := make([]uint64, len(cur))
		for j := range cur {
			diff[j] = cur[j] - prev[j]
		}
		out = append(out, diff)
		prev = cur
	}
	return out
}

func TestRareEventsCreatePartialDocumentFrequency(t *testing.T) {
	spec := Scp(16)
	diffs := collectSnapshots(t, spec, 10, 77)
	// Some function must appear in at least one but not all intervals —
	// otherwise idf degenerates to zero within a class.
	partial := 0
	for fn := range diffs[0] {
		present := 0
		for _, d := range diffs {
			if d[fn] > 0 {
				present++
			}
		}
		if present > 0 && present < len(diffs) {
			partial++
		}
	}
	if partial < 10 {
		t.Errorf("only %d functions with partial document frequency; rare events inert", partial)
	}
}

func TestRareEventsDisabled(t *testing.T) {
	spec := Scp(16)
	spec.RareEventsPerInterval = -1
	spec.BurstProb = -1
	spec.DriftSigma = 1e-12
	// With rare events and bursts off, the support (set of functions
	// invoked) should be identical across intervals.
	diffs := collectSnapshots(t, spec, 4, 78)
	support := func(d []uint64) map[int]bool {
		s := make(map[int]bool)
		for fn, c := range d {
			if c > 0 {
				s[fn] = true
			}
		}
		return s
	}
	s0 := support(diffs[0])
	for i := 1; i < len(diffs); i++ {
		si := support(diffs[i])
		extra := 0
		for fn := range si {
			if !s0[fn] {
				extra++
			}
		}
		// Fractional-count stochastic rounding may flip a handful of
		// near-zero functions; anything beyond that means rare events
		// leaked through the off switch.
		if extra > 12 {
			t.Errorf("interval %d grew support by %d functions with rare events disabled", i, extra)
		}
	}
}

func TestBurstsDisabledVsEnabled(t *testing.T) {
	mk := func(burstProb float64, seed int64) []uint64 {
		spec := Scp(16)
		spec.BurstProb = burstProb
		eng, fm := newEngineWithFmeter(t, 16, seed)
		r, err := NewRunner(eng, spec, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		// Many intervals so bursts are near-certain with prob 0.9.
		for i := 0; i < 12; i++ {
			if _, err := r.RunInterval(10 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
		return fm.Snapshot()
	}
	st := kernel.NewSymbolTable()
	lookup := func(name string) kernel.FuncID {
		t.Helper()
		id, err := st.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	journal := lookup("journal_commit_transaction") // fsync path: burst-only for scp
	off := mk(-1, 300)
	on := mk(0.9, 300)
	if off[journal] > 0 {
		t.Errorf("scp without bursts should never commit journal transactions, got %d", off[journal])
	}
	if on[journal] == 0 {
		t.Error("with bursts near-certain, foreign activity should appear")
	}
}

func TestBootHasNoBursts(t *testing.T) {
	if Boot().BurstProb >= 0 {
		t.Error("boot workload must disable bursts")
	}
}
