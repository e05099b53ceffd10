package main

import "testing"

func ramp(n int) []float64 { // 1, 2, ..., n
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 50, 1}, {1, 99, 1},
		{2, 50, 1}, {3, 50, 2}, {4, 50, 2},
		{100, 50, 50}, {100, 99, 99}, {100, 100, 100}, {100, 0, 1},
		{1000, 99.9, 999},
	} {
		if got := percentile(ramp(tc.n), tc.p); got != tc.want {
			t.Errorf("percentile(1..%d, %g) = %g, want %g", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
		wantVal float64
	}{
		{5, 50, 3},          // too few for any tail: the median
		{39, 50, 20},        // p75 would leave 9 beyond
		{40, 75, 30},        // p75 leaves exactly 10
		{100, 90, 90},       // p95 would leave 5
		{200, 95, 190},      // p99 would leave 2
		{1000, 99, 990},     // p99.5 would leave 5
		{2000, 99.5, 1990},  // p99.9 would leave 2
		{10000, 99.9, 9990}, // p99.99 would leave 1
		{100000, 99.99, 99990},
	} {
		pct, val := tail(ramp(tc.n))
		if pct != tc.wantPct || val != tc.wantVal {
			t.Errorf("tail(1..%d) = p%g %g, want p%g %g", tc.n, pct, val, tc.wantPct, tc.wantVal)
		}
	}
}

func TestMedianAndSliceSpread(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %g, want 5", got)
	}
	flat := make([]float64, 100)
	for i := range flat {
		flat[i] = 7
	}
	if got := sliceSpread(flat, 10); got != 0 {
		t.Errorf("spread of a constant series = %g, want 0", got)
	}
	// Slices of ten with medians 5.5, 15.5, ..., 95.5: (95.5-5.5)/45.5.
	if got, want := sliceSpread(ramp(100), 10), 90.0/45.5; got != want {
		t.Errorf("spread of 1..100 in ten slices = %g, want %g", got, want)
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		a, b, bound float64
		better      string
		want        string
	}{
		{100, 105, 0.10, "lower", "within"},
		{100, 111, 0.10, "lower", "worse"},
		{100, 89, 0.10, "lower", "better"},
		{1, 0.98, 0.01, "higher", "worse"},
		{1, 1, 0.01, "higher", "within"},
		{50, 56, 0.10, "higher", "better"},
	} {
		if _, got := verdict(tc.a, tc.b, tc.bound, tc.better); got != tc.want {
			t.Errorf("verdict(%g → %g, bound %g, %s is better) = %s, want %s", tc.a, tc.b, tc.bound, tc.better, got, tc.want)
		}
	}
}
