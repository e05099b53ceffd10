package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summary = %+v", s)
	}
	wantSD := math.Sqrt(2.5)
	if math.Abs(s.StdDev-wantSD) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", s.StdDev, wantSD)
	}
	wantSEM := wantSD / math.Sqrt(5)
	if math.Abs(s.SEM-wantSEM) > 1e-12 {
		t.Errorf("SEM = %v, want %v", s.SEM, wantSEM)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Fatal("want error for empty sample")
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.StdDev != 0 || s.SEM != 0 || s.Mean != 7 {
		t.Errorf("single-sample summary = %+v", s)
	}
}

func TestMeanStdDevSEM(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := StdDev(xs); math.Abs(got-2.13809) > 1e-4 {
		t.Errorf("StdDev = %v", got)
	}
	if got := SEM(xs); math.Abs(got-StdDev(xs)/math.Sqrt(8)) > 1e-12 {
		t.Errorf("SEM = %v", got)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || SEM(nil) != 0 {
		t.Error("empty-slice statistics should be 0")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd Median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even Median = %v", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty Median = %v", got)
	}
	// input not modified
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 {
		t.Error("Median modified its input")
	}
}

func TestFitPowerLawRecoversExponent(t *testing.T) {
	// Generate an exact power law count series: c * rank^-alpha.
	const alpha = 1.5
	counts := make([]float64, 500)
	for i := range counts {
		counts[i] = 1e6 * math.Pow(float64(i+1), -alpha)
	}
	fit, err := FitPowerLaw(counts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-alpha) > 1e-9 {
		t.Errorf("Alpha = %v, want %v", fit.Alpha, alpha)
	}
	if fit.R2 < 0.9999 {
		t.Errorf("R2 = %v, want ~1", fit.R2)
	}
}

func TestFitPowerLawErrors(t *testing.T) {
	if _, err := FitPowerLaw([]float64{0, 0}); err == nil {
		t.Error("want error with no positive counts")
	}
	if _, err := FitPowerLaw([]float64{5}); err == nil {
		t.Error("want error with one point")
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	Shuffle(r, idx)
	seen := make(map[int]bool)
	for _, i := range idx {
		seen[i] = true
	}
	if len(seen) != 8 {
		t.Errorf("Shuffle lost elements: %v", idx)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s, err := SampleWithoutReplacement(r, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 5 {
		t.Fatalf("len = %d", len(s))
	}
	seen := make(map[int]bool)
	for _, i := range s {
		if i < 0 || i >= 10 {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
	if _, err := SampleWithoutReplacement(r, 3, 4); err == nil {
		t.Error("want error for k > n")
	}
}

// Property: SEM decreases as sample size grows (for iid noise).
func TestPropertySEMShrinks(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	small := make([]float64, 20)
	big := make([]float64, 2000)
	for i := range small {
		small[i] = r.NormFloat64()
	}
	for i := range big {
		big[i] = r.NormFloat64()
	}
	if SEM(big) >= SEM(small) {
		t.Errorf("SEM(big)=%v should be < SEM(small)=%v", SEM(big), SEM(small))
	}
}

// Property: summarize bounds hold — min <= mean <= max, sem <= stddev.
func TestPropertySummaryBounds(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		xs := make([]float64, 2+rr.Intn(100))
		for i := range xs {
			xs[i] = rr.NormFloat64() * 100
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.SEM <= s.StdDev+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
