package core_test

import (
	"testing"
	"time"

	fmeter "repro"
	"repro/internal/core"
)

// TestWeightCodecCollectedSignatures runs signatures collected by the
// paper's own path — fifty intervals of each of the four simulated
// kernel workloads through the logging daemon, embedded by
// BuildSignatures — through the record codec: every one round-trips bit
// for bit. Their weights span more binades than the bench corpora's
// (up to 23 for seed 1), so the writer packs most at k = 5.
func TestWeightCodecCollectedSignatures(t *testing.T) {
	sys, err := fmeter.New(fmeter.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var docs []*fmeter.Document
	for _, spec := range []fmeter.WorkloadSpec{
		fmeter.ScpWorkload(), fmeter.KcompileWorkload(), fmeter.DbenchWorkload(), fmeter.ApachebenchWorkload(),
	} {
		d, err := sys.Collect(spec, 50, 10*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d...)
	}
	sigs, _, err := fmeter.BuildSignatures(docs, sys.Dim())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[byte]int{}
	spread := 0
	for _, s := range sigs {
		code, sp := core.RecordRoundTripSpread(t, s)
		counts[code]++
		spread = max(spread, sp)
	}
	// A 4-bit code covers 14 binades, a 5-bit one 30.
	if spread <= 14 || spread > 30 || 2*counts[5] <= len(sigs) {
		t.Fatalf("%d signatures by encoding %v, widest spread %d binades; want 15–30 binades and most at k = 5", len(sigs), counts, spread)
	}
}
