package core

import "testing"

// RecordRoundTripSpread is recordRoundTripSpread for the external tests,
// whose signatures come from packages that import this one.
func RecordRoundTripSpread(t testing.TB, s Signature) (byte, int) { return recordRoundTripSpread(t, s) }
