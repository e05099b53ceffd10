package lint

// All returns the full fmeter-vet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, TypedErr, NoAllocZone}
}
