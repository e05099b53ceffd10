// The benchmark is a module of its own so that it builds from its own
// build file; the replace points at the repository it measures. The
// path stays under repro/ so the internal packages remain importable.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
