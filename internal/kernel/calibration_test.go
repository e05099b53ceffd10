package kernel

import (
	"math"
	"testing"
)

// paperFtraceUS maps each Table 1 op to (paper vanilla µs, paper ftrace
// µs). This mirrors workload.LmbenchTests but lives here so the op catalog
// carries its own calibration guard without an import cycle.
var paperLatencies = map[string]struct{ baseUS, ftraceUS float64 }{
	OpAFUnixLatency:   {4.828, 27.749},
	OpFcntlLock:       {1.219, 6.639},
	OpMmapFile:        {206.750, 1800.520},
	OpPageFault:       {0.677, 3.678},
	OpPipeLatency:     {2.492, 12.421},
	OpForkSh:          {1446.800, 6421.000},
	OpForkExecve:      {672.266, 3094.380},
	OpForkExit:        {208.914, 1116.800},
	OpProtFault:       {0.185, 0.607},
	OpSelect10:        {0.231, 1.410},
	OpSelect10TCP:     {0.261, 1.798},
	OpSelect100:       {0.897, 9.809},
	OpSelect100TCP:    {2.189, 26.616},
	OpSemaphore:       {2.890, 6.117},
	OpSignalInstall:   {0.113, 0.280},
	OpSignalHandle:    {0.909, 3.124},
	OpSimpleFstat:     {0.100, 0.852},
	OpSimpleOpenClose: {1.193, 11.222},
	OpSimpleRead:      {0.101, 1.196},
	OpSimpleStat:      {0.721, 7.008},
	OpSimpleSyscall:   {0.041, 0.210},
	OpSimpleWrite:     {0.086, 1.012},
	OpUnixConnect:     {15.328, 81.380},
}

// ftraceCalibrationNS is the global Ftrace per-call cost the catalog was
// fitted against (34 ns record + 0.375 ns/CPU coherency at 16 CPUs; the
// trace package owns the authoritative constants).
const ftraceCalibrationNS = 34.0 + 0.375*16

// TestOpCalibrationAgainstPaper guards the fitted op parameters: each
// lmbench op's BaseNS must equal the paper's vanilla latency and its
// TotalCalls must be the paper's Ftrace delta divided by the global
// per-call cost. If someone retunes an op profile, this pins the
// calibration contract.
func TestOpCalibrationAgainstPaper(t *testing.T) {
	cat := newTestCatalog(t)
	for name, paper := range paperLatencies {
		op := mustOp(t, cat, name)
		if got, want := op.BaseNS, paper.baseUS*1000; math.Abs(got-want) > 0.5 {
			t.Errorf("%s: BaseNS = %v, want %v (paper vanilla)", name, got, want)
		}
		wantCalls := (paper.ftraceUS - paper.baseUS) * 1000 / ftraceCalibrationNS
		if math.Abs(op.TotalCalls-wantCalls)/wantCalls > 0.05 {
			t.Errorf("%s: TotalCalls = %v, want ~%v (fitted from paper Ftrace delta)", name, op.TotalCalls, wantCalls)
		}
	}
}

// TestCalibrationImpliesPaperSlowdowns sanity-checks that the calibration
// reproduces the paper's Ftrace slowdown per row analytically (before any
// simulation noise): base + calls*cost over base.
func TestCalibrationImpliesPaperSlowdowns(t *testing.T) {
	cat := newTestCatalog(t)
	for name, paper := range paperLatencies {
		op := mustOp(t, cat, name)
		predicted := (op.BaseNS + op.TotalCalls*ftraceCalibrationNS) / op.BaseNS
		published := paper.ftraceUS / paper.baseUS
		if math.Abs(predicted-published)/published > 0.06 {
			t.Errorf("%s: analytic ftrace slowdown %v vs paper %v", name, predicted, published)
		}
	}
}
