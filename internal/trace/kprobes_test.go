package trace

import (
	"testing"

	"repro/internal/kernel"
)

func TestKprobesCostDwarfsFmeter(t *testing.T) {
	st := kernel.NewSymbolTable()
	kp, err := NewKprobes(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := NewFmeter(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	ratio := kp.PerCallOverheadNS(0, 0) / fm.PerCallOverheadNS(0, 0)
	if ratio < 50 {
		t.Errorf("kprobes/fmeter per-call ratio = %v; a trap + single-step is ~100x a stub", ratio)
	}
	// Kprobes is also far above Ftrace — the paper's §3 ranking.
	ft, err := NewFtrace(st, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if kp.PerCallOverheadNS(0, 0) <= ft.PerCallOverheadNS(0, 0) {
		t.Error("kprobes should cost more per call than ftrace")
	}
}

// TestKprobesReset checks that Kprobes holds no state to reset: after
// recording calls it behaves exactly like a freshly built backend.
func TestKprobesReset(t *testing.T) {
	st := kernel.NewSymbolTable()
	kp, err := NewKprobes(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewKprobes(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	kp.OnCalls(0, 3, 9)
	kp.OnCalls(1, 3, 1<<20)
	if *kp != *fresh {
		t.Errorf("kprobes after OnCalls = %+v, fresh = %+v", *kp, *fresh)
	}
	if got, want := kp.PerCallOverheadNS(1, 3), fresh.PerCallOverheadNS(1, 3); got != want {
		t.Errorf("per-call cost after OnCalls = %v, fresh = %v", got, want)
	}
	if kp.Name() != "kprobes" {
		t.Errorf("Name = %q", kp.Name())
	}
	if _, err := NewKprobes(nil, 1); err == nil {
		t.Error("nil table should fail")
	}
	if _, err := NewKprobes(st, 0); err == nil {
		t.Error("0 CPUs should fail")
	}
}
