package kernel

import (
	"testing"
	"time"
)

func TestInvokeRaw(t *testing.T) {
	cat := newTestCatalog(t)
	b := newCountingBackend(2)
	e, err := NewEngine(cat, EngineConfig{NumCPU: 2, Backend: b, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InvokeRaw(0, 5, 10, 100); err != nil {
		t.Fatal(err)
	}
	if b.counts[5] != 10 {
		t.Errorf("raw counts = %d", b.counts[5])
	}
	// Cost: 10 * (100 base + 2 overhead) = 1020ns.
	if got := e.KernelTime(); got != 1020*time.Nanosecond {
		t.Errorf("KernelTime = %v, want 1020ns", got)
	}
	if e.TotalCalls() != 10 {
		t.Errorf("TotalCalls = %d", e.TotalCalls())
	}
	// n=0 is a no-op.
	if err := e.InvokeRaw(0, 5, 0, 100); err != nil {
		t.Fatal(err)
	}
	if b.counts[5] != 10 {
		t.Error("n=0 should not count")
	}
}

func TestInvokeRawValidation(t *testing.T) {
	cat := newTestCatalog(t)
	e, err := NewEngine(cat, EngineConfig{NumCPU: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InvokeRaw(5, 0, 1, 1); err == nil {
		t.Error("bad cpu should fail")
	}
	if err := e.InvokeRaw(0, -1, 1, 1); err == nil {
		t.Error("bad fn should fail")
	}
	if err := e.InvokeRaw(0, 0, 1, -1); err == nil {
		t.Error("negative cost should fail")
	}
}

func TestSubsystemStrings(t *testing.T) {
	if SubVFS.String() != "vfs" || SubTCP.String() != "tcp" {
		t.Error("subsystem names wrong")
	}
	if Subsystem(99).String() == "" {
		t.Error("unknown subsystem should render")
	}
}

func TestSymbolTableNames(t *testing.T) {
	st := NewSymbolTable()
	names := st.Names()
	if len(names) != st.Len() {
		t.Fatalf("Names length %d", len(names))
	}
	if names[0] == "" {
		t.Error("empty name")
	}
	// Names returns a copy safe to mutate.
	names[0] = "mutated"
	if st.Names()[0] == "mutated" {
		t.Error("Names should return a fresh slice")
	}
}

func TestCatalogNamesSorted(t *testing.T) {
	cat := newTestCatalog(t)
	names := cat.Names()
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatal("catalog names not sorted")
		}
	}
	if len(names) < 30 {
		t.Errorf("catalog has %d ops", len(names))
	}
}
