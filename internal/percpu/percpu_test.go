package percpu

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestAddrOfRoundTrip(t *testing.T) {
	for _, fn := range []int{0, 1, SlotsPerPage - 1, SlotsPerPage, SlotsPerPage + 1, 3814} {
		a := AddrOf(fn)
		if got := FuncOf(a); got != fn {
			t.Errorf("FuncOf(AddrOf(%d)) = %d", fn, got)
		}
		if a.Slot < 0 || a.Slot >= SlotsPerPage {
			t.Errorf("AddrOf(%d).Slot = %d out of range", fn, a.Slot)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 10); err == nil {
		t.Error("numCPU 0 should fail")
	}
	if _, err := New(1, 0); err == nil {
		t.Error("numFuncs 0 should fail")
	}
}

func TestPageCount(t *testing.T) {
	tests := []struct {
		funcs, wantPages int
	}{
		{1, 1}, {SlotsPerPage, 1}, {SlotsPerPage + 1, 2}, {3815, 8},
	}
	for _, tt := range tests {
		ix, err := New(2, tt.funcs)
		if err != nil {
			t.Fatal(err)
		}
		if ix.pages != tt.wantPages {
			t.Errorf("pages(%d funcs) = %d, want %d", tt.funcs, ix.pages, tt.wantPages)
		}
	}
}

func TestIncSnapshot(t *testing.T) {
	ix, err := New(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Spread increments of the same function across CPUs; the snapshot
	// must aggregate them.
	for cpu := 0; cpu < 4; cpu++ {
		if err := ix.Inc(cpu, AddrOf(700), uint64(cpu+1)); err != nil {
			t.Fatal(err)
		}
	}
	snap := ix.Snapshot()
	if snap[700] != 1+2+3+4 {
		t.Errorf("snapshot[700] = %d, want 10", snap[700])
	}
	if got, err := ix.Get(2, 700); err != nil || got != 3 {
		t.Errorf("Get(2,700) = %d, %v; want 3", got, err)
	}
	var total uint64
	for _, c := range snap {
		total += c
	}
	if total != 10 {
		t.Errorf("stray counts: total = %d", total)
	}
}

func TestIncValidation(t *testing.T) {
	ix, err := New(2, 600)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Inc(2, AddrOf(0), 1); err == nil {
		t.Error("cpu out of range should fail")
	}
	if err := ix.Inc(0, AddrOf(600), 1); err == nil {
		t.Error("fn out of range should fail")
	}
	if err := ix.Inc(0, AddrOf(-1), 1); err == nil {
		t.Error("negative fn should fail")
	}
	// Address in the last page but beyond numFuncs: page exists (600 needs
	// 2 pages = 1024 slots) but the slot maps past the function space.
	if err := ix.Inc(0, AddrOf(900), 1); err == nil {
		t.Error("address beyond function space should fail")
	}
	if err := ix.Inc(0, SlotAddr{Page: -1, Slot: 0}, 1); err == nil {
		t.Error("negative page should fail")
	}
	if _, err := ix.Get(0, 600); err == nil {
		t.Error("Get beyond range should fail")
	}
	if _, err := ix.Get(5, 0); err == nil {
		t.Error("Get cpu out of range should fail")
	}
}

func TestReset(t *testing.T) {
	ix, err := New(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	for fn := 0; fn < 100; fn++ {
		if err := ix.Inc(fn%2, AddrOf(fn), 5); err != nil {
			t.Fatal(err)
		}
	}
	ix.Reset()
	for fn, c := range ix.Snapshot() {
		if c != 0 {
			t.Fatalf("after Reset, snapshot[%d] = %d", fn, c)
		}
	}
}

func TestDiff(t *testing.T) {
	before := []uint64{1, 2, 3}
	after := []uint64{5, 2, 10}
	d, err := Diff(before, after)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{4, 0, 7}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Diff = %v, want %v", d, want)
		}
	}
	if _, err := Diff([]uint64{1}, []uint64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Diff([]uint64{5}, []uint64{4}); !errors.Is(err, ErrCounterWrapped) {
		t.Errorf("want ErrCounterWrapped, got %v", err)
	}
}

func TestConcurrentIncrements(t *testing.T) {
	ix, err := New(8, 3815)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const perCPU = 10000
	for cpu := 0; cpu < 8; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for i := 0; i < perCPU; i++ {
				if err := ix.Inc(cpu, AddrOf(i%3815), 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(cpu)
	}
	wg.Wait()
	var total uint64
	for _, c := range ix.Snapshot() {
		total += c
	}
	if total != 8*perCPU {
		t.Errorf("lost updates: total = %d, want %d", total, 8*perCPU)
	}
}

// Property: snapshot totals equal the sum of all increments regardless of
// the cpu/function pattern.
func TestPropertySnapshotConservation(t *testing.T) {
	f := func(incs []uint16) bool {
		ix, err := New(4, 257) // deliberately not a multiple of SlotsPerPage
		if err != nil {
			return false
		}
		var want uint64
		for i, v := range incs {
			n := uint64(v % 97)
			if err := ix.Inc(i%4, AddrOf((i*31)%257), n); err != nil {
				return false
			}
			want += n
		}
		var got uint64
		for _, c := range ix.Snapshot() {
			got += c
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInc(b *testing.B) {
	ix, err := New(16, 3815)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Inc(i&15, AddrOf(i%3815), 1)
	}
}

func BenchmarkSnapshot3815(b *testing.B) {
	ix, err := New(16, 3815)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Snapshot()
	}
}

// Get returns the counter for fn on one CPU.
func (ix *Index) Get(cpu, fn int) (uint64, error) {
	if cpu < 0 || cpu >= ix.numCPU {
		return 0, fmt.Errorf("percpu: cpu %d out of range [0,%d)", cpu, ix.numCPU)
	}
	if fn < 0 || fn >= ix.numFuncs {
		return 0, fmt.Errorf("percpu: function %d out of range [0,%d)", fn, ix.numFuncs)
	}
	a := AddrOf(fn)
	return atomic.LoadUint64(&ix.cpus[cpu][a.Page].slots[a.Slot]), nil
}
