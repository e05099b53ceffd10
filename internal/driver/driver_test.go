package driver

import (
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestVariantMetadata(t *testing.T) {
	if V151.Version() != "1.5.1" || V143.Version() != "1.4.3" || V151NoLRO.Version() != "1.5.1" {
		t.Error("version strings wrong")
	}
	if V151NoLRO.Params()["lro_disable"] != "1" {
		t.Error("LRO-disabled scenario must carry the load-time parameter")
	}
	if len(V151.Params()) != 0 {
		t.Error("default scenario should have no parameters")
	}
	if len(Variants()) != 3 {
		t.Error("Table 5 needs three scenarios")
	}
	if V151.String() == V151NoLRO.String() {
		t.Error("scenario labels must differ")
	}
}

func TestNewValidatesVariant(t *testing.T) {
	st := kernel.NewSymbolTable()
	if _, err := New(st, Variant(99)); err == nil {
		t.Error("unknown variant should fail")
	}
	for _, v := range Variants() {
		m, err := New(st, v)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if m.Name != ModuleName {
			t.Errorf("module name = %s", m.Name)
		}
		if _, err := m.Op(OpRxMB); err != nil {
			t.Errorf("%s: missing rx op: %v", v, err)
		}
		if _, err := m.Op(OpTxMB); err != nil {
			t.Errorf("%s: missing tx op: %v", v, err)
		}
	}
}

// collectRx runs one netperf interval under a variant and returns the
// Fmeter snapshot.
func collectRx(t *testing.T, v Variant, seed int64) []uint64 {
	t.Helper()
	st := kernel.NewSymbolTable()
	cat, err := kernel.NewCatalog(st)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := trace.NewFmeter(st, 16)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kernel.NewEngine(cat, kernel.EngineConfig{
		NumCPU: 16, Backend: fm, Seed: seed, CountJitter: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := New(st, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterModule(mod); err != nil {
		t.Fatal(err)
	}
	r, err := workload.NewRunner(eng, NetperfRx(16), seed+7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInterval(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return fm.Snapshot()
}

func TestVariantsShareSkeletonButDiffer(t *testing.T) {
	st := kernel.NewSymbolTable()
	lookup := func(name string) kernel.FuncID {
		t.Helper()
		id, err := st.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	lro := collectRx(t, V151, 1)
	nolro := collectRx(t, V151NoLRO, 2)
	old := collectRx(t, V143, 3)

	alloc := lookup("alloc_skb")
	if lro[alloc] == 0 || nolro[alloc] == 0 || old[alloc] == 0 {
		t.Fatal("per-segment skb allocation missing in some variant")
	}

	// LRO on: far fewer per-packet stack entries than LRO off.
	rcv := lookup("tcp_v4_rcv")
	if nolro[rcv] < lro[rcv]*5 {
		t.Errorf("LRO-off should multiply tcp_v4_rcv: lro=%d nolro=%d", lro[rcv], nolro[rcv])
	}
	// LRO helpers only appear with LRO on.
	lroFn := lookup("lro_receive_skb_op")
	if lro[lroFn] == 0 {
		t.Error("LRO path should call lro_receive_skb")
	}
	if nolro[lroFn] != 0 || old[lroFn] != 0 {
		t.Error("non-LRO variants must not call lro_receive_skb")
	}
	// Legacy driver: netif_rx + per-segment checksum, absent elsewhere.
	legacy := lookup("netif_rx_op")
	if old[legacy] == 0 {
		t.Error("1.4.3 should use the legacy netif_rx path")
	}
	if lro[legacy] != 0 || nolro[legacy] != 0 {
		t.Error("1.5.1 variants must not use netif_rx")
	}
	cksum := lookup("skb_checksum")
	if old[cksum] < nolro[cksum] {
		t.Error("1.4.3 should checksum more than 1.5.1")
	}
}

func TestNetperfSpecIncludesDriverAndBackground(t *testing.T) {
	spec := NetperfRx(16)
	var hasModule, hasDaemon bool
	for _, or := range spec.Ops {
		if or.Module == ModuleName && or.Op == OpRxMB {
			hasModule = true
		}
		if or.Op == kernel.OpDaemonLog {
			hasDaemon = true
		}
	}
	if !hasModule {
		t.Error("netperf workload must drive the driver module")
	}
	if !hasDaemon {
		t.Error("netperf workload must include the logging daemon background")
	}
}
