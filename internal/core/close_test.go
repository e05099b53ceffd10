package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// TestDBCloseLifecycle pins Close semantics on a loaded store:
// idempotent, drops the segments, Len still answers, and every later
// query or mutation fails with a typed *ConfigError.
func TestDBCloseLifecycle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sigs := randSigs(r, 120, 60, 8)
	src, err := newTestDB(60, 2)
	if err != nil {
		t.Fatal(err)
	}
	src.setSegmentSize(64)
	if err := src.AddAll(sigs); err != nil {
		t.Fatal(err)
	}
	src.Seal()
	dir := t.TempDir()
	if err := src.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	db, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := db.IndexBytes(); got != 0 {
		t.Fatalf("IndexBytes after Close = %d, want 0", got)
	}
	if got := db.Len(); got != len(sigs) {
		t.Fatalf("Len after Close = %d, want %d", got, len(sigs))
	}

	q := randSigs(r, 1, 60, 8)[0].W
	var ce *ConfigError
	if _, err := db.TopKSparse(q, 3, CosineMetric()); !errors.As(err, &ce) {
		t.Fatalf("TopK after Close: %v, want *ConfigError", err)
	}
	if err := db.Add(sigs[0]); !errors.As(err, &ce) {
		t.Fatalf("Add after Close: %v, want *ConfigError", err)
	}
	if err := db.SaveDir(t.TempDir()); !errors.As(err, &ce) {
		t.Fatalf("SaveDir after Close: %v, want *ConfigError", err)
	}
	if !strings.Contains(ce.Error(), "closed") {
		t.Fatalf("error %q should name the closed state", ce.Error())
	}

	// Closing a never-loaded DB still engages the guard.
	fresh, err := NewDB(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Close(); err != nil {
		t.Fatalf("Close fresh: %v", err)
	}
	if err := fresh.Add(sigs[0]); !errors.As(err, &ce) {
		t.Fatalf("Add after closing fresh DB: %v, want *ConfigError", err)
	}
}
