package debugfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCreateReadWrite(t *testing.T) {
	fs := New()
	var stored []byte
	err := fs.Create("fmeter/counters",
		func() ([]byte, error) { return []byte("42"), nil },
		func(b []byte) error { stored = append([]byte(nil), b...); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/fmeter//counters/")
	if err != nil {
		t.Fatalf("ReadFile with messy path: %v", err)
	}
	if string(got) != "42" {
		t.Errorf("ReadFile = %q", got)
	}
	if err := fs.WriteFile("fmeter/counters", []byte("reset")); err != nil {
		t.Fatal(err)
	}
	if string(stored) != "reset" {
		t.Errorf("stored = %q", stored)
	}
}

func TestCreateValidation(t *testing.T) {
	fs := New()
	if err := fs.Create("", nil, nil); err == nil {
		t.Error("empty path should fail")
	}
	if err := fs.Create("x", nil, nil); err == nil {
		t.Error("no handlers should fail")
	}
	read := func() ([]byte, error) { return nil, nil }
	if err := fs.Create("x", read, nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("x", read, nil); err == nil {
		t.Error("duplicate path should fail")
	}
	if err := fs.Create("/x/", read, nil); err == nil {
		t.Error("duplicate after cleaning should fail")
	}
}

func TestAccessModes(t *testing.T) {
	fs := New()
	read := func() ([]byte, error) { return []byte("r"), nil }
	write := func([]byte) error { return nil }
	if err := fs.Create("ro", read, nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("wo", nil, write); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("ro", nil); !errors.Is(err, ErrNotSupported) {
		t.Errorf("write to read-only: %v", err)
	}
	if _, err := fs.ReadFile("wo"); !errors.Is(err, ErrNotSupported) {
		t.Errorf("read of write-only: %v", err)
	}
	if _, err := fs.ReadFile("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("read of missing: %v", err)
	}
	if err := fs.WriteFile("missing", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("write of missing: %v", err)
	}
}

func TestRemove(t *testing.T) {
	fs := New()
	read := func() ([]byte, error) { return nil, nil }
	if err := fs.Create("a/b", read, nil); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("a/b") {
		t.Error("Exists = false after Create")
	}
	if err := fs.Remove("a/b"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("a/b") {
		t.Error("Exists = true after Remove")
	}
	if err := fs.Remove("a/b"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Remove: %v", err)
	}
}

func TestList(t *testing.T) {
	fs := New()
	read := func() ([]byte, error) { return nil, nil }
	for _, p := range []string{"tracing/trace", "tracing/tracing_on", "fmeter/counters", "fmeter/reset"} {
		if err := fs.Create(p, read, nil); err != nil {
			t.Fatal(err)
		}
	}
	all := fs.List("")
	if len(all) != 4 {
		t.Errorf("List(\"\") = %v", all)
	}
	fm := fs.List("fmeter")
	if len(fm) != 2 || fm[0] != "fmeter/counters" || fm[1] != "fmeter/reset" {
		t.Errorf("List(fmeter) = %v", fm)
	}
	// prefix must match on path-segment boundary
	if got := fs.List("fmet"); len(got) != 0 {
		t.Errorf("List(fmet) = %v", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	fs := New()
	read := func() ([]byte, error) { return []byte("x"), nil }
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := fmt.Sprintf("n/%d", i)
			if err := fs.Create(p, read, nil); err != nil {
				t.Error(err)
				return
			}
			if _, err := fs.ReadFile(p); err != nil {
				t.Error(err)
			}
			fs.List("n")
		}(i)
	}
	wg.Wait()
	if got := len(fs.List("n")); got != 8 {
		t.Errorf("nodes = %d, want 8", got)
	}
}

// List returns the sorted paths registered under prefix ("" lists all).
func (fs *FS) List(prefix string) []string {
	cp := clean(prefix)
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for p := range fs.nodes {
		if cp == "" || p == cp || strings.HasPrefix(p, cp+"/") {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}
