package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/vecmath"
)

// saveSealedCorpus builds a sealed store of 64-row segments from sigs,
// queried in workers lanes, and persists it to a fresh temp directory,
// returning the directory.
func saveSealedCorpus(t *testing.T, sigs []Signature, workers int) string {
	t.Helper()
	db, err := newTestDB(sigs[0].Dim(), workers)
	if err != nil {
		t.Fatal(err)
	}
	db.SetSegmentSize(64)
	if err := db.AddAll(sigs); err != nil {
		t.Fatal(err)
	}
	db.Seal()
	dir := t.TempDir()
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestMappedLoadMatchesResident pins the core mapped-mode contract:
// LoadDirMapped serves the exact same results as LoadDir for both
// metrics, the posting blobs live in the mapping rather than the heap,
// and the heap+mapped split sums to the resident footprint.
func TestMappedLoadMatchesResident(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	sigs := randSigs(r, 300, 120, 12)
	dir := saveSealedCorpus(t, sigs, 3)

	res, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadDirMapped(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	if mapped.Len() != res.Len() {
		t.Fatalf("mapped Len = %d, resident = %d", mapped.Len(), res.Len())
	}
	if res.MappedBytes() != 0 {
		t.Fatalf("resident MappedBytes = %d, want 0", res.MappedBytes())
	}
	if got := mapped.MappedBytes(); got <= 0 {
		t.Fatalf("mapped MappedBytes = %d, want > 0", got)
	}
	if mapped.IndexBytes() >= res.IndexBytes() {
		t.Fatalf("mapped heap IndexBytes %d not below resident %d",
			mapped.IndexBytes(), res.IndexBytes())
	}
	if sum := mapped.IndexBytes() + mapped.MappedBytes(); sum != res.IndexBytes() {
		t.Fatalf("heap+mapped = %d, resident footprint = %d", sum, res.IndexBytes())
	}

	queries := make([]*vecmath.Sparse, 5)
	for i := range queries {
		queries[i] = randSigs(r, 1, 120, 12)[0].W
	}
	for _, m := range []Metric{EuclideanMetric(), CosineMetric()} {
		for qi, q := range queries {
			want, err := res.TopKSparse(q, 9, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mapped.TopKSparse(q, 9, m)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, fmt.Sprintf("%s q%d", m.Name, qi), got, want)
		}
	}
}

// TestMappedConcurrentReaders drives parallel TopK traffic over a
// mapped store — under -race this proves the mapping is shared by
// worker goroutines without synchronization bugs.
func TestMappedConcurrentReaders(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sigs := randSigs(r, 400, 100, 10)
	dir := saveSealedCorpus(t, sigs, 4)

	res, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadDirMapped(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	mapped.SetWorkers(4)

	q := randSigs(r, 1, 100, 10)[0].W
	want, err := res.TopKSparse(q, 12, CosineMetric())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				got, err := mapped.TopKSparse(q, 12, CosineMetric())
				if err != nil {
					errs[g] = err
					return
				}
				for i := range got {
					if got[i].Signature.DocID != want[i].Signature.DocID || got[i].Score != want[i].Score {
						errs[g] = fmt.Errorf("goroutine %d iter %d: hit %d diverged", g, it, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestMappedMutateAfterLoad pins the mapped store's write path: a DB
// opened with LoadDirMapped accepts Add/Seal/Compact like any other,
// results stay bit-identical to a resident DB mutated the same way,
// and compaction splices mapped blobs into heap copies — releasing
// bytes from the mapped count.
func TestMappedMutateAfterLoad(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	sigs := randSigs(r, 240, 90, 10)
	extra := randSigs(r, 120, 90, 10)
	for i := range extra {
		extra[i].DocID = fmt.Sprintf("extra-%d", i)
	}
	dir := saveSealedCorpus(t, sigs, 2)

	mutate := func(db *DB) {
		// Every loaded segment is below the new size, so Compact splices
		// the mapped ones with the new rows.
		db.SetSegmentSize(128)
		if err := db.AddAll(extra); err != nil {
			t.Fatal(err)
		}
		db.Seal()
		if err := db.SetCompactionPolicy(CompactionPolicy{TierFanout: 2}); err != nil {
			t.Fatal(err)
		}
		db.Compact()
	}

	res, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mutate(res)

	mapped, err := LoadDirMapped(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	before := mapped.MappedBytes()
	if before <= 0 {
		t.Fatalf("MappedBytes before mutation = %d, want > 0", before)
	}
	mutate(mapped)
	// Compaction merged sealed runs: every spliced segment copied its
	// blob to the heap and released its mapping.
	if after := mapped.MappedBytes(); after >= before {
		t.Fatalf("MappedBytes after compaction = %d, want < %d", after, before)
	}

	if mapped.Len() != res.Len() {
		t.Fatalf("mapped Len = %d, resident = %d", mapped.Len(), res.Len())
	}
	for qi := 0; qi < 4; qi++ {
		q := randSigs(r, 1, 90, 10)[0].W
		want, err := res.TopKSparse(q, 10, EuclideanMetric())
		if err != nil {
			t.Fatal(err)
		}
		got, err := mapped.TopKSparse(q, 10, EuclideanMetric())
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("post-mutate q%d", qi), got, want)
	}
}

// TestDBCloseLifecycle pins Close semantics: idempotent, releases the
// mappings, and every later operation fails with a typed *ConfigError
// instead of touching released memory.
func TestDBCloseLifecycle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sigs := randSigs(r, 120, 60, 8)
	dir := saveSealedCorpus(t, sigs, 2)

	db, err := LoadDirMapped(dir)
	if err != nil {
		t.Fatal(err)
	}
	if db.MappedBytes() <= 0 {
		t.Fatal("expected a mapped store")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := db.MappedBytes(); got != 0 {
		t.Fatalf("MappedBytes after Close = %d, want 0", got)
	}
	if got := db.IndexBytes(); got != 0 {
		t.Fatalf("IndexBytes after Close = %d, want 0", got)
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

	// Closing a never-mapped, never-loaded DB is a no-op that still
	// engages the guard.
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

// TestSaveDirNeverRewritesMappedFiles is the mapped-persistence
// regression test: saving a mapped DB back to its own directory — even
// after growing it — must leave every mapped segment file untouched
// (new data lands in new files), and saving to a fresh directory must
// produce an independent loadable snapshot while the source mappings
// keep serving correct results.
func TestSaveDirNeverRewritesMappedFiles(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	sigs := randSigs(r, 200, 80, 9)
	dir := saveSealedCorpus(t, sigs, 2)

	stamp := func(d string) map[string]time.Time {
		m := map[string]time.Time{}
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), "seg-") {
				fi, err := os.Stat(filepath.Join(d, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				m[e.Name()] = fi.ModTime()
			}
		}
		return m
	}
	before := stamp(dir)

	db, err := LoadDirMapped(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	q := randSigs(r, 1, 80, 9)[0].W
	want, err := db.TopKSparse(q, 8, CosineMetric())
	if err != nil {
		t.Fatal(err)
	}

	// Grow the store, then save back into the directory the mappings
	// are served from.
	extra := randSigs(r, 50, 80, 9)
	for i := range extra {
		extra[i].DocID = fmt.Sprintf("grown-%d", i)
	}
	if err := db.AddAll(extra); err != nil {
		t.Fatal(err)
	}
	db.Seal()
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	after := stamp(dir)
	for name, mt := range before {
		got, ok := after[name]
		if !ok {
			t.Fatalf("mapped segment file %s disappeared after SaveDir", name)
		}
		if !got.Equal(mt) {
			t.Fatalf("mapped segment file %s was rewritten in place", name)
		}
	}
	if len(after) <= len(before) {
		t.Fatalf("grown store wrote no new segment files (%d -> %d)", len(before), len(after))
	}

	// Save to a fresh directory too — serialized from the mapped blobs.
	fresh := t.TempDir()
	if err := db.SaveDir(fresh); err != nil {
		t.Fatal(err)
	}
	reload, err := LoadDir(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if reload.Len() != len(sigs)+len(extra) {
		t.Fatalf("fresh snapshot Len = %d, want %d", reload.Len(), len(sigs)+len(extra))
	}

	// The original mapped view still answers (superset of the original
	// corpus, so just check it returns the old hits among top results).
	got, err := db.TopKSparse(q, 8, CosineMetric())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("mapped query after saves: %d hits, want %d", len(got), len(want))
	}
}
