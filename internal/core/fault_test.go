package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// errInjected is the sentinel every injected fault wraps, so the
// matrices can tell an injected failure from a real one.
var errInjected = errors.New("injected fault")

// faultPlan fails the step-th filesystem operation (transient), or
// every operation from the step-th on (crash: the process "dies" and
// even cleanup stops succeeding).
type faultPlan struct {
	step  int
	crash bool
	n     int
	fired bool
}

func (p *faultPlan) hook(op fsOp, path string) error {
	i := p.n
	p.n++
	if (p.crash && i >= p.step) || (!p.crash && i == p.step) {
		p.fired = true
		return fmt.Errorf("%s %s: %w", op, filepath.Base(path), errInjected)
	}
	return nil
}

// buildFaultCorpus makes a fresh snapshot directory holding nOld
// signatures (snapshot A), then mutates the live DB — more adds that
// fill the saved tail segment and open more, a seal — so the next
// SaveDir has real work at every operation class: new segment files
// (the filled tail whole), a manifest rewrite, and the removal of the
// file that held the tail's first rows.
// Returns the DB, the directory, and the old/new counts.
func buildFaultCorpus(t *testing.T) (*DB, string, int, int) {
	t.Helper()
	const dim, nnz = 24, 6
	r := rand.New(rand.NewSource(29))
	sigs := randSigs(r, 150, dim, nnz)
	db, err := newTestDB(dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	db.setSegmentSize(16)
	if err := db.AddAll(sigs[:100]); err != nil {
		t.Fatal(err)
	}
	db.Seal()
	dir := t.TempDir()
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll(sigs[100:]); err != nil {
		t.Fatal(err)
	}
	db.Seal()
	return db, dir, 100, 150
}

// buildRecutCorpus makes a snapshot directory holding 100 signatures in
// files of 30, 30 and 40 rows — an older build's cut — and loads it at
// segment size 16, which every file straddles, so no file holds a
// segment of the loaded store; then it appends 50 more. The next
// SaveDir writes the canonical layout beside the old files and must
// remove them only once its manifest is durable. Returns the DB, the
// directory, and the old/new counts.
func buildRecutCorpus(t *testing.T) (*DB, string, int, int) {
	t.Helper()
	const dim, nnz = 24, 6
	sigs := randSigs(rand.New(rand.NewSource(43)), 150, dim, nnz)
	dir := t.TempDir()
	saveCut(t, dir, dim, sigs[:100], 30, 30, 40)
	db, err := loadDir(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll(sigs[100:]); err != nil {
		t.Fatal(err)
	}
	return db, dir, 100, 150
}

// buildFillCorpus makes a snapshot directory whose active segment is
// held in three short files — 16 rows in a full segment's file, then
// saves of 4, 3 and 3 more at segment size 16 — and fills that segment
// and opens the next with 8 more rows. The next SaveDir writes the
// filled segment as one file beside the three short ones and must
// remove them only once its manifest is durable. Returns the DB, the
// directory, and the old/new counts.
func buildFillCorpus(t *testing.T) (*DB, string, int, int) {
	t.Helper()
	const dim, nnz = 24, 6
	sigs := randSigs(rand.New(rand.NewSource(47)), 34, dim, nnz)
	db, err := newTestDB(dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	db.setSegmentSize(16)
	dir := t.TempDir()
	start := 0
	for _, n := range []int{20, 3, 3} {
		if err := db.AddAll(sigs[start : start+n]); err != nil {
			t.Fatal(err)
		}
		if err := db.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		start += n
	}
	if got := len(readManifest(t, dir).Segments[0]); got != 4 {
		t.Fatalf("fixture: %d files, want a full segment's and three short ones", got)
	}
	if err := db.AddAll(sigs[start:]); err != nil {
		t.Fatal(err)
	}
	return db, dir, start, len(sigs)
}

// buildForeignCorpus makes a snapshot directory holding another DB's
// 40 signatures, then builds a fresh 70-signature DB that has never
// saved there: its segment ids start at 0 like the old DB's did, so the
// next SaveDir into the directory must not reuse a name the old
// manifest still holds. Returns the fresh DB, the directory, and the
// old/new counts.
func buildForeignCorpus(t *testing.T) (*DB, string, int, int) {
	t.Helper()
	const dim, nnz = 24, 6
	r := rand.New(rand.NewSource(37))
	dir := t.TempDir()
	for _, n := range []int{40, 70} {
		db, err := newTestDB(dim, 2)
		if err != nil {
			t.Fatal(err)
		}
		db.setSegmentSize(16)
		if err := db.AddAll(randSigs(r, n, dim, nnz)); err != nil {
			t.Fatal(err)
		}
		db.Seal()
		if n == 70 {
			return db, dir, 40, 70
		}
		if err := db.SaveDir(dir); err != nil {
			t.Fatal(err)
		}
		db.Close()
	}
	panic("unreachable")
}

// verifyLoadable proves the directory is a complete snapshot: it loads
// without error and holds one of the two legal counts — the previous
// snapshot (fault before the manifest landed) or the new one (fault
// after). Anything else is a partial directory.
func verifyLoadable(t *testing.T, dir string, step int, mode string, oldN, newN int) int {
	t.Helper()
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("%s step %d: directory unloadable after fault: %v", mode, step, err)
	}
	defer got.Close()
	if n := got.Len(); n != oldN && n != newN {
		t.Fatalf("%s step %d: loaded %d signatures, want %d (previous) or %d (new)", mode, step, n, oldN, newN)
	}
	return got.Len()
}

// TestSaveDirTransientFaultMatrix fails each filesystem operation of a
// SaveDir exactly once — every create, write, fsync, close, rename,
// remove, and directory sync, one per matrix step. At every step the
// failure must surface as a typed *SnapshotError wrapping the injected
// cause, the directory must remain fully loadable (previous snapshot
// before the manifest rename, new snapshot after), and a retry with
// the fault cleared must succeed and load as the new snapshot.
func TestSaveDirTransientFaultMatrix(t *testing.T) {
	defer func() { fsFault = nil }()
	for step := 0; ; step++ {
		db, dir, oldN, newN := buildFaultCorpus(t)
		plan := &faultPlan{step: step}
		fsFault = plan.hook
		err := db.SaveDir(dir)
		fsFault = nil
		if !plan.fired {
			if err != nil {
				t.Fatalf("step %d: fault never fired yet SaveDir failed: %v", step, err)
			}
			t.Logf("transient matrix covered %d operation steps", step)
			db.Close()
			return
		}
		var se *SnapshotError
		if !errors.As(err, &se) {
			t.Fatalf("step %d: SaveDir error %v (%T), want *SnapshotError", step, err, err)
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("step %d: SaveDir error %v does not wrap the injected fault", step, err)
		}
		verifyLoadable(t, dir, step, "transient", oldN, newN)
		// Transient means transient: the very next save must succeed and
		// commit the full new state.
		if err := db.SaveDir(dir); err != nil {
			t.Fatalf("step %d: retry SaveDir after transient fault: %v", step, err)
		}
		if n := verifyLoadable(t, dir, step, "transient-retry", newN, newN); n != newN {
			t.Fatalf("step %d: retried save loads %d signatures, want %d", step, n, newN)
		}
		db.Close()
	}
}

// TestSaveDirRetrySyncsBeforeManifest pins the ordering a retried save
// owes the files it names: after a save whose directory sync failed —
// its new files renamed, its manifest never written — the retry's
// manifest must name no file whose rename a directory sync has not made
// durable before the manifest's own rename. Every file it names is
// either in the previous durable manifest or renamed by the retry ahead
// of a syncdir that precedes "rename MANIFEST.json".
func TestSaveDirRetrySyncsBeforeManifest(t *testing.T) {
	defer func() { fsFault = nil }()
	db, dir, _, _ := buildFaultCorpus(t)
	defer db.Close()
	durable := map[string]bool{}
	for _, ent := range readManifest(t, dir).Segments[0] {
		durable[ent.File] = true
	}
	vetoed := false
	fsFault = func(op fsOp, path string) error {
		if op == opSyncDir && !vetoed {
			vetoed = true
			return fmt.Errorf("%s %s: %w", op, filepath.Base(path), errInjected)
		}
		return nil
	}
	if err := db.SaveDir(dir); !errors.Is(err, errInjected) {
		t.Fatalf("first save: %v, want the vetoed directory sync", err)
	}
	var trace []string
	fsFault = func(op fsOp, path string) error {
		trace = append(trace, op.String()+" "+filepath.Base(path))
		return nil
	}
	err := db.SaveDir(dir)
	fsFault = nil
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	manifest := slices.Index(trace, "rename "+manifestName)
	if manifest < 0 {
		t.Fatalf("retry never renamed the manifest: %s", strings.Join(trace, ", "))
	}
	for _, ent := range readManifest(t, dir).Segments[0] {
		if durable[ent.File] {
			continue
		}
		renamed := slices.Index(trace, "rename "+ent.File)
		synced := renamed >= 0 && renamed < manifest && slices.ContainsFunc(trace[renamed:manifest], func(s string) bool {
			return strings.HasPrefix(s, opSyncDir.String()+" ")
		})
		if !synced {
			t.Fatalf("the retry's manifest names %s, which no directory sync made durable before the manifest's rename; retry trace: %s",
				ent.File, strings.Join(trace, ", "))
		}
	}
}

// TestSaveDirCrashMatrix simulates a crash at every point of a SaveDir:
// from the step-th filesystem operation on, nothing succeeds — not even
// cleanup, exactly like a killed process — and the DB is abandoned. The
// directory must still load (previous or new snapshot, never partial),
// and a recovery sequence — load, append, save — must converge to a
// clean directory with no temp-file or orphan leftovers. The matrix runs
// four arms: the DB re-saving into its own directory, a fresh DB
// saving into a directory that holds another DB's snapshot, a DB
// loaded from an older build's cut re-saving its canonical layout, and
// a DB whose filled segment replaces the short files that held it.
func TestSaveDirCrashMatrix(t *testing.T) {
	t.Run("own-dir", func(t *testing.T) { crashMatrix(t, buildFaultCorpus) })
	t.Run("foreign-dir", func(t *testing.T) { crashMatrix(t, buildForeignCorpus) })
	t.Run("recut", func(t *testing.T) { crashMatrix(t, buildRecutCorpus) })
	t.Run("fill", func(t *testing.T) { crashMatrix(t, buildFillCorpus) })
}

func crashMatrix(t *testing.T, build func(*testing.T) (*DB, string, int, int)) {
	defer func() { fsFault = nil }()
	const dim, nnz = 24, 6
	r := rand.New(rand.NewSource(31))
	extra := randSigs(r, 10, dim, nnz)
	for i := range extra {
		extra[i].DocID = fmt.Sprintf("extra-%d", i)
	}
	for step := 0; ; step++ {
		db, dir, oldN, newN := build(t)
		plan := &faultPlan{step: step, crash: true}
		fsFault = plan.hook
		err := db.SaveDir(dir)
		fsFault = nil
		if !plan.fired {
			if err != nil {
				t.Fatalf("step %d: crash never fired yet SaveDir failed: %v", step, err)
			}
			t.Logf("crash matrix covered %d operation steps", step)
			db.Close()
			return
		}
		if err == nil {
			// The crash hit only the post-manifest cleanup: the save
			// itself may legitimately have committed. Either way the
			// invariants below must hold.
			_ = err
		} else {
			var se *SnapshotError
			if !errors.As(err, &se) {
				t.Fatalf("step %d: SaveDir error %v (%T), want *SnapshotError", step, err, err)
			}
		}
		// The process is "dead": abandon db without Close, like a crash
		// would. The directory left behind must be a complete snapshot.
		verifyLoadable(t, dir, step, "crash", oldN, newN)

		// Recovery: reopen, append, save. The recovered directory must be
		// clean — manifest plus exactly the referenced segment files, no
		// temp leftovers from the crashed save.
		re, err := LoadDir(dir)
		if err != nil {
			t.Fatalf("step %d: recovery load: %v", step, err)
		}
		if err := re.AddAll(extra); err != nil {
			t.Fatalf("step %d: recovery append: %v", step, err)
		}
		if err := re.SaveDir(dir); err != nil {
			t.Fatalf("step %d: recovery save: %v", step, err)
		}
		wantN := re.Len()
		re.Close()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".tmp-") {
				t.Fatalf("step %d: temp file %s survives the recovery save", step, e.Name())
			}
		}
		if n := verifyLoadable(t, dir, step, "recovery", wantN, wantN); n != wantN {
			t.Fatalf("step %d: recovered directory loads %d signatures, want %d", step, n, wantN)
		}
	}
}

// TestLoadDirFaultMatrix fails each read a LoadDir performs (manifest,
// then every segment file) and demands a typed *SnapshotError wrapping
// the injected cause — never a partial DB — and a clean load once the
// fault passes.
func TestLoadDirFaultMatrix(t *testing.T) {
	defer func() { fsFault = nil }()
	db, dir, _, newN := buildFaultCorpus(t)
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	db.Close()
	for step := 0; ; step++ {
		plan := &faultPlan{step: step}
		fsFault = plan.hook
		got, err := LoadDir(dir)
		fsFault = nil
		if !plan.fired {
			if err != nil {
				t.Fatalf("step %d: fault never fired yet LoadDir failed: %v", step, err)
			}
			if got.Len() != newN {
				t.Fatalf("step %d: clean load holds %d signatures, want %d", step, got.Len(), newN)
			}
			got.Close()
			t.Logf("load matrix covered %d operation steps", step)
			return
		}
		if err == nil {
			got.Close()
			t.Fatalf("step %d: LoadDir succeeded despite injected read fault", step)
		}
		var se *SnapshotError
		if !errors.As(err, &se) {
			t.Fatalf("step %d: LoadDir error %v (%T), want *SnapshotError", step, err, err)
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("step %d: LoadDir error %v does not wrap the injected fault", step, err)
		}
	}
}

// TestSaveDirRemovesOrphansUnderLoad saves a re-cut layout while
// queries run: SaveDir removes the replaced segment files before it
// returns, leaving exactly the manifest and the live segment files, and
// the directory loads with the full store.
func TestSaveDirRemovesOrphansUnderLoad(t *testing.T) {
	src, dir, _, newN := buildFaultCorpus(t)
	if err := src.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	src.Close()
	// Loaded at segment size 20, every 16-row file straddles a segment
	// boundary: the re-cut orphans every file the directory holds.
	db, err := loadDir(dir, 20)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := randSigs(rand.New(rand.NewSource(41)), 1, db.Dim(), 6)[0].W

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queried atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.TopKSparse(q, 5, CosineMetric()); err != nil {
					t.Errorf("query during SaveDir: %v", err)
					return
				}
				queried.Add(1)
			}
		}()
	}
	for queried.Load() < 10 {
		runtime.Gosched()
	}
	err = db.SaveDir(dir)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("SaveDir under load: %v", err)
	}

	final, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{manifestName: true}
	for _, ent := range readManifest(t, dir).Segments[0] {
		live[ent.File] = true
	}
	if len(final) != len(live) {
		t.Fatalf("directory holds %d files, want the manifest and %d segment files", len(final), len(live)-1)
	}
	for _, e := range final {
		if !live[e.Name()] {
			t.Fatalf("orphan %s survives the save", e.Name())
		}
	}
	replaced := 0
	for _, e := range before {
		if !live[e.Name()] {
			replaced++
		}
	}
	if replaced != len(before)-1 {
		t.Fatalf("the re-cut layout replaced %d of %d segment files, want all", replaced, len(before)-1)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("saved directory unloadable: %v", err)
	}
	if back.Len() != newN {
		t.Fatalf("saved directory loads %d signatures, want %d", back.Len(), newN)
	}
}
