package fmeter

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestWorkloadConstructors(t *testing.T) {
	for _, spec := range []WorkloadSpec{
		ScpWorkload(), KcompileWorkload(), DbenchWorkload(),
		ApachebenchWorkload(), NetperfWorkload(), BootWorkload(),
	} {
		if spec.Name == "" || len(spec.Ops) == 0 {
			t.Errorf("constructor produced empty spec: %+v", spec)
		}
	}
}

func TestTopTermsAndContrastFacade(t *testing.T) {
	sys, err := New(Config{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	scpDocs, err := sys.Collect(ScpWorkload(), 6, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys2, err := New(Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	dbDocs, err := sys2.Collect(DbenchWorkload(), 6, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigs, _, err := BuildSignatures(append(scpDocs, dbDocs...), sys.Dim())
	if err != nil {
		t.Fatal(err)
	}
	names := sys.FunctionNames()

	// An scp signature's ten heaviest terms should include the crypto path.
	var top []TermWeight
	sigs[0].W.ForEach(func(i int, w float64) { top = append(top, TermWeight{Term: i, Name: names[i], Weight: w}) })
	sort.Slice(top, func(i, j int) bool { return top[i].Weight > top[j].Weight })
	foundCrypto := false
	for _, tw := range top[:10] {
		if strings.Contains(tw.Name, "crypto") || strings.Contains(tw.Name, "sha1") {
			foundCrypto = true
		}
	}
	if !foundCrypto {
		t.Errorf("scp top terms lack crypto functions: %+v", top[:10])
	}

	diff, err := Contrast(sigs[0], sigs[len(sigs)-1], 10, names)
	if err != nil {
		t.Fatal(err)
	}
	// scp-vs-dbench contrast should surface ext3/journal on the negative
	// side or crypto on the positive side.
	recognizable := false
	for _, tw := range diff {
		n := tw.Name
		if (strings.Contains(n, "crypto") && tw.Weight > 0) ||
			((strings.Contains(n, "ext3") || strings.Contains(n, "journal")) && tw.Weight < 0) {
			recognizable = true
		}
	}
	if !recognizable {
		t.Errorf("contrast lacks recognizable discriminators: %+v", diff)
	}
}

func TestModelPersistenceFacade(t *testing.T) {
	sys, err := New(Config{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := sys.Collect(ScpWorkload(), 4, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, model, err := BuildSignatures(docs, sys.Dim())
	if err != nil {
		t.Fatal(err)
	}
	var mBuf bytes.Buffer
	if err := WriteModel(&mBuf, model); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadModel(&mBuf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Dim() != model.Dim() {
		t.Error("model round trip lost dimension")
	}
}

// TestShardedDBFacade pins that the deprecated WithShards is a no-op:
// a store built or reopened with it answers exactly like one without,
// at any worker count, and its snapshot manifest records one shard.
func TestShardedDBFacade(t *testing.T) {
	sys, err := New(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := sys.Collect(ScpWorkload(), 12, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	more, err := sys.Collect(DbenchWorkload(), 12, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigs, _, err := BuildSignatures(append(docs, more...), sys.Dim())
	if err != nil {
		t.Fatal(err)
	}
	query, rest := sigs[0], sigs[1:]

	single, err := NewDB(sys.Dim())
	if err != nil {
		t.Fatal(err)
	}
	single.SetWorkers(-1)
	if err := single.AddAll(rest); err != nil {
		t.Fatal(err)
	}
	want, err := single.TopKSparse(query.W, 5, EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}
	same := func(tag string, db *DB) {
		t.Helper()
		got, err := db.TopKSparse(query.W, 5, EuclideanMetric())
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Signature.DocID != want[i].Signature.DocID || got[i].Score != want[i].Score {
				t.Fatalf("%s: hit %d differs: (%s, %v) vs (%s, %v)",
					tag, i, got[i].Signature.DocID, got[i].Score, want[i].Signature.DocID, want[i].Score)
			}
		}
	}

	sharded, err := NewDB(sys.Dim(), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	sharded.SetWorkers(2)
	if err := sharded.AddAll(rest); err != nil {
		t.Fatal(err)
	}
	same("WithShards(4)", sharded)

	dir := filepath.Join(t.TempDir(), "store")
	if err := SaveDB(dir, sharded); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"shards": 1,`) {
		t.Fatalf("manifest does not record one shard:\n%s", raw)
	}
	reopened, err := OpenDB(dir, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	reopened.SetWorkers(3)
	if reopened.Len() != sharded.Len() {
		t.Fatalf("reopened len = %d, want %d", reopened.Len(), sharded.Len())
	}
	same("reopened with WithShards(2)", reopened)
}

// bruteTopK is the brute-force oracle the store's answers are held to:
// it scores every signature against q with the sparse dot and the
// cached-norm formula of m (cosine, the similarity, or Euclidean), then
// stable-sorts by (score, insertion index) and keeps the first k.
func bruteTopK(sigs []Signature, q *Sparse, k int, m Metric) []SearchResult {
	out := make([]SearchResult, len(sigs))
	for i, s := range sigs {
		dot, qn, sn := q.Dot(s.W), q.Norm2(), s.W.Norm2()
		var score float64
		switch {
		case !m.HigherIsCloser:
			d2 := qn - 2*dot + sn
			if d2 < 0 {
				d2 = 0
			}
			score = math.Sqrt(d2)
		case qn != 0 && sn != 0:
			score = max(-1, min(1, dot/(math.Sqrt(qn)*math.Sqrt(sn))))
		}
		out[i] = SearchResult{Signature: s, Score: score}
	}
	slices.SortStableFunc(out, func(a, b SearchResult) int {
		switch {
		case a.Score == b.Score:
			return 0
		case (a.Score > b.Score) == m.HigherIsCloser:
			return -1
		}
		return 1
	})
	return out[:min(k, len(out))]
}

// TestBatchFacade drives the batched retrieval facade: TopKBatch is
// bit-identical to the brute-force oracle (bruteTopK) and ClassifyBatch
// to per-query ClassifySparse.
func TestBatchFacade(t *testing.T) {
	sys, err := New(Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := sys.Collect(ScpWorkload(), 10, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	more, err := sys.Collect(DbenchWorkload(), 10, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigs, _, err := BuildSignatures(append(docs, more...), sys.Dim())
	if err != nil {
		t.Fatal(err)
	}
	store, probes := sigs[4:], sigs[:4]
	queries := make([]*Sparse, len(probes))
	for i, s := range probes {
		queries[i] = s.W
	}

	indexed, err := NewDB(sys.Dim(), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	indexed.SetWorkers(2)
	if err := indexed.AddAll(store); err != nil {
		t.Fatal(err)
	}

	metric := EuclideanMetric()
	batch, err := indexed.TopKBatch(queries, 5, metric)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := indexed.ClassifyBatch(queries, 5, metric)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		single := bruteTopK(store, q, 5, metric)
		if len(batch[qi]) != len(single) {
			t.Fatalf("query %d: %d hits vs %d", qi, len(batch[qi]), len(single))
		}
		for i := range single {
			if batch[qi][i].Signature.DocID != single[i].Signature.DocID || batch[qi][i].Score != single[i].Score {
				t.Fatalf("query %d hit %d: indexed batch (%s, %v) vs oracle (%s, %v)", qi, i,
					batch[qi][i].Signature.DocID, batch[qi][i].Score, single[i].Signature.DocID, single[i].Score)
			}
		}
		label, err := indexed.ClassifySparse(q, 5, metric)
		if err != nil {
			t.Fatal(err)
		}
		if labels[qi] != label {
			t.Fatalf("query %d: ClassifyBatch %q vs ClassifySparse %q", qi, labels[qi], label)
		}
	}
}

// TestSaveOpenDBFacade drives the path-based persistence facade: SaveDB
// writes the snapshot directory, OpenDB loads it (and refuses a path that
// is not a directory), repeated saves are incremental, and a corrupted
// segment surfaces the typed *SnapshotError naming the file.
func TestSaveOpenDBFacade(t *testing.T) {
	sys, err := New(Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := sys.Collect(ScpWorkload(), 10, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigs, _, err := BuildSignatures(docs, sys.Dim())
	if err != nil {
		t.Fatal(err)
	}
	query, rest := sigs[0], sigs[1:]
	db, err := NewDB(sys.Dim(), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	addSealedChunks(t, db, rest, 4)
	db.Seal()
	want, err := db.TopKSparse(query.W, 3, EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "store")
	if err := SaveDB(dir, db); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewDB(sys.Dim())
	if err != nil {
		t.Fatal(err)
	}
	if o, n := back.Publishes(), fresh.Publishes(); o != 0 || n != 0 {
		t.Fatalf("an option-less OpenDB / NewDB published %d / %d views before any mutation, want 0 / 0", o, n)
	}
	got, err := back.TopKSparse(query.W, 3, EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Signature.DocID != want[i].Signature.DocID || got[i].Score != want[i].Score {
			t.Fatalf("hit %d differs after SaveDB/OpenDB", i)
		}
	}
	// Incremental: a reloaded store re-saves its manifest alone.
	segFiles := func() map[string]os.FileInfo {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]os.FileInfo{}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "seg-") {
				if out[e.Name()], err = e.Info(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return out
	}
	before := segFiles()
	if err := SaveDB(dir, back); err != nil {
		t.Fatal(err)
	}
	after := segFiles()
	for name, fi := range before {
		if got, ok := after[name]; !ok || !os.SameFile(got, fi) || !got.ModTime().Equal(fi.ModTime()) {
			t.Fatalf("re-saving a freshly opened store rewrote or removed %s", name)
		}
	}
	if len(after) != len(before) {
		t.Fatalf("re-saving a freshly opened store left %d segment files, want %d", len(after), len(before))
	}

	// The deprecated WithMapped changes nothing: the same resident
	// store, no mapped bytes, the same hits; Close retires the store.
	mdb, err := OpenDB(dir, WithMapped(true))
	if err != nil {
		t.Fatal(err)
	}
	if mdb.MappedBytes() != 0 || mdb.IndexBytes() != back.IndexBytes() {
		t.Fatalf("WithMapped open: %d mapped / %d index bytes, want 0 / %d", mdb.MappedBytes(), mdb.IndexBytes(), back.IndexBytes())
	}
	gotM, err := mdb.TopKSparse(query.W, 3, EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if gotM[i].Signature.DocID != want[i].Signature.DocID || gotM[i].Score != want[i].Score {
			t.Fatalf("WithMapped hit %d differs", i)
		}
	}
	if err := mdb.Close(); err != nil {
		t.Fatal(err)
	}
	var cfgErr *ConfigError
	if _, err := mdb.TopKSparse(query.W, 3, EuclideanMetric()); !errors.As(err, &cfgErr) {
		t.Fatalf("query after Close = %v, want *ConfigError", err)
	}

	// A path that is not a directory is refused, typed, naming the path.
	file := filepath.Join(t.TempDir(), "store.fmdb")
	if err := os.WriteFile(file, []byte("FMDB"), 0o644); err != nil {
		t.Fatal(err)
	}
	var notDir *SnapshotError
	if _, err := OpenDB(file); !errors.As(err, &notDir) || notDir.Path != file {
		t.Fatalf("OpenDB on a file = %v, want *SnapshotError naming %s", err, file)
	}

	// Corruption is typed and names the file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segFile string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			segFile = e.Name()
			break
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, segFile))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x04
	if err := os.WriteFile(filepath.Join(dir, segFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDB(dir)
	var snapErr *SnapshotError
	if !errors.As(err, &snapErr) {
		t.Fatalf("corrupt segment error = %v, want *SnapshotError", err)
	}
	if filepath.Base(snapErr.Path) != segFile {
		t.Fatalf("error names %s, want %s", snapErr.Path, segFile)
	}
}

// addSealedChunks stores sigs in AddAll chunks of n rows and seals after
// each full one, so the index covers the rows in steps of n.
func addSealedChunks(t *testing.T, db *DB, sigs []Signature, n int) {
	t.Helper()
	for lo := 0; lo < len(sigs); lo += n {
		hi := min(lo+n, len(sigs))
		if err := db.AddAll(sigs[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if hi-lo == n {
			db.Seal()
		}
	}
}

func TestSegmentSizeAndSealFacade(t *testing.T) {
	sys, err := New(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := sys.Collect(ScpWorkload(), 14, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigs, _, err := BuildSignatures(docs, sys.Dim())
	if err != nil {
		t.Fatal(err)
	}
	query, rest := sigs[0], sigs[1:]

	db, err := NewDB(sys.Dim())
	if err != nil {
		t.Fatal(err)
	}
	addSealedChunks(t, db, rest, 4)
	want, err := db.TopKSparse(query.W, 5, EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}
	// Sealing indexes the remaining active rows (too few for a posting
	// run, so scored row by row until now): the index grows to cover
	// them, queries are unchanged, and a save/open round trip persists
	// the compressed form.
	tailRows, tailBytes := db.ActiveUnindexedRows(), db.IndexBytes()
	db.Seal()
	if tailRows == 0 || db.ActiveUnindexedRows() != 0 {
		t.Fatalf("ActiveUnindexedRows %d before Seal, %d after; want > 0, then 0", tailRows, db.ActiveUnindexedRows())
	}
	if got := db.IndexBytes(); got <= tailBytes {
		t.Fatalf("IndexBytes after Seal = %d, want > %d", got, tailBytes)
	}
	got, err := db.TopKSparse(query.W, 5, EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("sealed TopK returned %d hits, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Score != want[i].Score || got[i].Signature.DocID != want[i].Signature.DocID {
			t.Fatalf("sealed TopK[%d] = (%s, %v), want (%s, %v)",
				i, got[i].Signature.DocID, got[i].Score, want[i].Signature.DocID, want[i].Score)
		}
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := SaveDB(dir, db); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := back.TopKSparse(query.W, 5, EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}
	for i := range reloaded {
		if reloaded[i].Score != want[i].Score || reloaded[i].Signature.DocID != want[i].Signature.DocID {
			t.Fatalf("reloaded TopK[%d] differs from the pre-seal results", i)
		}
	}
}

// TestPruningFacade drives the pruned walk through the facade: a store
// sealed every 8 rows answers bit-identically to the brute-force
// oracle (bruteTopK), and the
// pruning counters are visible.
func TestPruningFacade(t *testing.T) {
	sys, err := New(Config{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := sys.Collect(ScpWorkload(), 30, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigs, _, err := BuildSignatures(docs, sys.Dim())
	if err != nil {
		t.Fatal(err)
	}
	query, rest := sigs[0], sigs[1:]

	pruned, err := NewDB(sys.Dim(), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	addSealedChunks(t, pruned, rest, 8)
	pruned.Seal()
	got, st, err := pruned.TopKSparseStats(query.W, 5, CosineMetric())
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments == 0 {
		t.Fatalf("stats saw no segments: %+v", st)
	}
	want := bruteTopK(rest, query.W, 5, CosineMetric())
	for i := range want {
		if got[i].Signature.DocID != want[i].Signature.DocID || got[i].Score != want[i].Score {
			t.Fatalf("pruned hit %d = (%s, %v), oracle says (%s, %v)",
				i, got[i].Signature.DocID, got[i].Score, want[i].Signature.DocID, want[i].Score)
		}
	}
}

func TestCollectStreamFacade(t *testing.T) {
	sys, err := New(Config{Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sys.Collect(DbenchWorkload(), 5, 5*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigs, model, err := BuildSignatures(warm, sys.Dim())
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDB(sys.Dim(), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AddAll(sigs); err != nil {
		t.Fatal(err)
	}
	sys.SetRetryPolicy(RetryPolicy{Retries: 2, Backoff: time.Millisecond, Jitter: 0.5})
	var log bytes.Buffer
	added, err := sys.CollectStream(DbenchWorkload(), 3, 5*time.Second, model, db, &log)
	if err != nil {
		t.Fatal(err)
	}
	if added != 3 {
		t.Fatalf("added = %d, want 3", added)
	}
	if db.Len() != len(sigs)+3 {
		t.Fatalf("db.Len() = %d, want %d", db.Len(), len(sigs)+3)
	}
	docs, err := ReadDocuments(&log)
	if err != nil || len(docs) != 3 {
		t.Fatalf("stream log holds %d docs (%v), want 3", len(docs), err)
	}
	if st := sys.CollectorStats(); st.Retries != 0 || st.SkippedIntervals != 0 {
		t.Fatalf("clean stream reported degradation: %+v", st)
	}
}
