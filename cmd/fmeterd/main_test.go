package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	fmeter "repro"
)

// runDaemon runs the daemon to completion under a background context.
func runDaemon(args []string, stdout, stderr io.Writer) error {
	return run(context.Background(), args, stdout, stderr)
}

// openLen opens the snapshot at dir and returns its signature count.
func openLen(t *testing.T, dir string) int {
	t.Helper()
	db, err := fmeter.OpenDB(dir)
	if err != nil {
		t.Fatalf("opening live DB snapshot: %v", err)
	}
	defer db.Close()
	return db.Len()
}

// readDocs parses a JSONL log.
func readDocs(t *testing.T, r io.Reader) []*fmeter.Document {
	t.Helper()
	docs, err := fmeter.ReadDocuments(r)
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

func TestDaemonStreamsIntervals(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := runDaemon([]string{
		"-workload", "dbench", "-intervals", "4", "-interval", "5s", "-status-every", "2",
	}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	docs := readDocs(t, &out)
	if len(docs) != 4 {
		t.Fatalf("docs = %d", len(docs))
	}
	if docs[0].Label != "dbench" {
		t.Errorf("label = %q", docs[0].Label)
	}
	status := errBuf.String()
	if strings.Count(status, "[fmeterd]") < 3 {
		t.Errorf("expected periodic status lines, got %q", status)
	}
	if !strings.Contains(status, "done: 4 intervals") {
		t.Errorf("final summary missing: %q", status)
	}
}

func TestDaemonAppendsToLogFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sig.jsonl")
	var out, errBuf bytes.Buffer
	for i := 0; i < 2; i++ {
		if err := runDaemon([]string{
			"-workload", "scp", "-intervals", "2", "-log", path, "-status-every", "0",
		}, &out, &errBuf); err != nil {
			t.Fatal(err)
		}
	}
	if out.Len() != 0 {
		t.Error("stdout should stay empty with a -log file")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if docs := readDocs(t, f); len(docs) != 4 {
		t.Errorf("appended log has %d docs, want 4", len(docs))
	}
}

// TestDaemonNetperfDriverSelection: netperf loads the paper's baseline
// driver when -driver is unset, and any named variant otherwise.
func TestDaemonNetperfDriverSelection(t *testing.T) {
	for _, driver := range []string{"", "1.4.3", "1.5.1-nolro"} {
		var out, errBuf bytes.Buffer
		err := runDaemon([]string{
			"-workload", "netperf", "-driver", driver, "-intervals", "1", "-status-every", "0",
		}, &out, &errBuf)
		if err != nil {
			t.Fatalf("driver %q: %v", driver, err)
		}
		if out.Len() == 0 {
			t.Errorf("driver %q: no document logged", driver)
		}
	}
}

func TestDaemonRejectsBadFlags(t *testing.T) {
	// A snapshot whose manifest names two shards: refused on open, with
	// the loader's typed error naming the manifest.
	sharded := t.TempDir()
	manifest := filepath.Join(sharded, "MANIFEST.json")
	if err := os.WriteFile(manifest, []byte(`{"format":"fmdb-dir","version":2,"dim":1,"shards":2,"count":0,"next_segment":0,"segments":[[],[]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-intervals", "0"},
		{"-workload", "netperf", "-driver", "bogus"},
		{"-driver", "bogus", "-intervals", "1"},
		{"-ingest-batch", "0", "-intervals", "4"},
		{"-db", sharded, "-intervals", "4", "-warmup", "2"},
	} {
		err := runDaemon(args, &out, &errBuf)
		if err == nil {
			t.Errorf("args %v should fail", args)
			continue
		}
		var se *fmeter.SnapshotError
		if args[0] == "-db" && (!errors.As(err, &se) || se.Path != manifest) {
			t.Errorf("args %v: %v, want a *SnapshotError naming %s", args, err, manifest)
		}
	}
}

func TestDaemonLiveDBStreaming(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	var out, errBuf bytes.Buffer
	err := runDaemon([]string{
		"-workload", "scp", "-intervals", "6", "-interval", "5s",
		"-db", dir, "-warmup", "2", "-status-every", "0",
	}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	// Every interval, warmup and streamed alike, hits the JSONL log.
	if docs := readDocs(t, &out); len(docs) != 6 {
		t.Fatalf("logged docs = %d, want 6", len(docs))
	}
	// The snapshot directory holds the full live DB: warmup + streamed.
	if n := openLen(t, dir); n != 6 {
		t.Fatalf("db.Len() = %d, want 6 (2 warmup + 4 streamed)", n)
	}
	if !strings.Contains(errBuf.String(), "db "+dir) {
		t.Errorf("missing db summary line: %q", errBuf.String())
	}
}

// TestDaemonLiveDBEmptyDir: a -db directory made beforehand and still
// empty starts a new DB, as a missing one does, and holds its snapshot
// after the drain.
func TestDaemonLiveDBEmptyDir(t *testing.T) {
	dir := t.TempDir()
	var out, errBuf bytes.Buffer
	err := runDaemon([]string{
		"-workload", "scp", "-intervals", "4", "-interval", "5s",
		"-db", dir, "-warmup", "2", "-status-every", "0",
	}, &out, &errBuf)
	if err != nil {
		t.Fatalf("%v\nstderr:\n%s", err, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "(0 loaded + 2 warmup + 2 streamed") {
		t.Errorf("empty directory was not seeded from the warmup:\n%s", errBuf.String())
	}
	if n := openLen(t, dir); n != 4 {
		t.Fatalf("db.Len() = %d, want 4 (2 warmup + 2 streamed)", n)
	}
}

func TestDaemonRejectsBadWarmup(t *testing.T) {
	var out, errBuf bytes.Buffer
	for _, args := range [][]string{
		{"-db", "x", "-intervals", "5", "-warmup", "1"},
		{"-db", "x", "-intervals", "5", "-warmup", "5"},
		{"-serve", "127.0.0.1:0", "-intervals", "5", "-warmup", "1"},
		{"-smoke", "-intervals", "5", "-warmup", "5"},
	} {
		if err := runDaemon(args, &out, &errBuf); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

// TestSmokeEndToEnd boots the whole service on a loopback port without a
// snapshot directory, runs the self-test round trip (healthz, topk,
// classify, ingest, metrics) and drains — the CI serve-smoke step.
func TestSmokeEndToEnd(t *testing.T) {
	var out, stderr bytes.Buffer
	err := runDaemon([]string{"-smoke", "-warmup", "6", "-intervals", "12", "-interval", "2s"}, &out, &stderr)
	if err != nil {
		t.Fatalf("smoke run: %v\nstderr:\n%s", err, stderr.String())
	}
	for _, want := range []string{"smoke OK", "db (in memory): 13 signatures"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
}

// TestDaemonServeAndBatchedIngest: the smoke round trip against a
// snapshotted DB fed in chunks of three intervals, each published by
// one AddAll, under a small admission bound. The drained snapshot holds
// every logged interval plus the document the smoke ingested over HTTP.
func TestDaemonServeAndBatchedIngest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	var out, errBuf bytes.Buffer
	err := runDaemon([]string{
		"-workload", "scp", "-intervals", "8", "-interval", "5s",
		"-db", dir, "-warmup", "2", "-status-every", "0",
		"-smoke", "-ingest-batch", "3", "-max-queue", "4",
	}, &out, &errBuf)
	if err != nil {
		t.Fatalf("%v\nstderr:\n%s", err, errBuf.String())
	}
	for _, want := range []string{"serving 127.0.0.1:", "smoke OK", "served ", "db " + dir} {
		if !strings.Contains(errBuf.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errBuf.String())
		}
	}
	logged := len(readDocs(t, &out))
	if logged != 8 {
		t.Fatalf("logged docs = %d, want 8", logged)
	}
	if n := openLen(t, dir); n != logged+1 {
		t.Fatalf("db.Len() = %d, want %d (2 warmup + 6 streamed + 1 smoke ingest)", n, logged+1)
	}
}

// TestDaemonRestartReopensSnapshot runs the daemon twice on one -db
// directory: the second run opens the first run's snapshot and appends
// its warmup and streamed intervals to it instead of replacing it.
func TestDaemonRestartReopensSnapshot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	var out, errBuf bytes.Buffer
	args := func(intervals string) []string {
		return []string{"-workload", "scp", "-intervals", intervals, "-interval", "5s",
			"-db", dir, "-warmup", "2", "-status-every", "0"}
	}
	if err := runDaemon(args("6"), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	first := openLen(t, dir)
	if first != 6 {
		t.Fatalf("first run stored %d signatures, want 6", first)
	}
	before := segFiles(t, dir)
	if len(before) != 1 {
		t.Fatalf("first run left %d segment files, want 1", len(before))
	}
	errBuf.Reset()
	if err := runDaemon(args("5"), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "(6 loaded + 2 warmup + 3 streamed") {
		t.Errorf("second run did not report reopening the snapshot:\n%s", errBuf.String())
	}
	if n := openLen(t, dir); n != first+5 {
		t.Fatalf("after restart db.Len() = %d, want %d (first run + 2 warmup + 3 streamed)", n, first+5)
	}
	// The restarted daemon appended to the reloaded segment instead of
	// opening another, and its drain wrote only the new rows: the first
	// run's file unchanged, one new file of 5 records, and the eleven
	// rows load as one segment.
	after := segFiles(t, dir)
	if len(after) != 2 {
		t.Fatalf("after restart the snapshot holds %d segment files, want 2", len(after))
	}
	for name, b := range after {
		old, ok := before[name]
		records := binary.LittleEndian.Uint32(b[10:14]) // after the magic, version and dim
		switch {
		case ok && !bytes.Equal(b, old):
			t.Fatalf("the first run's %s was rewritten", name)
		case !ok && records != 5:
			t.Fatalf("new %s holds %d records, want the 2 warmup + 3 streamed", name, records)
		}
	}
	db, err := fmeter.OpenDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Segments() != 1 {
		t.Fatalf("after restart the snapshot loads as %d segments, want 1", db.Segments())
	}
}

// TestDaemonReopenKeepsModel runs the daemon twice on one -db directory
// with different workloads: the first run writes the model it fitted
// beside the snapshot, and the second, which reopens the snapshot,
// embeds its warmup and streamed intervals with that model — not one
// refitted on its own warmup — and leaves model.json byte for byte as
// it was.
func TestDaemonReopenKeepsModel(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	args := func(workload, intervals string) []string {
		return []string{"-workload", workload, "-intervals", intervals, "-interval", "5s",
			"-db", dir, "-warmup", "2", "-status-every", "0"}
	}
	var out, errBuf bytes.Buffer
	if err := runDaemon(args("scp", "6"), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, modelFile)
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("the first run wrote no model: %v", err)
	}
	model, err := fmeter.ReadModel(bytes.NewReader(written))
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runDaemon(args("dbench", "5"), &out, &errBuf); err != nil {
		t.Fatalf("%v\nstderr:\n%s", err, errBuf.String())
	}
	if kept, err := os.ReadFile(path); err != nil || !bytes.Equal(kept, written) {
		t.Fatalf("the reopening run changed %s (err %v)", modelFile, err)
	}
	added := readDocs(t, &out) // the second run's 2 warmup and 3 streamed intervals
	db, err := fmeter.OpenDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rows := db.All()
	if len(added) != 5 || len(rows) != 6+len(added) {
		t.Fatalf("after reopening the DB holds %d rows, want 6 + 2 warmup + 3 streamed (logged %d)", len(rows), len(added))
	}
	for i, doc := range added {
		want, err := model.Transform(doc)
		if err != nil {
			t.Fatal(err)
		}
		want.W.Normalize()
		got := rows[6+i].W
		if !slices.Equal(got.Support(), want.W.Support()) || !slices.Equal(got.Values(), want.W.Values()) {
			t.Fatalf("row %d (%s) of the second run was not embedded with the stored model", i, doc.ID)
		}
	}
}

// TestFreshDir pins which -db directories start a new DB: a missing
// one, an empty one and one holding only a model and .tmp-* leftovers.
func TestFreshDir(t *testing.T) {
	dir := t.TempDir()
	if !fresh(filepath.Join(dir, "missing")) || !fresh(dir) {
		t.Fatal("a missing or empty directory is not fresh")
	}
	if err := os.WriteFile(filepath.Join(dir, modelFile), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !fresh(dir) {
		t.Fatal("a directory holding only a model is not fresh")
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-seg-1"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if !fresh(dir) {
		t.Fatal("a directory holding only a model and a .tmp-* leftover is not fresh")
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if fresh(dir) {
		t.Fatal("a directory holding a snapshot is fresh")
	}
}

// TestDaemonKilledWriteRestarts: a -db directory holding a model and
// the .tmp-* leftovers of a model write and a first save killed before
// their renames starts a new DB, and its first save sweeps the
// leftovers. Segment files without a manifest still fail, typed: a
// killed first save cannot be told from a lost manifest.
func TestDaemonKilledWriteRestarts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	args := []string{"-workload", "scp", "-intervals", "4", "-interval", "5s",
		"-db", dir, "-warmup", "2", "-status-every", "0"}
	var out, errBuf bytes.Buffer
	if err := runDaemon(args, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	for name := range segFiles(t, dir) {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(dir, "MANIFEST.json")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{".tmp-model-x", ".tmp-seg-y"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	errBuf.Reset()
	if err := runDaemon(args, &out, &errBuf); err != nil {
		t.Fatalf("restart over a killed write: %v\nstderr:\n%s", err, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "(0 loaded + 2 warmup + 2 streamed") {
		t.Errorf("the restart did not start a new DB:\n%s", errBuf.String())
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(left) != 0 {
		t.Errorf("the first save left %v", left)
	}
	if n := openLen(t, dir); n != 4 {
		t.Fatalf("db.Len() = %d, want 4", n)
	}

	if err := os.Remove(filepath.Join(dir, "MANIFEST.json")); err != nil {
		t.Fatal(err)
	}
	var se *fmeter.SnapshotError
	if err := runDaemon(args, &out, &errBuf); !errors.As(err, &se) {
		t.Fatalf("segment files without a manifest: err = %v, want a *SnapshotError", err)
	}
}

// segFiles reads the segment files of the snapshot at dir, by name.
func segFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.fms"))
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(names))
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(name)] = b
	}
	return files
}

// afterDocs is a log writer that calls fn once, when the n-th document
// (line) is written to it.
type afterDocs struct {
	bytes.Buffer
	n  int
	fn func()
}

func (w *afterDocs) Write(p []byte) (int, error) {
	before := w.n
	if w.n -= bytes.Count(p, []byte("\n")); before > 0 && w.n <= 0 {
		w.fn()
	}
	return w.Buffer.Write(p)
}

// TestDaemonSignalDrain cancels run's context in the middle of the
// stream (what SIGINT/SIGTERM do): collection stops after the current
// chunk, run returns nil, and the drained snapshot holds every interval
// that reached the DB — exactly the logged ones. Cancelled during the
// warmup, no DB exists yet and none is written.
func TestDaemonSignalDrain(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	log := &afterDocs{n: 7, fn: cancel}
	var errBuf bytes.Buffer
	err := run(ctx, []string{
		"-workload", "scp", "-intervals", "200", "-interval", "5s",
		"-db", dir, "-warmup", "3", "-ingest-batch", "2", "-status-every", "0",
	}, log, &errBuf)
	if err != nil {
		t.Fatalf("interrupted run: %v\nstderr:\n%s", err, errBuf.String())
	}
	logged := len(readDocs(t, &log.Buffer))
	if logged < 7 || logged >= 200 {
		t.Fatalf("logged %d docs, want the stream cut short after 7", logged)
	}
	if n := openLen(t, dir); n != logged {
		t.Fatalf("drained snapshot holds %d signatures, log holds %d", n, logged)
	}
	if !strings.Contains(errBuf.String(), "signalled after") {
		t.Errorf("stderr does not report the interruption:\n%s", errBuf.String())
	}

	warmDir := filepath.Join(t.TempDir(), "warm")
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	if err := run(ctx2, []string{"-workload", "scp", "-intervals", "20", "-db", warmDir, "-warmup", "5"},
		&afterDocs{n: 2, fn: cancel2}, io.Discard); err != nil {
		t.Fatalf("run interrupted in warmup: %v", err)
	}
	if _, err := os.Stat(warmDir); !os.IsNotExist(err) {
		t.Errorf("run interrupted in warmup wrote %s (stat err %v)", warmDir, err)
	}
}

// syncBuffer is a bytes.Buffer safe to read while run writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestDaemonServesUntilSignalled: with -serve the daemon keeps answering
// after its last interval and drains only when signalled.
func TestDaemonServesUntilSignalled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamed := make(chan struct{})
	var errBuf syncBuffer
	res := make(chan error, 1)
	go func() {
		res <- run(ctx, []string{"-workload", "scp", "-intervals", "4", "-warmup", "2",
			"-serve", "127.0.0.1:0", "-status-every", "0"}, &afterDocs{n: 4, fn: func() { close(streamed) }}, &errBuf)
	}()
	select {
	case <-streamed:
	case err := <-res:
		t.Fatalf("run returned before its last interval: %v\nstderr:\n%s", err, errBuf.String())
	}
	m := regexp.MustCompile(`serving (127\.0\.0\.1:\d+)`).FindStringSubmatch(errBuf.String())
	if m == nil {
		t.Fatalf("no listener address on stderr:\n%s", errBuf.String())
	}
	resp, err := http.Get("http://" + m[1] + "/healthz")
	if err != nil {
		t.Fatalf("healthz after the last interval: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	select {
	case err := <-res:
		t.Fatalf("run returned before a signal: %v", err)
	default:
	}
	cancel()
	if err := <-res; err != nil {
		t.Fatalf("drain after signal: %v\nstderr:\n%s", err, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "db (in memory): 4 signatures") {
		t.Errorf("summary missing:\n%s", errBuf.String())
	}
}

func TestWorkloadByNameCoversAll(t *testing.T) {
	for _, name := range []string{"scp", "kcompile", "dbench", "apachebench", "netperf", "boot"} {
		if _, err := workloadByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := workloadByName("x"); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestDriverByName(t *testing.T) {
	for name, want := range map[string]fmeter.DriverVariant{
		"1.5.1": fmeter.Driver151, "1.4.3": fmeter.Driver143, "1.5.1-nolro": fmeter.Driver151NoLRO,
	} {
		got, err := driverByName(name)
		if err != nil || got != want {
			t.Errorf("driverByName(%s) = %v, %v", name, got, err)
		}
	}
}
