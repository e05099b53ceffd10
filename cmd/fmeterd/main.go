// Command fmeterd is the fmeter daemon. It collects signatures over
// many intervals — the deployment §1 argues for: "signature generation
// can be turned on at production time for long continuous periods of
// time" — appending each interval document to the -log as soon as it
// exists, and optionally keeps a live signature DB, snapshots it and
// serves it over HTTP/JSON, all in this one process.
//
// Usage:
//
//	fmeterd -workload dbench -intervals 360 -interval 10s -log run.jsonl   # collect only
//	fmeterd -workload dbench -intervals 360 -db /var/lib/fmeter/db -warmup 20
//	fmeterd -workload dbench -db /var/lib/fmeter/db -serve :8080 -ingest-batch 8
//	fmeterd -smoke -warmup 6 -intervals 12 -interval 2s                    # self-test
//
// With -db DIR, -serve ADDR or -smoke the first -warmup intervals fit the
// tf-idf model and every later one is embedded into the live DB (in
// chunks of -ingest-batch, one publish each) while it stays queryable.
// -db starts a new DB when DIR is missing or holds nothing but
// model.json and .tmp-* leftovers, and opens DIR's snapshot otherwise;
// either way the warmup signatures are added to it first. The model
// lives beside the snapshot as DIR/model.json: a new DB writes the one
// it fitted there, and a reopened DB embeds the warmup and every new
// interval with the stored one (a snapshot saved without one fits it on
// the warmup and writes it). One fmeter.Server owns the
// DB: it saves into DIR whenever the sealed-segment watermark advances
// and once more when it drains. -serve adds a listener (POST /v1/topk,
// /v1/classify, /v1/ingest; GET /healthz, /metrics; 429 + Retry-After
// past -max-queue admitted requests) and keeps serving after the last
// interval until signalled. -smoke serves on a loopback port, runs one
// round trip through every endpoint after the stream, drains and exits.
//
// SIGINT or SIGTERM stops collection after the current chunk; then the
// listener closes, admitted requests finish, the server takes its final
// snapshot and the DB closes. A debugfs read that keeps failing after
// -read-retries jittered retries skips its interval with a warning.
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	fmeter "repro"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fmeterd:", err)
		os.Exit(1)
	}
}

// workloads and drivers are the CLI's name tables.
var (
	workloads = map[string]func() fmeter.WorkloadSpec{
		"scp": fmeter.ScpWorkload, "kcompile": fmeter.KcompileWorkload, "dbench": fmeter.DbenchWorkload,
		"apachebench": fmeter.ApachebenchWorkload, "netperf": fmeter.NetperfWorkload, "boot": fmeter.BootWorkload,
	}
	drivers = map[string]fmeter.DriverVariant{
		"1.5.1": fmeter.Driver151, "1.4.3": fmeter.Driver143, "1.5.1-nolro": fmeter.Driver151NoLRO,
	}
)

func workloadByName(name string) (fmeter.WorkloadSpec, error) {
	if w, ok := workloads[name]; ok {
		return w(), nil
	}
	return fmeter.WorkloadSpec{}, fmt.Errorf("unknown workload %q (scp|kcompile|dbench|apachebench|netperf|boot)", name)
}

func driverByName(name string) (fmeter.DriverVariant, error) {
	if v, ok := drivers[name]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("unknown driver %q (1.5.1|1.4.3|1.5.1-nolro)", name)
}

//fmeter:nondeterministic-ok daemon loop: the status line reports wall-clock time by design
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("fmeterd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "dbench", "workload to monitor: scp|kcompile|dbench|apachebench|netperf|boot")
		driverName   = fs.String("driver", "", "myri10ge variant to load: 1.5.1|1.4.3|1.5.1-nolro (netperf loads 1.5.1 when unset)")
		intervals    = fs.Int("intervals", 360, "number of monitoring intervals to collect")
		interval     = fs.Duration("interval", 10*time.Second, "collection interval (virtual time; the paper uses 2-10s)")
		seed         = fs.Int64("seed", 1, "random seed (runs are reproducible)")
		logPath      = fs.String("log", "-", "JSONL signature log to append to, - for stdout")
		statusEvery  = fs.Int("status-every", 30, "print a status line every N intervals (0 disables)")
		dbDir        = fs.String("db", "", "snapshot directory of the live DB and its model.json: created when missing or empty, opened otherwise, saved into as segments seal and at drain")
		warmup       = fs.Int("warmup", 20, "with a live DB: intervals collected to fit the tf-idf model before live ingestion")
		readRetries  = fs.Int("read-retries", 3, "retries per failed debugfs counter read before skipping the interval")
		readBackoff  = fs.Duration("read-backoff", 10*time.Millisecond, "base backoff before a counter-read retry (jittered, doubles per attempt)")
		serveAddr    = fs.String("serve", "", "serve the live DB over HTTP/JSON on this address until signalled")
		ingestBatch  = fs.Int("ingest-batch", 1, "with a live DB: stream intervals in chunks of N, publishing each chunk with one AddAll")
		maxQueue     = fs.Int("max-queue", 1024, "query requests admitted at once, running + waiting; one more answers 429 + Retry-After")
		smoke        = fs.Bool("smoke", false, "self-test: serve on a loopback port, run one query/ingest/metrics round trip after the stream, drain and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	live := *dbDir != "" || *serveAddr != "" || *smoke
	if *intervals < 1 {
		return fmt.Errorf("-intervals must be >= 1")
	}
	if live && (*warmup < 2 || *warmup >= *intervals) {
		return fmt.Errorf("-warmup must be in [2, intervals) with a live DB, have %d of %d", *warmup, *intervals)
	}
	if *ingestBatch < 1 {
		return fmt.Errorf("-ingest-batch must be >= 1, have %d", *ingestBatch)
	}
	spec, err := workloadByName(*workloadName)
	if err != nil {
		return err
	}

	sys, err := fmeter.New(fmeter.Config{Seed: *seed})
	if err != nil {
		return err
	}
	if *driverName != "" || *workloadName == "netperf" {
		v, err := driverByName(cmp.Or(*driverName, "1.5.1")) // netperf needs a NIC driver: the paper's baseline by default
		if err != nil {
			return err
		}
		if err := sys.LoadDriver(v); err != nil {
			return err
		}
	}

	out := stdout
	if *logPath != "-" {
		f, err := os.OpenFile(*logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		out = f
	}

	warnf := func(format string, a ...any) {
		fmt.Fprintf(stderr, "[fmeterd] "+format+"\n", a...)
	}
	sys.SetRetryPolicy(fmeter.RetryPolicy{Retries: *readRetries, Backoff: *readBackoff, Jitter: 0.5})
	sys.SetCollectorWarnf(warnf)

	start := time.Now()
	var totalCalls uint64
	done := 0 // intervals collected (or skipped as unreadable)
	status := func(prev int) {
		if *statusEvery > 0 && done/(*statusEvery) > prev/(*statusEvery) {
			warnf("%d/%d intervals, %d calls counted, wall %v",
				done, *intervals, totalCalls, time.Since(start).Round(time.Millisecond))
		}
	}
	summary := func() {
		if ctx.Err() != nil {
			warnf("signalled after %d of %d intervals", done, *intervals)
		}
		st := sys.CollectorStats()
		warnf("done: %d intervals of %v (%s), %d kernel function calls, %d read retries, %d intervals skipped",
			done, *interval, spec.Name, totalCalls, st.Retries, st.SkippedIntervals)
	}

	// Collect one interval at a time so each document hits the log as
	// soon as it exists — the daemon's whole point is continuous,
	// crash-surviving logging (§1: post-mortem analysis).
	warm := *intervals
	if live {
		warm = *warmup
	}
	var warmDocs []*fmeter.Document
	for done < warm && ctx.Err() == nil {
		docs, err := sys.Collect(spec, 1, *interval, out)
		if err != nil {
			return fmt.Errorf("interval %d: %w", done, err)
		}
		if len(docs) == 1 { // an unreadable interval is skipped, not fatal
			totalCalls += docs[0].Total()
			warmDocs = append(warmDocs, docs[0])
		}
		done++
		status(done - 1)
	}
	if !live || ctx.Err() != nil {
		summary()
		return nil
	}

	// Open or create the live DB with its model, hand it to the server,
	// then stream every further interval into the DB while it stays
	// queryable.
	addr := *serveAddr
	if *smoke {
		addr = "127.0.0.1:0"
	}
	d, err := openLive(*dbDir, addr, sys.Dim(), warmDocs, fmeter.ServeConfig{
		MaxQueue:    *maxQueue,
		SnapshotDir: *dbDir,
		Warnf:       warnf,
	}, warnf)
	if err != nil {
		return err
	}

	sys.SetIngestBatch(*ingestBatch)
	streamed := 0
	for done < *intervals && ctx.Err() == nil && err == nil {
		chunk := min(*ingestBatch, *intervals-done)
		var added int
		added, err = sys.CollectStream(spec, chunk, *interval, d.model, d.db, out)
		streamed += added
		if err != nil {
			err = fmt.Errorf("interval %d: %w", done, err)
		}
		done += chunk
		status(done - chunk)
	}
	switch {
	case err != nil, ctx.Err() != nil: // drain at once
	case *smoke:
		if err = smokeTest(d.addr, d.model, warmDocs[0]); err != nil {
			err = fmt.Errorf("smoke test: %w", err)
		} else {
			warnf("smoke OK")
		}
	case addr != "":
		select {
		case <-ctx.Done():
		case <-d.served:
			err = fmt.Errorf("http server: %w", d.serveErr)
		}
	}
	m, derr := d.drain()
	if err == nil {
		err = derr
	}
	warnf("db %s: %d signatures (%d loaded + %d warmup + %d streamed + %d over HTTP), %d snapshots",
		cmp.Or(*dbDir, "(in memory)"), m.DBSignatures, d.loaded, d.warmup, streamed, m.DocsIngested, m.Snapshots)
	if addr != "" {
		warnf("served %d queries in %d requests (mean %.2f), %d rejected",
			m.Queries, m.Batches, m.MeanBatchSize, m.Rejected)
	}
	summary()
	return err
}

// liveDB is the daemon's store side: the DB, the model its rows are
// embedded with, the one fmeter.Server that owns it (the only snapshot
// policy and the only drain) and, when serving, its HTTP listener.
type liveDB struct {
	db       *fmeter.DB
	model    *fmeter.Model
	srv      *fmeter.Server
	loaded   int // signatures the reopened snapshot held
	warmup   int // warmup signatures added before streaming
	http     *http.Server
	addr     string
	served   chan struct{} // closed once Serve has returned serveErr
	serveErr error
}

// openLive opens dir's snapshot and its model unless dir is unset or
// fresh, when it starts a new DB instead; fits the model on the warmup
// when it has none and writes it into dir; adds the warmup, embedded
// with that model, to the DB; starts listening on addr when it is set,
// and hands the DB to one fmeter.Server.
func openLive(dir, addr string, dim int, warmDocs []*fmeter.Document, cfg fmeter.ServeConfig, warnf func(string, ...any)) (_ *liveDB, err error) {
	d := &liveDB{}
	defer func() {
		if err != nil && d.db != nil {
			d.db.Close()
		}
	}()
	if dir != "" && !fresh(dir) {
		if d.db, err = fmeter.OpenDB(dir); err != nil {
			return nil, fmt.Errorf("opening db %s: %w", dir, err)
		}
		if d.db.Dim() != dim {
			return nil, fmt.Errorf("db %s has dimension %d, system has %d", dir, d.db.Dim(), dim)
		}
		if d.model, err = readModel(dir, dim); err != nil {
			return nil, err
		}
	} else if d.db, err = fmeter.NewDB(dim); err != nil {
		return nil, err
	}
	d.loaded = d.db.Len()
	if d.model == nil {
		if _, d.model, err = fmeter.BuildSignatures(warmDocs, dim); err != nil {
			return nil, fmt.Errorf("fitting warmup model: %w", err)
		}
		if dir != "" {
			if err := writeModel(dir, d.model); err != nil {
				return nil, fmt.Errorf("writing the model into %s: %w", dir, err)
			}
		}
	}
	sigs, err := d.model.TransformAll(warmDocs)
	if err != nil {
		return nil, fmt.Errorf("embedding the warmup: %w", err)
	}
	for _, s := range sigs {
		s.W.Normalize()
	}
	if err := d.db.AddAll(sigs); err != nil {
		return nil, err
	}
	d.warmup = len(sigs)
	var ln net.Listener
	if addr != "" {
		if ln, err = net.Listen("tcp", addr); err != nil {
			return nil, err
		}
	}
	if d.srv, err = fmeter.NewServer(d.db, d.model, cfg); err != nil {
		if ln != nil {
			ln.Close()
		}
		return nil, err
	}
	if ln != nil {
		d.http = d.srv.HTTPServer()
		d.addr = ln.Addr().String()
		d.served = make(chan struct{})
		go func() { d.serveErr = d.http.Serve(ln); close(d.served) }()
		warnf("serving %s (dim %d, %d signatures, max-queue %d)", d.addr, dim, d.db.Len(), cfg.MaxQueue)
	}
	return d, nil
}

// modelFile is the name of the model beside a -db snapshot.
const modelFile = "model.json"

// fresh reports whether dir holds no snapshot to open: it is missing,
// or holds nothing but a model (a run that stopped before its first
// save) and .tmp-* files (a model or first save killed before its
// rename, which never hold a snapshot; the first save sweeps them).
// Anything else, a directory that cannot be read included, is OpenDB's
// to open or to refuse with a typed error.
func fresh(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return errors.Is(err, os.ErrNotExist)
	}
	for _, e := range ents {
		if e.Name() != modelFile && !strings.HasPrefix(e.Name(), ".tmp-") {
			return false
		}
	}
	return true
}

// readModel reads dir's model, or returns nil when dir has none.
func readModel(dir string, dim int) (*fmeter.Model, error) {
	path := filepath.Join(dir, modelFile)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := fmeter.ReadModel(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if m.Dim() != dim {
		return nil, fmt.Errorf("%s has dimension %d, system has %d", path, m.Dim(), dim)
	}
	return m, nil
}

// writeModel writes m into dir (created if missing) as its model, via a
// temporary file, fsync and rename, so a reader finds the whole model or
// none.
func writeModel(dir string, m *fmeter.Model) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".tmp-model-*")
	if err != nil {
		return err
	}
	err = fmeter.WriteModel(f, m)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, modelFile))
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// drain stops the listener (letting in-flight HTTP requests finish),
// then lets the server wait out every admitted query, take its final
// snapshot and close the DB. It fails when the final snapshot did.
func (d *liveDB) drain() (fmeter.ServeMetrics, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var err error
	if d.http != nil {
		err = d.http.Shutdown(ctx)
		<-d.served // Serve returns as soon as Shutdown closes the listener
	}
	failed := d.srv.Metrics().SnapshotErrors
	err = errors.Join(err, d.srv.Shutdown(ctx))
	m := d.srv.Metrics()
	if m.SnapshotErrors > failed {
		err = errors.Join(err, errors.New("final snapshot failed"))
	}
	return m, err
}

// smokeTest drives one round trip through every endpoint against the
// live listener: healthz, a topk query of a warmup document embedded
// with the DB's model, a classify, an ingest of the same document, and
// a metrics scrape that must reflect all of it.
func smokeTest(addr string, model *fmeter.Model, doc *fmeter.Document) error {
	sig, err := model.Transform(doc)
	if err != nil {
		return err
	}
	sig.W.Normalize()
	base := "http://" + addr
	client := &http.Client{Timeout: 10 * time.Second}

	get := func(path string) (map[string]any, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		var m map[string]any
		return m, json.NewDecoder(resp.Body).Decode(&m)
	}
	post := func(path string, body any, out any) error {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, b)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}

	if _, err := get("/healthz"); err != nil {
		return err
	}

	// Render the signature's sparse vector in the wire's parallel-array
	// form.
	var idx []int32
	var val []float64
	sig.W.ForEach(func(i int, x float64) {
		idx = append(idx, int32(i))
		val = append(val, x)
	})
	query := map[string]any{"queries": []map[string]any{{"idx": idx, "val": val}}, "k": 3}

	var topk struct {
		Results [][]struct {
			DocID string  `json:"doc_id"`
			Score float64 `json:"score"`
		} `json:"results"`
	}
	if err := post("/v1/topk", query, &topk); err != nil {
		return err
	}
	if len(topk.Results) != 1 || len(topk.Results[0]) == 0 {
		return fmt.Errorf("topk returned no hits: %+v", topk)
	}

	var classify struct {
		Labels []string `json:"labels"`
	}
	if err := post("/v1/classify", query, &classify); err != nil {
		return err
	}
	if len(classify.Labels) != 1 || classify.Labels[0] == "" {
		return fmt.Errorf("classify returned no label: %+v", classify)
	}

	var ingest struct {
		Added int `json:"added"`
	}
	if err := post("/v1/ingest", map[string]any{"documents": []*fmeter.Document{doc}}, &ingest); err != nil {
		return err
	}
	if ingest.Added != 1 {
		return fmt.Errorf("ingest added %d, want 1", ingest.Added)
	}

	m, err := get("/metrics")
	if err != nil {
		return err
	}
	for _, key := range []string{"queries", "batches", "latency_p50_us", "docs_ingested"} {
		if _, ok := m[key]; !ok {
			return fmt.Errorf("metrics missing %q: %v", key, m)
		}
	}
	if q, _ := m["queries"].(float64); q < 2 {
		return fmt.Errorf("metrics count %v queries, want >= 2", m["queries"])
	}
	return nil
}
