// Command fmeter-serve runs the fmeter signature database as a network
// service: it boots a simulated kernel, collects a warmup corpus to fit
// the tf-idf model, seeds a live DB, and serves HTTP/JSON queries over
// it — POST /v1/topk, /v1/classify, /v1/ingest plus GET /healthz and
// /metrics — each query request one DB.Query call on its own goroutine,
// under its own context, behind one admission gate (429 + Retry-After past
// -max-queue), connection read and idle timeouts, and graceful drain on
// SIGINT/SIGTERM.
//
// Usage:
//
//	fmeter-serve -addr :8080 -workload dbench -warmup 20
//	fmeter-serve -addr :8080 -db /var/lib/fmeter/db       # serve + snapshot
//	fmeter-serve -smoke                                   # self-test and exit
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	fmeter "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fmeter-serve:", err)
		os.Exit(1)
	}
}

//fmeter:nondeterministic-ok serving daemon: listener lifecycle, shutdown deadlines, and self-test pacing are wall-clock by design
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("fmeter-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workloadName = fs.String("workload", "dbench", "warmup workload: scp|kcompile|dbench|apachebench|netperf")
		warmup       = fs.Int("warmup", 20, "warmup intervals collected to fit the model and seed the DB")
		interval     = fs.Duration("interval", 10*time.Second, "warmup collection interval (virtual time)")
		seed         = fs.Int64("seed", 1, "random seed")
		shards       = fs.Int("shards", 2, "shard count of a newly created DB; an existing -db directory keeps the count it was saved with")
		segmentSize  = fs.Int("segment-size", 0, "DB segment size (0 = default)")
		maxQueue     = fs.Int("max-queue", 1024, "query requests admitted at once, running + waiting; one more answers 429 + Retry-After")
		dbDir        = fs.String("db", "", "snapshot directory: load the DB from it when present, periodically save into it")
		snapEvery    = fs.Duration("snapshot-every", 2*time.Second, "with -db: poll the seal watermark this often for incremental saves")
		smoke        = fs.Bool("smoke", false, "self-test: serve on a loopback port, run one query/ingest/metrics round-trip, shut down")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *warmup < 2 {
		return fmt.Errorf("-warmup must be >= 2, have %d", *warmup)
	}

	var spec fmeter.WorkloadSpec
	switch *workloadName {
	case "scp":
		spec = fmeter.ScpWorkload()
	case "kcompile":
		spec = fmeter.KcompileWorkload()
	case "dbench":
		spec = fmeter.DbenchWorkload()
	case "apachebench":
		spec = fmeter.ApachebenchWorkload()
	case "netperf":
		spec = fmeter.NetperfWorkload()
	default:
		return fmt.Errorf("unknown workload %q", *workloadName)
	}

	sys, err := fmeter.New(fmeter.Config{Seed: *seed})
	if err != nil {
		return err
	}

	// Warmup: fit the vector space and seed the store.
	warmDocs, err := sys.Collect(spec, *warmup, *interval, nil)
	if err != nil {
		return fmt.Errorf("warmup collection: %w", err)
	}
	sigs, model, err := fmeter.BuildSignatures(warmDocs, sys.Dim())
	if err != nil {
		return fmt.Errorf("fitting warmup model: %w", err)
	}

	opts := []fmeter.Option{fmeter.WithShards(*shards)}
	if *segmentSize > 0 {
		opts = append(opts, fmeter.WithSegmentSize(*segmentSize))
	}
	var db *fmeter.DB
	if *dbDir != "" {
		if _, statErr := os.Stat(*dbDir); statErr == nil {
			db, err = fmeter.OpenDB(*dbDir, opts...)
			if err != nil {
				return fmt.Errorf("opening db %s: %w", *dbDir, err)
			}
			if db.Dim() != sys.Dim() {
				db.Close()
				return fmt.Errorf("db %s has dimension %d, system has %d", *dbDir, db.Dim(), sys.Dim())
			}
			fmt.Fprintf(stderr, "[fmeter-serve] loaded %d signatures from %s (%d shards, as saved; -shards applies to a new DB only)\n", db.Len(), *dbDir, db.Shards())
		}
	}
	if db == nil {
		db, err = fmeter.NewDB(sys.Dim(), opts...)
		if err != nil {
			return err
		}
		if err := db.AddAll(sigs); err != nil {
			db.Close()
			return err
		}
	}

	srv, err := fmeter.NewServer(db, model, fmeter.ServeConfig{
		MaxQueue:      *maxQueue,
		SnapshotDir:   *dbDir,
		SnapshotEvery: *snapEvery,
		Warnf: func(format string, a ...any) {
			fmt.Fprintf(stderr, "[fmeter-serve] "+format+"\n", a...)
		},
	})
	if err != nil {
		db.Close()
		return err
	}

	listenAddr := *addr
	if *smoke {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		shutdownServer(srv, stderr)
		return err
	}
	httpSrv := srv.HTTPServer()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stderr, "[fmeter-serve] serving %s (dim %d, %d signatures, max-queue %d)\n",
		ln.Addr(), sys.Dim(), db.Len(), *maxQueue)

	if *smoke {
		if err := smokeTest(ln.Addr().String(), sigs[0], warmDocs[0]); err != nil {
			httpSrv.Close()
			shutdownServer(srv, stderr)
			return fmt.Errorf("smoke test: %w", err)
		}
		fmt.Fprintln(stderr, "[fmeter-serve] smoke OK")
		return drain(httpSrv, srv, serveErr, stderr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(stderr, "[fmeter-serve] %v: draining\n", s)
	case err := <-serveErr:
		shutdownServer(srv, stderr)
		return fmt.Errorf("http server: %w", err)
	}
	return drain(httpSrv, srv, serveErr, stderr)
}

// drain stops the listener (letting in-flight HTTP requests finish),
// then waits out any admitted query, snapshots and closes the DB.
//
//fmeter:nondeterministic-ok serving daemon: shutdown deadlines are wall-clock by design
func drain(httpSrv *http.Server, srv *fmeter.Server, serveErr chan error, stderr io.Writer) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "[fmeter-serve] http shutdown: %v\n", err)
	}
	<-serveErr // always http.ErrServerClosed after Shutdown
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	m := srv.Metrics()
	fmt.Fprintf(stderr, "[fmeter-serve] done: %d queries in %d requests (mean %.2f), %d rejected, %d docs ingested\n",
		m.Queries, m.Batches, m.MeanBatchSize, m.Rejected, m.DocsIngested)
	return nil
}

//fmeter:nondeterministic-ok serving daemon: shutdown deadlines are wall-clock by design
func shutdownServer(srv *fmeter.Server, stderr io.Writer) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "[fmeter-serve] shutdown: %v\n", err)
	}
}

// smokeTest drives one round trip through every endpoint against the
// live listener: healthz, a topk query built from a warmup signature, a
// classify, an ingest of a warmup document, and a metrics scrape that
// must reflect all of it.
func smokeTest(addr string, sig fmeter.Signature, doc *fmeter.Document) error {
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
