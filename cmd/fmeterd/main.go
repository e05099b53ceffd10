// Command fmeterd is the long-running logging-daemon simulation: it
// collects signatures continuously over many intervals (the deployment
// mode §1 argues for — "signature generation can be turned on at
// production time for long continuous periods of time"), streaming each
// interval document to the log as soon as it is collected and printing a
// status line periodically.
//
// Usage:
//
//	fmeterd -workload dbench -intervals 360 -interval 10s -log run.jsonl
//
// With -db the daemon additionally maintains a live signature database:
// the first -warmup intervals fit the tf-idf model, then every further
// interval is embedded and ingested into the DB while it stays fully
// queryable (the epoch-view concurrency contract), with periodic
// crash-safe snapshots to the -db directory:
//
//	fmeterd -workload dbench -intervals 360 -db /var/lib/fmeter/db -warmup 20 -save-every 60
//
// With -serve the live DB is additionally fronted by the HTTP/JSON
// serving layer (internal/serve) for the duration of the stream, and
// -ingest-batch N streams intervals in chunks of N so each chunk lands
// with a single RCU publish:
//
//	fmeterd -workload dbench -intervals 360 -db /var/lib/fmeter/db -serve :8080 -ingest-batch 8
//
// Transient debugfs read failures are retried with jittered backoff
// (-read-retries/-read-backoff) and an interval that stays unreadable is
// skipped with a counted warning instead of killing the daemon.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	fmeter "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fmeterd:", err)
		os.Exit(1)
	}
}

//fmeter:nondeterministic-ok daemon loop: interval timestamps and collection pacing are wall-clock by design
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fmeterd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "dbench", "workload to monitor: scp|kcompile|dbench|apachebench|netperf")
		driverName   = fs.String("driver", "", "myri10ge variant when monitoring netperf")
		intervals    = fs.Int("intervals", 360, "number of monitoring intervals before exiting")
		interval     = fs.Duration("interval", 10*time.Second, "collection interval (virtual time)")
		seed         = fs.Int64("seed", 1, "random seed")
		logPath      = fs.String("log", "-", "JSONL signature log, - for stdout")
		statusEvery  = fs.Int("status-every", 30, "print a status line every N intervals (0 disables)")
		dbDir        = fs.String("db", "", "maintain a live signature DB in this snapshot directory (ingests every post-warmup interval)")
		warmup       = fs.Int("warmup", 20, "with -db: intervals collected to fit the tf-idf model before live ingestion")
		saveEvery    = fs.Int("save-every", 60, "with -db: snapshot the DB every N ingested intervals (0 = only at exit)")
		readRetries  = fs.Int("read-retries", 3, "retries per failed debugfs counter read before skipping the interval")
		readBackoff  = fs.Duration("read-backoff", 10*time.Millisecond, "base backoff before a counter-read retry (jittered, doubles per attempt)")
		serveAddr    = fs.String("serve", "", "with -db: serve the live DB over HTTP/JSON on this address while streaming")
		ingestBatch  = fs.Int("ingest-batch", 1, "with -db: stream intervals in chunks of N, publishing each chunk with one AddAll")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *intervals < 1 {
		return fmt.Errorf("-intervals must be >= 1")
	}
	if *dbDir != "" && (*warmup < 2 || *warmup >= *intervals) {
		return fmt.Errorf("-warmup must be in [2, intervals) when -db is set, have %d of %d", *warmup, *intervals)
	}
	if *serveAddr != "" && *dbDir == "" {
		return fmt.Errorf("-serve requires -db (the server fronts the live DB)")
	}
	if *ingestBatch < 1 {
		return fmt.Errorf("-ingest-batch must be >= 1, have %d", *ingestBatch)
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
	if *workloadName == "netperf" {
		v := fmeter.Driver151
		switch *driverName {
		case "", "1.5.1":
		case "1.4.3":
			v = fmeter.Driver143
		case "1.5.1-nolro":
			v = fmeter.Driver151NoLRO
		default:
			return fmt.Errorf("unknown driver %q", *driverName)
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

	sys.SetRetryPolicy(fmeter.RetryPolicy{Retries: *readRetries, Backoff: *readBackoff, Jitter: 0.5})
	sys.SetCollectorWarnf(func(format string, a ...any) {
		fmt.Fprintf(stderr, "[fmeterd] "+format+"\n", a...)
	})

	start := time.Now()
	var totalCalls uint64
	status := func(i int) {
		if *statusEvery > 0 && (i+1)%*statusEvery == 0 {
			fmt.Fprintf(stderr, "[fmeterd] %d/%d intervals, %d calls counted, wall %v\n",
				i+1, *intervals, totalCalls, time.Since(start).Round(time.Millisecond))
		}
	}

	// Collect one interval at a time so each document hits the log as
	// soon as it exists — the daemon's whole point is continuous,
	// crash-surviving logging (§1: post-mortem analysis).
	warm := *intervals
	if *dbDir != "" {
		warm = *warmup
	}
	var warmDocs []*fmeter.Document
	for i := 0; i < warm; i++ {
		docs, err := sys.Collect(spec, 1, *interval, out)
		if err != nil {
			return fmt.Errorf("interval %d: %w", i, err)
		}
		if len(docs) == 1 { // an unreadable interval is skipped, not fatal
			totalCalls += docs[0].Total()
			if *dbDir != "" {
				warmDocs = append(warmDocs, docs[0])
			}
		}
		status(i)
	}

	if *dbDir != "" {
		// Fit the vector space on the warmup corpus, seed the live DB with
		// it, then stream every further interval into the DB while it
		// remains queryable (and periodically snapshot it crash-safely).
		sigs, model, err := fmeter.BuildSignatures(warmDocs, sys.Dim())
		if err != nil {
			return fmt.Errorf("fitting warmup model: %w", err)
		}
		db, err := fmeter.NewDB(sys.Dim(), fmeter.WithShards(2))
		if err != nil {
			return err
		}
		defer db.Close()
		if err := db.AddAll(sigs); err != nil {
			return err
		}

		// With -serve, front the live DB with the HTTP serving layer
		// while the stream below keeps ingesting into it — queries ride
		// epoch-pinned views, so serving and ingestion never block each
		// other. The server owns the graceful drain (the deferred Close
		// above then finds an already-closed DB, which is harmless).
		var srv *fmeter.Server
		var httpSrv *http.Server
		var serveDone chan error
		if *serveAddr != "" {
			srv, err = fmeter.NewServer(db, model, fmeter.ServeConfig{
				SnapshotDir: *dbDir,
				Warnf: func(format string, a ...any) {
					fmt.Fprintf(stderr, "[fmeterd] "+format+"\n", a...)
				},
			})
			if err != nil {
				return err
			}
			ln, lerr := net.Listen("tcp", *serveAddr)
			if lerr != nil {
				return lerr
			}
			httpSrv = srv.HTTPServer()
			serveDone = make(chan error, 1)
			go func() { serveDone <- httpSrv.Serve(ln) }()
			fmt.Fprintf(stderr, "[fmeterd] serving live DB on %s\n", ln.Addr())
		}

		sys.SetIngestBatch(*ingestBatch)
		ingested := 0
		for i := warm; i < *intervals; {
			chunk := *ingestBatch
			if rem := *intervals - i; chunk > rem {
				chunk = rem
			}
			added, err := sys.CollectStream(spec, chunk, *interval, model, db, out)
			if err != nil {
				return fmt.Errorf("interval %d: %w", i, err)
			}
			ingested += added
			if *saveEvery > 0 && ingested > 0 && ingested/(*saveEvery) > (ingested-added)/(*saveEvery) {
				if err := fmeter.SaveDB(*dbDir, db); err != nil {
					return fmt.Errorf("snapshotting db: %w", err)
				}
			}
			i += chunk
			status(i - 1)
		}
		dbLen := db.Len()
		if srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := httpSrv.Shutdown(ctx); err != nil {
				fmt.Fprintf(stderr, "[fmeterd] http shutdown: %v\n", err)
			}
			<-serveDone
			m := srv.Metrics()
			fmt.Fprintf(stderr, "[fmeterd] served %d queries in %d requests (%d rejected)\n",
				m.Queries, m.Batches, m.Rejected)
			if err := srv.Shutdown(ctx); err != nil {
				cancel()
				return fmt.Errorf("server shutdown: %w", err)
			}
			cancel()
		} else if err := fmeter.SaveDB(*dbDir, db); err != nil {
			return fmt.Errorf("snapshotting db: %w", err)
		}
		fmt.Fprintf(stderr, "[fmeterd] db %s: %d signatures (%d warmup + %d streamed)\n",
			*dbDir, dbLen, len(sigs), ingested)
	}

	st := sys.CollectorStats()
	fmt.Fprintf(stderr, "[fmeterd] done: %d intervals of %v (%s), %d kernel function calls, %d read retries, %d intervals skipped\n",
		*intervals, *interval, spec.Name, totalCalls, st.Retries, st.SkippedIntervals)
	return nil
}
