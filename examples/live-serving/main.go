// Live serving: run the logging daemon and the HTTP query service
// against the SAME signature database at the same time — the always-on
// deployment posture the paper's §1 argues for. A warmup corpus fits
// the tf-idf model, then the collector streams every further interval
// straight into the DB (System.CollectStream, batched so each chunk
// lands with a single RCU publish) while HTTP clients answer
// nearest-neighbour queries against the live store through the HTTP
// server (POST /v1/topk, admission-bounded); the epoch-view
// concurrency contract guarantees each query sees a consistent
// committed state and never blocks the writer. A document is ingested
// over the wire too (POST /v1/ingest), /metrics is scraped, and the
// graceful drain leaves a crash-safe snapshot on disk that reopens.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	fmeter "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sys, err := fmeter.New(fmeter.Config{Seed: 7})
	if err != nil {
		return err
	}
	// Transient debugfs read hiccups retry behind jittered backoff and,
	// if the counters stay unreadable, skip the interval with a counted
	// warning instead of killing the daemon.
	sys.SetRetryPolicy(fmeter.RetryPolicy{Retries: 3, Backoff: 10 * time.Millisecond, Jitter: 0.5})
	sys.SetCollectorWarnf(log.Printf)

	// Warmup: fit the vector space on an initial corpus and seed the DB.
	warm, err := sys.Collect(fmeter.DbenchWorkload(), 12, 10*time.Second, nil)
	if err != nil {
		return err
	}
	sigs, model, err := fmeter.BuildSignatures(warm, sys.Dim())
	if err != nil {
		return err
	}
	db, err := fmeter.NewDB(sys.Dim())
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.AddAll(sigs); err != nil {
		return err
	}

	// Front the live DB with the serving layer on a loopback port. The
	// server owns the graceful drain: its Shutdown waits out the admitted
	// queries, snapshots into SnapshotDir, and closes the DB.
	dir := filepath.Join(os.TempDir(), "fmeter-live-db")
	defer os.RemoveAll(dir)
	srv, err := fmeter.NewServer(db, model, fmeter.ServeConfig{SnapshotDir: dir, Warnf: log.Printf})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := srv.HTTPServer() // srv.Handler() plus read and idle timeouts
	serveDone := make(chan error, 1)
	go func() { serveDone <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("warmup: %d signatures seed the live DB, serving at %s\n", db.Len(), base)

	// Query frontend: two HTTP clients hammer POST /v1/topk for the
	// whole streaming phase. Each request is one db.Query call on
	// its own goroutine, on one epoch view, so it reads a consistent
	// store no matter what the writer or its seals do concurrently.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var answered atomic.Int64
	queryErr := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for qi := 0; ; qi++ {
				select {
				case <-stop:
					return
				default:
				}
				body := topkBody(sigs[(qi+g)%len(sigs)], 3)
				resp, err := client.Post(base+"/v1/topk", "application/json", bytes.NewReader(body))
				if err != nil {
					queryErr <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					queryErr <- fmt.Errorf("topk status %d", resp.StatusCode)
					return
				}
				answered.Add(1)
			}
		}(g)
	}

	// Let the frontend prove itself before the stream competes for the
	// CPU: on a small machine the whole stream can finish before a
	// client goroutine gets scheduled.
	for answered.Load() < 32 {
		time.Sleep(time.Millisecond)
	}

	// The daemon streams live intervals into the DB the queries are
	// reading: collect, embed through the fitted model, publish — in
	// chunks of 4 so each chunk costs one epoch publish, not four.
	sys.SetIngestBatch(4)
	added, err := sys.CollectStream(fmeter.DbenchWorkload(), 8, 10*time.Second, model, db, nil)
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	select {
	case qerr := <-queryErr:
		return fmt.Errorf("concurrent query failed: %w", qerr)
	default:
	}
	fmt.Printf("streamed %d live intervals into the DB (now %d signatures) while answering %d HTTP queries\n",
		added, db.Len(), answered.Load())

	// Ingestion works over the wire too: POST a raw document and the
	// server embeds it through the same model and publishes it.
	buf, err := json.Marshal(map[string]any{"documents": []*fmeter.Document{warm[0]}})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	var ing struct {
		Added int `json:"added"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ing)
	resp.Body.Close()
	if err != nil {
		return err
	}
	fmt.Printf("HTTP ingest published %d document (DB now %d signatures)\n", ing.Added, db.Len())

	// The service meters itself: queries, queries per request, latency
	// quantiles, admitted requests, pruning aggregates.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	var met struct {
		Queries   uint64  `json:"queries"`
		Batches   uint64  `json:"batches"`
		MeanBatch float64 `json:"mean_batch_size"`
		P50       float64 `json:"latency_p50_us"`
	}
	err = json.NewDecoder(resp.Body).Decode(&met)
	resp.Body.Close()
	if err != nil {
		return err
	}
	fmt.Printf("metrics: %d queries in %d requests (mean %.2f), p50 %.0f us\n",
		met.Queries, met.Batches, met.MeanBatch, met.P50)

	// Graceful drain: stop the listener (in-flight HTTP finishes), then
	// let admitted queries finish, snapshot crash-safely, and close the DB.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	<-serveDone
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	reopened, err := fmeter.OpenDB(dir)
	if err != nil {
		return err
	}
	defer reopened.Close()
	fmt.Printf("snapshot at %s reopens with %d signatures\n", dir, reopened.Len())
	return nil
}

// topkBody renders one signature as a /v1/topk request body: the sparse
// vector in the wire's parallel-array form plus k.
func topkBody(sig fmeter.Signature, k int) []byte {
	var idx []int32
	var val []float64
	sig.W.ForEach(func(i int, x float64) {
		idx = append(idx, int32(i))
		val = append(val, x)
	})
	body, err := json.Marshal(map[string]any{
		"queries": []map[string]any{{"idx": idx, "val": val}},
		"k":       k,
	})
	if err != nil {
		panic(err) // static request shape, cannot fail
	}
	return body
}
