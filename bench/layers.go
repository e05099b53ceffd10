//fmeter:nondeterministic-ok benchmark harness: per-layer numbers are wall-clock times of calls into each module

package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	fmeter "repro"
	"repro/internal/core"
	"repro/internal/vecmath"
)

// replayBlock is how many requests the traced replay sends back to back
// before it replays the same requests into the next layer down: long
// enough that the connection and the caches are as warm as in an
// untraced pass, short enough that a slow stretch of the host falls on
// every layer alike.
const replayBlock = numProbes

// tracedReplay replays n requests of the cycle on one connection with
// the request index on the wire, so the middleware's serve.handler span
// nests in the client.roundtrip span. Block by block it then replays
// each request's query directly into the serving layer (serve.topk) and
// into the store through the batch entry points the serving layer calls
// (core.topk); the spans join on the request index.
func tracedReplay(st *store, ps *probeSet, tr *tracer, n int) loadStats {
	var ls loadStats
	c := newConn()
	defer c.close()
	direct := func(i int, name, parent string, topk, classify func(q []*vecmath.Sparse, k int, m core.Metric) error) {
		rq := ps.cycle[i%len(ps.cycle)]
		call := classify
		if rq.kind.isTopK() {
			call = topk
		}
		ls.attempted++
		start := time.Now()
		err := call([]*vecmath.Sparse{ps.sigs[rq.probe].W}, rq.kind.k(), rq.kind.metric())
		tr.record(i, name, parent, start, time.Now())
		if err != nil {
			ls.fail(err)
		}
	}
	for from := 0; from < n; from += replayBlock {
		to := min(from+replayBlock, n)
		for i := from; i < to; i++ {
			start := time.Now()
			d := c.query(st, ps, i, i, &ls)
			tr.record(i, spanRoundtrip, "", start, start.Add(d))
			ls.latMs = append(ls.latMs, ms(d))
		}
		for i := from; i < to; i++ {
			direct(i, spanServe, spanHandler,
				func(q []*vecmath.Sparse, k int, m core.Metric) error { _, err := st.srv.TopK(q, k, m); return err },
				func(q []*vecmath.Sparse, k int, m core.Metric) error { _, err := st.srv.Classify(q, k, m); return err })
		}
		for i := from; i < to; i++ {
			direct(i, spanCore, spanServe,
				func(q []*vecmath.Sparse, k int, m core.Metric) error { _, err := st.db.TopKBatch(q, k, m); return err },
				func(q []*vecmath.Sparse, k int, m core.Metric) error {
					_, err := st.db.ClassifyBatch(q, k, m)
					return err
				})
		}
	}
	return ls
}

// timeEach times fn(i) for i in [0, n) and returns the times in µs.
func timeEach(n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		t := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out[i] = us(time.Since(t))
	}
	return out, nil
}

// share is a/b, 0 when b is 0.
func share(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// storeLayers times the store's and vecmath's public functions directly,
// over the probes, and reads the store's exact counters.
func storeLayers(st *store, ps *probeSet, flat []core.Signature, rounds int, set func(string, float64)) error {
	db := st.db
	n := rounds * numProbes
	probe := func(i int) *vecmath.Sparse { return ps.sigs[i%numProbes].W }
	metricOf := func(i int) core.Metric { // cosine rounds and euclidean rounds alternate
		if (i/numProbes)%2 == 1 {
			return core.EuclideanMetric()
		}
		return core.CosineMetric()
	}

	topk, err := timeEach(n, func(i int) error {
		_, err := db.TopKSparse(probe(i), topkK, metricOf(i))
		return err
	})
	if err != nil {
		return err
	}
	set("core.topk_us", median(topk))
	classify, err := timeEach(n, func(i int) error {
		_, err := db.ClassifySparse(probe(i), classifyK, metricOf(i))
		return err
	})
	if err != nil {
		return err
	}
	set("core.classify_us", median(classify))

	var stats core.PruneStats
	for i := 0; i < 2*numProbes; i++ {
		_, s, err := db.TopKSparseStats(probe(i), topkK, metricOf(i))
		if err != nil {
			return err
		}
		stats.Segments += s.Segments
		stats.SegmentsPruned += s.SegmentsPruned
		stats.Candidates += s.Candidates
		stats.CandidatesScored += s.CandidatesScored
		stats.DimsConsidered += s.DimsConsidered
		stats.DimsSkipped += s.DimsSkipped
		stats.BlocksConsidered += s.BlocksConsidered
		stats.BlocksSkipped += s.BlocksSkipped
	}
	set("core.prune.scored_share", share(stats.CandidatesScored, stats.Candidates))
	set("core.prune.blocks_skipped_share", share(stats.BlocksSkipped, stats.BlocksConsidered))
	set("core.prune.dims_skipped_share", share(stats.DimsSkipped, stats.DimsConsidered))
	set("core.prune.segments_pruned_share", share(stats.SegmentsPruned, stats.Segments))

	flatUs, err := timeEach(rounds*len(flat), func(i int) error {
		_, err := db.TopKSparse(flat[i%len(flat)].W, topkK, core.CosineMetric())
		return err
	})
	if err != nil {
		return err
	}
	set("core.topk_flat_query_us", median(flatUs))

	// A batch of 16 on all workers, then on one. SetWorkers is a knob of
	// the program; it is turned here only, after everything the gated
	// metrics come from has been measured, and turned back.
	batch := make([]*vecmath.Sparse, 16)
	for i := range batch {
		batch[i] = probe(i)
	}
	timeBatch := func() (float64, error) {
		times, err := timeEach(rounds*4, func(int) error {
			_, err := db.TopKBatch(batch, topkK, core.CosineMetric())
			return err
		})
		return median(times), err
	}
	all, err := timeBatch()
	if err != nil {
		return err
	}
	db.SetWorkers(-1)
	one, err := timeBatch()
	db.SetWorkers(0)
	if err != nil {
		return err
	}
	set("core.topk_batch16_us_per_query", all/float64(len(batch)))
	set("parallel.batch16_speedup", one/all)

	idx, val := probe(0).Support(), probe(0).Values()
	fromSorted, err := timeEach(rounds*256, func(int) error {
		_, err := vecmath.SparseFromSorted(dim, idx, val)
		return err
	})
	if err != nil {
		return err
	}
	set("vecmath.sparse_from_sorted_ns", median(fromSorted)*1e3)
	var sink float64
	dots, _ := timeEach(rounds*256, func(i int) error {
		sink += probe(i).Dot(st.sigs[i%len(st.sigs)].W)
		return nil
	})
	_ = sink
	set("vecmath.dot_ns", median(dots)*1e3)
	return nil
}

// activeVersusSealed loads up to 6000 signatures into a side store,
// queries them unsealed (the active-prefix scan), seals, and queries
// again (the indexed, pruned walk).
func activeVersusSealed(sigs []core.Signature, ps *probeSet, procs, rounds int, set func(string, float64)) error {
	db, err := fmeter.NewDB(dim, fmeter.WithShards(procs))
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.AddAll(sigs[:min(6000, len(sigs))]); err != nil {
		return err
	}
	query := func() (float64, error) {
		times, err := timeEach(rounds*numProbes, func(i int) error {
			_, err := db.TopKSparse(ps.sigs[i%numProbes].W, topkK, core.CosineMetric())
			return err
		})
		return median(times), err
	}
	active, err := query()
	if err != nil {
		return err
	}
	t := time.Now()
	db.Seal()
	set("core.seal_ms", ms(time.Since(t)))
	sealed, err := query()
	if err != nil {
		return err
	}
	set("core.topk_active_only_us", active)
	set("core.topk_sealed_only_us", sealed)
	return nil
}

// ingestHandler times the server's handler on one ingest body with no
// network: an in-memory recorder takes the reply. The documents do enter
// the store, so this runs after everything that checks answers.
func ingestHandler(st *store, bodies [][]byte, set func(string, float64)) error {
	h := st.srv.Handler()
	times, err := timeEach(len(bodies), func(i int) error {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(bodies[i]))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process ingest: status %d: %s", rec.Code, rec.Body)
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("serve.ingest_handler_ms", median(times)/1e3)
	return nil
}

// spin times a fixed arithmetic loop for about d and reports its median
// and how much of the time the slowest runs lost: a busy or throttled
// host shows here and nowhere in the program.
func spin(d time.Duration) (p50us, stolenShare float64) {
	var times []float64
	var x uint64 = 1
	for stop := time.Now().Add(d); time.Now().Before(stop); {
		t := time.Now()
		for i := 0; i < 20000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		times = append(times, us(time.Since(t)))
	}
	if x == 0 { // keeps the loop's result live
		times = append(times, 0)
	}
	lo, sum := times[0], 0.0
	for _, v := range times {
		lo, sum = min(lo, v), sum+v
	}
	mean := sum / float64(len(times))
	return median(times), (mean - lo) / mean
}
