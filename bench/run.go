//fmeter:nondeterministic-ok benchmark harness: phases are scheduled and timed on the wall clock

package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
)

// config is one invocation: a workload, a seed, how long the measured
// phase lasts, and whether this is the traced run.
type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	short   bool // test shape: 1/50 of the signatures, a handful of repetitions
	outDir  string
}

// sizes are the counts a run uses, after -short scaling. A [2]int is the
// least and the most repetitions of a repeated measurement (see enough).
type sizes struct {
	sigs, classSize, classes int
	appendSigs               int // appended before each incremental save
	afterIngest              int // bodies of the ingest that follows the queries
	setups, fullSaves        [2]int
	reopens, collectCalls    [2]int
	replay                   int // requests of the traced replay, at most
	rounds                   int // passes over the probes per direct-call timing
	spin                     time.Duration
}

func (c config) sizes() sizes {
	s := sizes{
		sigs: c.w.sigs, classSize: c.w.classSize, appendSigs: appendSigs, afterIngest: afterIngestN,
		setups: [2]int{minSetups, maxSetups}, fullSaves: [2]int{minFullSaves, maxFullSaves},
		reopens: [2]int{minReopens, maxReopens}, collectCalls: [2]int{minCollectCalls, maxCollectCalls},
		replay: 2000, rounds: 4, spin: 250 * time.Millisecond,
	}
	if c.trace {
		// The traced run reports none of the repeated timings as gated
		// metrics, so it repeats each the least it may: one set-up is used
		// up by the save/reopen phase and one is served.
		s.setups = [2]int{2, 2}
		s.fullSaves[1], s.reopens[1], s.collectCalls[1] = s.fullSaves[0], s.reopens[0], s.collectCalls[0]
	}
	if c.short {
		s.sigs, s.classSize, s.appendSigs, s.afterIngest = s.sigs/shortScale, s.classSize/shortScale, 64, 3
		s.setups, s.fullSaves, s.reopens, s.collectCalls = [2]int{2, 2}, [2]int{1, 1}, [2]int{2, 2}, [2]int{2, 2}
		s.replay, s.rounds, s.spin = 64, 1, 10*time.Millisecond
	}
	if c.w.shape == shapePeaked {
		s.classes = s.sigs / s.classSize
	}
	return s
}

// result is one run's outcome.
type result struct {
	values            map[string]float64
	attempted, failed int
	problems          []string
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) count(attempted, failed int, problems []string) {
	r.attempted += attempted
	r.failed += failed
	r.problems = append(r.problems, problems...)
}

// procs is the core count the run uses: the host's, capped at 4. It is
// also the shard count and the most connections any phase opens.
func procs() int { return min(runtime.NumCPU(), 4) }

// harness is one run in progress.
type harness struct {
	cfg   config
	w     workload
	sz    sizes
	procs int
	res   *result
	gen   *generator

	served *store // the store behind the listener; nil once shut down
	ps     *probeSet
	bodies [][]byte // pre-encoded /v1/ingest bodies
	tr     *tracer  // traced run only

	warm, measure time.Duration
}

// runWorkload drives one workload through the pipeline and returns every
// metric the run's kind (untraced: end to end; traced: per layer)
// reports.
func runWorkload(cfg config) (*result, error) {
	h := &harness{cfg: cfg, w: cfg.w, sz: cfg.sizes(), procs: procs(), res: &result{values: make(map[string]float64)}}
	runtime.GOMAXPROCS(h.procs)
	h.measure = time.Duration(cfg.seconds * float64(time.Second))
	h.warm = time.Duration(math.Min(warmupSeconds, cfg.seconds/4) * float64(time.Second))
	if cfg.trace {
		h.measure /= 2 // the traced run splits its time between passes
		h.tr = newTracer(4 * h.sz.replay)
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-"+h.w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	defer h.stopServing() // on an error path; the measuring functions stop it themselves

	if !cfg.trace {
		if err := h.prepare(tmp); err != nil {
			return nil, err
		}
		return h.res, h.endToEnd()
	}
	spinBefore, stolenBefore := spin(h.sz.spin)
	if err := h.prepare(tmp); err != nil {
		return nil, err
	}
	if err := h.layers(); err != nil {
		return nil, err
	}
	spinAfter, stolenAfter := spin(h.sz.spin)
	h.res.set("host.spin_p50_us", (spinBefore+spinAfter)/2)
	h.res.set("host.stolen_share", max(stolenBefore, stolenAfter))
	h.res.set("trace.spans", float64(len(h.tr.spans)))
	return h.res, h.tr.writeFile(filepath.Join(cfg.outDir, "trace-"+h.w.name+".jsonl"))
}

func (h *harness) stopServing() error {
	if h.served == nil {
		return nil
	}
	st := h.served
	h.served = nil
	return st.shutdown()
}

// prepare generates the inputs, runs the collection phase, the set-ups
// and the save / reopen phase, and leaves h.served answering queries.
func (h *harness) prepare(tmp string) error {
	w, sz, res := h.w, h.sz, h.res

	// Collection: the paper's own path, simulated kernel to live DB. It
	// goes first, while the heap is small: with the generated documents
	// live, every collection cycle of the Go runtime marks them all, and
	// when those cycles fall is what moved this phase between runs.
	col, err := collectPhase(w.collect, h.cfg.seed, h.procs, sz.collectCalls)
	if err != nil {
		return fmt.Errorf("collection: %w", err)
	}
	res.count(col.attempted, col.failed, col.problems)
	res.set("client.collect_batch_p50_ms", median(col.batchMs))
	res.set("daemon.retries", float64(col.retries))
	res.set("daemon.skipped", float64(col.skipped))

	// Inputs: everything below is a function of the seed.
	genStart := time.Now()
	h.gen = newGenerator(h.cfg.seed, w.shape, sz.classSize)
	stored := h.gen.docs(0, sz.sigs)
	nBodies := sz.afterIngest
	if w.mixed {
		nBodies = int(math.Ceil(h.measure.Seconds() * mixedIngestHz))
	}
	ingestDocs := h.gen.docs(sz.sigs, nBodies*ingestBodyDocs)
	appends := h.gen.docs(sz.sigs+len(ingestDocs), incrSaves*sz.appendSigs)
	h.bodies = make([][]byte, nBodies)
	for i := range h.bodies {
		h.bodies[i] = encodeIngest(ingestDocs[i*ingestBodyDocs : (i+1)*ingestBodyDocs])
	}
	later := append(append([]*core.Document(nil), ingestDocs...), appends...)
	res.set("bench.gen_s", time.Since(genStart).Seconds())

	// Set-ups. The first store goes through save / close / reopen and is
	// used up by it; the last is the one served. The ones between exist
	// for setup_s alone.
	var wrap func(http.Handler) http.Handler
	if h.tr != nil {
		wrap = h.tr.middleware
	}
	var (
		per              *persisted
		setupS, chunksMs []float64
		last             setupTimes
	)
	setupsStart := time.Now()
	for rep, final := 0, false; !final; rep++ {
		final = enough(rep+1, time.Since(setupsStart), sz.setups[0], sz.setups[1])
		snapDir := ""
		if final && w.mixed {
			snapDir = filepath.Join(tmp, "serve-snapshots") // as fmeter-serve -db
		}
		st, tm, err := buildStore(w, h.procs, stored, later, snapDir, wrap)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", rep, err)
		}
		setupS, last = append(setupS, tm.total.Seconds()), tm
		for i, c := range tm.chunks {
			if (i+1)*loadChunk <= sz.sigs || len(tm.chunks) == 1 { // a short last chunk is not a sample
				chunksMs = append(chunksMs, ms(c))
			}
		}
		switch {
		case rep == 0:
			if h.ps, err = newProbeSet(h.gen, st.model, sz.classes); err == nil {
				per, err = persistPhase(st, h.ps, appends, tmp, h.procs, sz, h.cfg.trace, w.restart)
			}
			if err != nil {
				return fmt.Errorf("save/reopen: %w", err)
			}
			res.count(per.attempted, per.failed, per.problems)
			setupsStart = time.Now() // the budget is for set-ups, not for that phase
		case final && !w.restart:
			h.served = st
		default:
			if err := st.shutdown(); err != nil {
				return err
			}
		}
	}
	if w.restart {
		if per.reopened == nil {
			return fmt.Errorf("no reopen succeeded: %v", per.problems)
		}
		if err := per.reopened.serve("", wrap); err != nil {
			return err
		}
		h.served = per.reopened
	}
	db := h.served.db
	res.count(len(chunksMs), 0, nil)
	res.set("setup_s", median(setupS))
	res.set("client.cold_open_ms", median(per.coldOpenMs))
	res.set("disk_bytes_per_sig", per.diskBytesPerSig)
	res.set("client.bulk_load_p50_ms", median(chunksMs))
	res.set("client.save_full_ms", median(per.saveFullMs))
	res.set("client.save_incr_ms", median(per.saveIncrMs))
	res.set("core.fit_ms", ms(last.fit))
	res.set("core.transform_us_per_doc", us(last.transform)/float64(sz.sigs))
	res.set("core.add_us_per_sig", median(chunksMs)*1e3/loadChunk)
	res.set("core.persist.bytes_written_full", float64(per.bytesFull))
	res.set("core.persist.bytes_written_incr", median(per.bytesIncr))
	res.set("core.persist.files_written_incr", median(per.filesIncr))
	res.set("core.persist.open_resident_ms", median(per.openMs))
	res.set("core.persist.first_query_ms", median(per.firstQueryMs))
	res.set("core.persist.open_mapped_ms", median(per.openMappedMs))
	res.set("core.persist.mapped_bytes", float64(per.mappedBytes))
	res.set("core.persist.compacted_reopen_ok", b2f(per.compactedReopenOK))
	res.set("core.publishes", float64(db.Publishes()))
	res.set("core.segments", float64(db.Segments()))
	res.set("core.sealed_segments", float64(db.SealedSegments()))
	res.set("core.index_bytes_per_sig", float64(db.IndexBytes())/float64(db.Len()))

	// Only the served store and the encoded bodies are needed from here
	// on; the documents go before the heap is read.
	stored, ingestDocs, appends, later = nil, nil, nil, nil
	res.set("store_heap_mb", liveHeapMiB())
	if !w.restart { // the reopened store holds exactly what the save phase's answers cover
		h.ps.answer(h.served.sigs)
	}
	return nil
}

// queryPass runs the queries, closed loop on conns connections, with
// beside (the mixed workload's ingest bodies), open loop, next to them.
func (h *harness) queryPass(conns int, warm, measure time.Duration, beside [][]byte) (loadStats, ingestStats) {
	start := time.Now()
	var ing ingestStats
	done := make(chan struct{})
	go func() {
		defer close(done)
		if len(beside) > 0 {
			ing = pacedIngest(h.served, beside, mixedIngestHz, start.Add(warm))
		}
	}()
	ls := closedLoop(h.served, h.ps, conns, start, warm, measure)
	<-done
	h.res.count(ls.attempted+ing.attempted, ls.failed+ing.failed, append(ls.problems, ing.problems...))
	return ls, ing
}

// mixedBodies is the ingest that runs beside the queries: all the bodies
// on the mixed workload, none elsewhere.
func (h *harness) mixedBodies() [][]byte {
	if h.w.mixed {
		return h.bodies
	}
	return nil
}

// ingestAfter is the other workloads' ingest. It follows everything that
// checks answers, because where documents have no classes an ingested
// document may be a probe's neighbour.
func (h *harness) ingestAfter(ing ingestStats) ingestStats {
	if h.w.mixed {
		return ing
	}
	runtime.GC() // every run starts this phase at the same point of the collector's cycle
	ing = pacedIngest(h.served, h.bodies, afterIngestHz, time.Now())
	h.res.count(ing.attempted, ing.failed, ing.problems)
	return ing
}

// endToEnd is the untraced run's measured phase.
func (h *harness) endToEnd() error {
	conns := h.w.conns
	if conns == 0 {
		conns = h.procs
	}
	ls, ing := h.queryPass(conns, h.warm, h.measure, h.mixedBodies())
	ing = h.ingestAfter(ing)
	h.res.set("query_p50_ms", median(ls.latMs))
	h.res.set("client.ingest_p50_ms", median(ing.latMs))
	h.res.set("recall_at_k", share(int64(ls.present), int64(ls.want)))
	return h.stopServing()
}

// layers is the traced run's measured phase: an untraced pass on one
// connection, one on a connection per core, the replay with spans, then
// direct calls into each module.
func (h *harness) layers() error {
	res, sz, served, ps := h.res, h.sz, h.served, h.ps

	c1, ing := h.queryPass(1, h.warm, h.measure, h.mixedBodies())
	sorted := append([]float64(nil), c1.latMs...)
	sort.Float64s(sorted)
	if len(sorted) == 0 {
		return fmt.Errorf("no request completed in %v: %v", h.measure, c1.problems)
	}
	p50 := percentile(sorted, 50)
	tailPct, tailMs := tail(sorted)
	res.set("client.qps", float64(len(c1.latMs))/c1.elapsed.Seconds())
	res.set("client.query_p50_ms", p50)
	res.set("client.query_tail_ms", tailMs)
	res.set("client.query_tail_pct", tailPct)
	res.set("client.query_n", float64(len(sorted)))
	res.set("client.slice_p50_spread", sliceSpread(c1.latMs, 10))

	before := served.srv.Metrics()
	c2, _ := h.queryPass(h.procs, h.warm/2, h.measure/2, nil)
	after := served.srv.Metrics()
	res.set("client.c2_qps", float64(len(c2.latMs))/c2.elapsed.Seconds())
	res.set("client.c2_query_p50_ms", median(c2.latMs))
	res.set("serve.c2_mean_batch_size", share(int64(after.Queries-before.Queries), int64(after.Batches-before.Batches)))

	// About two seconds of replay, sz.replay requests at most.
	replay := min(sz.replay, max(sz.replay/10, int(2000/p50)))
	rp := tracedReplay(served, ps, h.tr, replay)
	res.count(rp.attempted, rp.failed, rp.problems)
	roundtrip, handler := median(h.tr.durationsUs(spanRoundtrip)), median(h.tr.durationsUs(spanHandler))
	serveUs, coreUs := median(h.tr.durationsUs(spanServe)), median(h.tr.durationsUs(spanCore))
	res.set("serve.http_self_us", roundtrip-handler)
	res.set("serve.handler_self_us", handler-serveUs)
	res.set("serve.coalesce_self_us", serveUs-coreUs)
	res.set("trace.overhead_share", (roundtrip/1e3-p50)/p50)
	res.set("serve.resp_body_bytes", float64(rp.respBytes)/float64(replay))
	var reqBytes int
	for _, rq := range ps.cycle {
		reqBytes += len(ps.bodies[rq.probe][rq.kind])
	}
	res.set("serve.req_body_bytes", float64(reqBytes)/float64(len(ps.cycle)))

	flat := make([]*core.Document, 16)
	for j := range flat {
		flat[j] = h.gen.flatProbe(j)
	}
	flatSigs, err := embed(served.model, flat)
	if err != nil {
		return err
	}
	if err := storeLayers(served, ps, flatSigs, sz.rounds, res.set); err != nil {
		return fmt.Errorf("store layers: %w", err)
	}
	if err := activeVersusSealed(served.sigs, ps, h.procs, sz.rounds, res.set); err != nil {
		return fmt.Errorf("active versus sealed: %w", err)
	}
	ing = h.ingestAfter(ing)
	res.set("client.ingest_p50_ms", median(ing.latMs))
	res.set("client.ingest_late_p50_ms", median(ing.lateMs))
	if err := ingestHandler(served, h.bodies[:min(10, len(h.bodies))], res.set); err != nil {
		return err
	}
	m := served.srv.Metrics()
	res.set("serve.rejected_429", float64(m.Rejected))
	res.set("serve.snapshots", float64(m.Snapshots))
	if err := h.stopServing(); err != nil {
		return err
	}
	if err := collectLayers(h.w.collect[0], h.cfg.seed, 16*sz.rounds, res.set); err != nil {
		return fmt.Errorf("collection layers: %w", err)
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
