package main

import "time"

// This file is the benchmark's contract: the workloads, and every metric
// a run prints, by name. BENCHMARK.json at the repository root is
// generated from it (-print-benchmark-json) and a test keeps them equal.

// workload is one parameterisation of the pipeline every run drives:
// collect → fit/transform/bulk-load → serve → query (+ ingest) → save →
// reopen. The workloads differ in which stage dominates.
type workload struct {
	name, why string
	shape     shape
	sigs      int  // signatures bulk-loaded at set-up
	classSize int  // peaked: consecutive documents per class
	sealed    bool // Seal() after the load, so queries meet sealed segments only
	conns     int  // closed-loop query connections; 0 means GOMAXPROCS
	// mixed: the paced ingest connection runs beside the queries (open
	// loop, 10 bodies/s for the whole measured phase) and the server
	// snapshots into a directory, as fmeter-serve -db does. Otherwise a
	// short paced ingest follows the queries.
	mixed bool
	// restart: the store is saved, closed and reopened before the
	// queries, which then run against the reopened store.
	restart bool
	// collect names the simulated workloads of the collection phase.
	collect []string
}

var workloads = []workload{
	{
		name:  "wire_small",
		why:   "2000 12-function signatures, sealed, 1 connection: core answers in microseconds, so HTTP, JSON and the coalescer are most of a query; a kernel change should not show here",
		shape: shapeTiny, sigs: 2000, sealed: true, conns: 1,
		collect: []string{"scp"},
	},
	{
		name:  "kernel_large",
		why:   "24000 peaked signatures in sealed segments, a connection per core: the pruned walk and shard merge dominate a query, wire cost is small; a serve-layer change should not show here",
		shape: shapePeaked, sigs: 24000, classSize: 2000, sealed: true,
		collect: []string{"kcompile"},
	},
	{
		name:  "mixed_ingest",
		why:   "12000 peaked signatures with an unsealed tail, queries beside a paced ingest of 500 documents/s, seals and the snapshot loop: where a cheaper Add that slows reads, or the reverse, shows",
		shape: shapePeaked, sigs: 12000, classSize: 2000, conns: 1, mixed: true,
		collect: []string{"dbench"},
	},
	{
		name:  "collect_restart",
		why:   "four simulated kernel workloads through the daemon, then 16000 peaked signatures saved, closed, reopened and only then queried: the paper's collection path and the restart path",
		shape: shapePeaked, sigs: 16000, classSize: 2000, sealed: true, conns: 1, restart: true,
		collect: []string{"scp", "kcompile", "dbench", "apachebench"},
	},
}

// Sizes every workload shares. A repeated measurement runs at least its
// "min" count and then on until repeatBudget has been spent on it or its
// "max" count is reached, so that a cheap operation (a 10 ms set-up of
// 2000 signatures) is sampled more often than a dear one.
const (
	loadChunk      = 256 // signatures per AddAll of the bulk load
	ingestBodyDocs = 50  // documents per /v1/ingest body
	mixedIngestHz  = 10  // bodies per second beside the queries
	afterIngestHz  = 25  // bodies per second of the ingest that follows the queries
	afterIngestN   = 50  // bodies of that ingest
	appendSigs     = 512 // signatures appended before each incremental save
	incrSaves      = 5
	mappedReopens  = 3
	collectBatch   = 32 // intervals per CollectStream call, and the daemon's ingest batch
	collectWarmup  = 50 // intervals per simulated workload the model is fitted on
	warmupSeconds  = 1.0
	shortScale     = 50 // -short divides signature counts and class sizes by this

	repeatBudget                     = 1500 * time.Millisecond
	minSetups, maxSetups             = 3, 12 // setup_s is their median
	minFullSaves, maxFullSaves       = 3, 12
	minReopens, maxReopens           = 5, 25
	minCollectCalls, maxCollectCalls = 15, 40 // per simulated workload
)

// enough reports whether a repeated measurement may stop after n
// repetitions that took spent: at lo once the budget is used up, at hi
// regardless.
func enough(n int, spent time.Duration, lo, hi int) bool {
	return n >= hi || (n >= lo && spent >= repeatBudget)
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one printed metric. Bound is set for end-to-end
// metrics only: the share of the parent's median by which the metric may
// worsen. README.md defines each metric and, for a per-layer metric,
// names the end-to-end metric a change to it should move; a test checks
// that it mentions every name.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, at its own scale.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "disk_bytes_per_sig", Unit: "B", Better: "lower", Bound: 0.01},
	{Name: "store_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.05},
	{Name: "recall_at_k", Unit: "ratio", Better: "higher", Bound: 0.01},
}

// perLayer is diagnostic: module names are the layers. A traced run
// reports all of them; none is gated.
var perLayer = []metricDef{
	{Name: "client.qps", Unit: "1/s", Better: "higher"},
	{Name: "client.query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.query_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "client.query_tail_pct", Unit: "pct", Better: "higher"},
	{Name: "client.query_n", Unit: "count", Better: "higher"},
	{Name: "client.slice_p50_spread", Unit: "ratio", Better: "lower"},
	{Name: "client.c2_qps", Unit: "1/s", Better: "higher"},
	{Name: "client.c2_query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.ingest_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.collect_batch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.cold_open_ms", Unit: "ms", Better: "lower"},
	{Name: "client.bulk_load_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.save_full_ms", Unit: "ms", Better: "lower"},
	{Name: "client.save_incr_ms", Unit: "ms", Better: "lower"},
	{Name: "client.ingest_late_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.c2_mean_batch_size", Unit: "count", Better: "higher"},
	{Name: "serve.http_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.coalesce_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.req_body_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.resp_body_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.rejected_429", Unit: "count", Better: "lower"},
	{Name: "serve.snapshots", Unit: "count", Better: "higher"},
	{Name: "serve.ingest_handler_ms", Unit: "ms", Better: "lower"},
	{Name: "core.topk_us", Unit: "us", Better: "lower"},
	{Name: "core.classify_us", Unit: "us", Better: "lower"},
	{Name: "core.topk_batch16_us_per_query", Unit: "us", Better: "lower"},
	{Name: "parallel.batch16_speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.prune.scored_share", Unit: "ratio", Better: "lower"},
	{Name: "core.prune.blocks_skipped_share", Unit: "ratio", Better: "higher"},
	{Name: "core.prune.dims_skipped_share", Unit: "ratio", Better: "higher"},
	{Name: "core.prune.segments_pruned_share", Unit: "ratio", Better: "higher"},
	{Name: "core.topk_flat_query_us", Unit: "us", Better: "lower"},
	{Name: "core.topk_active_only_us", Unit: "us", Better: "lower"},
	{Name: "core.topk_sealed_only_us", Unit: "us", Better: "lower"},
	{Name: "core.add_us_per_sig", Unit: "us", Better: "lower"},
	{Name: "core.seal_ms", Unit: "ms", Better: "lower"},
	{Name: "core.publishes", Unit: "count", Better: "lower"},
	{Name: "core.segments", Unit: "count", Better: "lower"},
	{Name: "core.sealed_segments", Unit: "count", Better: "lower"},
	{Name: "core.index_bytes_per_sig", Unit: "B", Better: "lower"},
	{Name: "core.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "core.transform_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "core.persist.bytes_written_full", Unit: "B", Better: "lower"},
	{Name: "core.persist.bytes_written_incr", Unit: "B", Better: "lower"},
	{Name: "core.persist.files_written_incr", Unit: "count", Better: "lower"},
	{Name: "core.persist.open_resident_ms", Unit: "ms", Better: "lower"},
	{Name: "core.persist.first_query_ms", Unit: "ms", Better: "lower"},
	{Name: "core.persist.open_mapped_ms", Unit: "ms", Better: "lower"},
	{Name: "core.persist.mapped_bytes", Unit: "B", Better: "higher"},
	{Name: "core.persist.compacted_reopen_ok", Unit: "count", Better: "higher"},
	{Name: "vecmath.sparse_from_sorted_ns", Unit: "ns", Better: "lower"},
	{Name: "vecmath.dot_ns", Unit: "ns", Better: "lower"},
	{Name: "kernel.run_interval_us", Unit: "us", Better: "lower"},
	{Name: "kernel.run_interval_vanilla_us", Unit: "us", Better: "lower"},
	{Name: "trace.fmeter_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "debugfs.read_counters_us", Unit: "us", Better: "lower"},
	{Name: "percpu.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "daemon.collect_interval_us", Unit: "us", Better: "lower"},
	{Name: "daemon.retries", Unit: "count", Better: "lower"},
	{Name: "daemon.skipped", Unit: "count", Better: "lower"},
	{Name: "host.spin_p50_us", Unit: "us", Better: "lower"},
	{Name: "host.stolen_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
	{Name: "bench.gen_s", Unit: "s", Better: "lower"},
}
