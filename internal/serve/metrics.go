package serve

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// latBuckets is the request-latency histogram width: bucket i holds
// latencies in [2^i, 2^(i+1)) microseconds, so 26 buckets span 1µs to
// ~67s — more than any sane request lifetime.
const latBuckets = 26

// batchBuckets is the batch-size histogram width: bucket i holds
// requests that carried [2^i, 2^(i+1)) queries into one batched kernel
// call, so 10 buckets span a single query to 512+.
const batchBuckets = 10

// metrics is the server's observability state. Everything on the hot
// path is a plain atomic so handlers never take a lock to count; the
// mutex guards only the /metrics scrape window.
type metrics struct {
	start time.Time

	topkRequests     atomic.Uint64
	classifyRequests atomic.Uint64
	ingestRequests   atomic.Uint64
	queries          atomic.Uint64 // queries answered
	batches          atomic.Uint64 // batched kernel calls = query requests answered
	rejected         atomic.Uint64 // 429s (admission bound reached)
	clientErrors     atomic.Uint64 // 4xx other than overload
	serverErrors     atomic.Uint64 // 5xx
	docsIngested     atomic.Uint64
	snapshots        atomic.Uint64
	snapshotErrors   atomic.Uint64

	batchHist [batchBuckets]atomic.Uint64
	latHist   [latBuckets]atomic.Uint64
	latCount  atomic.Uint64
	latSumUS  atomic.Uint64

	// Sampled PruneStats aggregates: every pruneSampleEvery-th TopK
	// request sets Stats on its core.Query (same call, same view, same
	// hits; only the counters are extra) and adds its first query's
	// counters to prune under pruneMu.
	pruneTick atomic.Uint64 // TopK requests seen by the sampler
	pruneMu   sync.Mutex
	prune     PruneAggr

	// scrapeMu guards the previous-scrape water marks the windowed QPS
	// is computed from.
	scrapeMu    sync.Mutex
	lastScrape  time.Time
	lastScrapeQ uint64
}

//fmeter:nondeterministic-ok serving telemetry: uptime is anchored to the wall clock by definition
func newMetrics() *metrics {
	return &metrics{start: time.Now()}
}

// observeLatency records one query-path request's wall-clock latency.
func (m *metrics) observeLatency(d time.Duration) {
	us := uint64(d.Microseconds())
	if us < 1 {
		us = 1
	}
	b := bits.Len64(us) - 1 // floor(log2 us)
	if b >= latBuckets {
		b = latBuckets - 1
	}
	m.latHist[b].Add(1)
	m.latCount.Add(1)
	m.latSumUS.Add(us)
}

// observeBatch records one request's kernel call over n queries.
func (m *metrics) observeBatch(n int) {
	m.batches.Add(1)
	m.queries.Add(uint64(n))
	if n < 1 {
		n = 1
	}
	b := bits.Len64(uint64(n)) - 1
	if b >= batchBuckets {
		b = batchBuckets - 1
	}
	m.batchHist[b].Add(1)
}

// observePrune accumulates one sampled query's pruning counters.
func (m *metrics) observePrune(st *core.PruneStats) {
	m.pruneMu.Lock()
	m.prune.Samples++
	m.prune.Add(st)
	m.pruneMu.Unlock()
}

// prunedSum returns the sampled PruneStats aggregate so far.
func (m *metrics) prunedSum() PruneAggr {
	m.pruneMu.Lock()
	defer m.pruneMu.Unlock()
	return m.prune
}

// latencyQuantile estimates the q-quantile (0 < q <= 1) of the request
// latency distribution from the log2 histogram, reporting the upper
// bound of the bucket the quantile falls in — a conservative (never
// optimistic) estimate with power-of-two resolution.
func (m *metrics) latencyQuantile(q float64) float64 {
	total := m.latCount.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < latBuckets; i++ {
		seen += m.latHist[i].Load()
		if seen >= rank {
			return float64(uint64(1) << (i + 1)) // bucket upper bound, µs
		}
	}
	return float64(uint64(1) << latBuckets)
}

// MetricsSnapshot is the GET /metrics payload: a point-in-time JSON
// rendering of every counter, the queries-per-request histogram,
// conservative latency quantiles, and the sampled PruneStats aggregates.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_s"`

	// Store shape at scrape time.
	DBSignatures     int    `json:"db_signatures"`
	DBSegments       int    `json:"db_segments"`
	DBSealedSegments int    `json:"db_sealed_segments"`
	DBPublishes      uint64 `json:"db_publishes"`
	// DBUnindexedRows is the active-segment fill queries pay for row by
	// row: signatures no posting run covers yet.
	DBUnindexedRows int `json:"active_unindexed_rows"`

	// Request counters.
	TopKRequests     uint64 `json:"topk_requests"`
	ClassifyRequests uint64 `json:"classify_requests"`
	IngestRequests   uint64 `json:"ingest_requests"`
	Rejected         uint64 `json:"rejected_429"`
	ClientErrors     uint64 `json:"client_errors_4xx"`
	ServerErrors     uint64 `json:"server_errors_5xx"`
	DocsIngested     uint64 `json:"docs_ingested"`
	Snapshots        uint64 `json:"snapshots"`
	SnapshotErrors   uint64 `json:"snapshot_errors"`

	// Query path. One request is one batched kernel call: Batches counts
	// requests, QueueDepth the requests admitted (running + waiting).
	Queries        uint64    `json:"queries"`
	Batches        uint64    `json:"batches"`
	MeanBatchSize  float64   `json:"mean_batch_size"`
	BatchSizeHist  []uint64  `json:"batch_size_hist_pow2"`
	QueueDepth     int       `json:"queue_depth"`
	QueueCapacity  int       `json:"queue_capacity"`
	QPSSinceStart  float64   `json:"qps_since_start"`
	QPSSinceScrape float64   `json:"qps_since_scrape"`
	LatencyMeanUS  float64   `json:"latency_mean_us"`
	LatencyP50US   float64   `json:"latency_p50_us"`
	LatencyP99US   float64   `json:"latency_p99_us"`
	LatencyHist    []uint64  `json:"latency_hist_pow2_us"`
	Prune          PruneAggr `json:"prune_sampled"`
}

// PruneAggr is the sampled PruneStats aggregate in MetricsSnapshot:
// the sum of Samples queries' counters.
type PruneAggr struct {
	Samples uint64 `json:"samples"`
	core.PruneStats
}

// snapshot renders the current counters. The windowed QPS compares
// against the previous snapshot call, so a scraper polling /metrics
// every N seconds reads the recent rate, not the lifetime average.
//
//fmeter:nondeterministic-ok serving telemetry: QPS and uptime are wall-clock rates by definition
func (m *metrics) snapshot(db *core.DB, queueDepth, queueCap int) MetricsSnapshot {
	now := time.Now()
	queries := m.queries.Load()

	m.scrapeMu.Lock()
	windowQPS := 0.0
	if !m.lastScrape.IsZero() {
		if dt := now.Sub(m.lastScrape).Seconds(); dt > 0 {
			windowQPS = float64(queries-m.lastScrapeQ) / dt
		}
	}
	m.lastScrape = now
	m.lastScrapeQ = queries
	m.scrapeMu.Unlock()

	uptime := now.Sub(m.start).Seconds()
	batches := m.batches.Load()
	snap := MetricsSnapshot{
		UptimeSeconds:    uptime,
		DBSignatures:     db.Len(),
		DBSegments:       db.Segments(),
		DBSealedSegments: db.SealedSegments(),
		DBPublishes:      db.Publishes(),
		DBUnindexedRows:  db.ActiveUnindexedRows(),
		TopKRequests:     m.topkRequests.Load(),
		ClassifyRequests: m.classifyRequests.Load(),
		IngestRequests:   m.ingestRequests.Load(),
		Rejected:         m.rejected.Load(),
		ClientErrors:     m.clientErrors.Load(),
		ServerErrors:     m.serverErrors.Load(),
		DocsIngested:     m.docsIngested.Load(),
		Snapshots:        m.snapshots.Load(),
		SnapshotErrors:   m.snapshotErrors.Load(),
		Queries:          queries,
		Batches:          batches,
		QueueDepth:       queueDepth,
		QueueCapacity:    queueCap,
		QPSSinceScrape:   windowQPS,
		LatencyP50US:     m.latencyQuantile(0.50),
		LatencyP99US:     m.latencyQuantile(0.99),
		Prune:            m.prunedSum(),
	}
	if batches > 0 {
		snap.MeanBatchSize = float64(queries) / float64(batches)
	}
	if uptime > 0 {
		snap.QPSSinceStart = float64(queries) / uptime
	}
	if n := m.latCount.Load(); n > 0 {
		snap.LatencyMeanUS = float64(m.latSumUS.Load()) / float64(n)
	}
	snap.BatchSizeHist = make([]uint64, batchBuckets)
	for i := range snap.BatchSizeHist {
		snap.BatchSizeHist[i] = m.batchHist[i].Load()
	}
	snap.LatencyHist = make([]uint64, latBuckets)
	for i := range snap.LatencyHist {
		snap.LatencyHist[i] = m.latHist[i].Load()
	}
	return snap
}
