// Package fmeter is a reproduction of "Fmeter: Extracting Indexable
// Low-level System Signatures by Counting Kernel Function Calls" (Marian,
// Lee, Weatherspoon, Sagar — Middleware 2012).
//
// Fmeter counts every kernel function invocation with per-CPU counters and
// embeds the per-interval counts into the classical vector space model:
// each monitoring interval becomes a tf-idf weight vector — an indexable,
// low-level system signature amenable to clustering, classification, and
// similarity search.
//
// Because a real patched kernel is not available here, the package drives
// a simulated monolithic kernel (see internal/kernel for the substitution
// argument): a deterministic ~3815-function symbol table, syscall-level
// operations with realistic call paths, loadable-module semantics, and
// Fmeter's per-CPU counter stubs. The vanilla and Ftrace configurations
// the paper measures overhead against are reproduced by
// internal/experiments (Tables 1–3).
//
// # Quick start
//
// Signatures are sparse-first: Signature.W holds the canonical sorted
// sparse form, and every pipeline stage — embedding, the signature
// database, SVM training and classification, K-means — runs in O(nnz)
// per signature. Each learner is the paper's one: an SVM with SVM^light's
// default cubic polynomial kernel, K-means with random restarts, and
// single-linkage hierarchical clustering.
//
//	sys, _ := fmeter.New(fmeter.Config{Seed: 1})
//	scp, _ := sys.Collect(fmeter.ScpWorkload(), 50, 10*time.Second, nil)
//	dbench, _ := sys.Collect(fmeter.DbenchWorkload(), 50, 10*time.Second, nil)
//	sigs, model, _ := fmeter.BuildSignatures(append(scp, dbench...), sys.Dim())
//
//	// Similarity database: every query ranks by cosine or Euclidean,
//	// the two metrics its inverted index scores, walked on every core;
//	// snapshots survive restarts.
//	db, _ := fmeter.NewDB(sys.Dim())
//	_ = db.AddAll(sigs[1:])
//	hits, _ := db.TopKSparse(sigs[0].W, 3, fmeter.EuclideanMetric())
//
//	// db.Query is the one call behind every shorthand: many queries on
//	// one view, into slots the caller reuses (zero allocs once warm).
//	q := fmeter.Query{Queries: []*fmeter.Sparse{sigs[0].W}, K: 3, Metric: fmeter.EuclideanMetric(), Labels: make([]string, 1)}
//	_ = db.Query(context.Background(), &q)
//
//	// A classifier trained on both classes, as a binary SVM requires.
//	clf, _ := fmeter.TrainClassifier(sigs, "scp", 10, 1)
//	isScp, _ := clf.Matches(sigs[0])
//
//	_ = hits
//	_ = isScp
//
// See examples/ for complete programs.
package fmeter

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/driver"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/svm"
	"repro/internal/vecmath"
	"repro/internal/workload"
)

// Re-exported core types: the vector space model's vocabulary.
type (
	// Document is one monitoring interval of raw function counts.
	Document = core.Document
	// Signature is a document embedded as a tf-idf weight vector.
	Signature = core.Signature
	// Corpus is a collection of documents over a fixed term space.
	Corpus = core.Corpus
	// Model is a fitted tf-idf weighting (the learned idf vector).
	Model = core.Model
	// DB is a labeled signature database with similarity search.
	DB = core.DB
	// Metric is CosineMetric or EuclideanMetric, the two measures a DB
	// query ranks by; a query given any other Metric returns a typed
	// *ConfigError.
	Metric = core.Metric
	// SearchResult is one similarity-query hit.
	SearchResult = core.SearchResult
	// Query is one request to db.Query: queries, k and metric in; hits
	// or labels, and optionally PruneStats, out.
	Query = core.Query
	// DimensionError is the typed error for mis-sized DB inputs.
	DimensionError = core.DimensionError
	// ConfigError is the typed error for out-of-range construction and
	// configuration parameters (dimension, k).
	ConfigError = core.ConfigError
	// PruneStats are one query's threshold-pruning counters (see
	// Query.Stats).
	PruneStats = core.PruneStats
	// SnapshotError is the typed error for corrupt, missing, or
	// unreadable snapshot-directory files; it names the offending file.
	SnapshotError = core.SnapshotError
	// Vector is a dense signature vector.
	Vector = vecmath.Vector
	// Sparse is the canonical sparse signature vector (Signature.W).
	Sparse = vecmath.Sparse
	// WorkloadSpec declares a workload's kernel-operation mix.
	WorkloadSpec = workload.Spec
	// DriverVariant selects a myri10ge driver scenario (Table 5).
	DriverVariant = driver.Variant
	// RetryPolicy governs the collector's handling of transient debugfs
	// read failures (see System.SetRetryPolicy).
	RetryPolicy = daemon.RetryPolicy
	// CollectorStats are the collector's degradation counters: reads
	// that needed a retry, intervals skipped after retries ran out.
	CollectorStats = daemon.Stats
	// Server is the HTTP/JSON serving layer: query + ingest endpoints
	// over a live DB, each query request one db.Query call on its own
	// goroutine behind one admission gate, with 429 backpressure
	// and graceful shutdown (see NewServer).
	Server = serve.Server
	// ServeConfig sets the serving layer's admission bound, snapshot
	// directory and warning sink; the zero value gets production
	// defaults.
	ServeConfig = serve.Config
	// ServeMetrics is the GET /metrics payload (QPS, admitted requests,
	// queries-per-request histogram, latency quantiles, PruneStats
	// aggregates).
	ServeMetrics = serve.MetricsSnapshot
	// OverloadError is the typed rejection a request gets when MaxQueue
	// query requests are already admitted; it maps to HTTP 429 +
	// Retry-After.
	OverloadError = serve.OverloadError
)

// Driver variants of the paper's subtle-behaviour experiment.
const (
	Driver151      = driver.V151
	Driver143      = driver.V143
	Driver151NoLRO = driver.V151NoLRO
)

// Config configures the simulated monitored machine: the paper's
// 16-CPU testbed with Fmeter's counter stubs compiled in.
type Config struct {
	// Seed drives all stochastic behaviour; runs are reproducible.
	Seed int64
}

// Option is accepted by NewDB and OpenDB for compatibility; every
// remaining Option is a deprecated no-op.
type Option func()

// WithShards does nothing: a database stores its rows once, in
// insertion order, and a query fans out over db.SetWorkers lanes
// instead.
//
// Deprecated: drop the option; the database is no longer split into
// shards.
func WithShards(int) Option { return func() {} }

// WithSegmentSize does nothing: a database cuts its rows into segments
// of a fixed size, whatever the order of adds, seals, saves and
// reopens; db.Seal() indexes the last, still-growing segment whole but
// does not end it.
//
// Deprecated: drop the option; the segment size is not tunable.
func WithSegmentSize(int) Option { return func() {} }

// WithCompactionPolicy does nothing: every segment but the last holds
// the fixed segment size, so there are no small segments to merge.
//
// Deprecated: drop the option; compaction was removed.
func WithCompactionPolicy(int) Option { return func() {} }

// WithMapped does nothing: OpenDB loads every segment onto the heap.
//
// Deprecated: drop the option; snapshots are no longer memory-mapped.
func WithMapped(bool) Option { return func() {} }

// System is one simulated machine wired for signature collection.
type System struct {
	m    *daemon.Machine
	seed int64
}

// New boots the simulated Fmeter machine.
func New(cfg Config) (*System, error) {
	m, err := daemon.Boot(daemon.Fmeter, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &System{m: m, seed: cfg.Seed}, nil
}

// Dim returns the signature dimension: the number of instrumented
// core-kernel functions.
func (s *System) Dim() int { return s.m.ST.Len() }

// FunctionNames returns the instrumented function names indexed by
// signature dimension.
func (s *System) FunctionNames() []string { return s.m.ST.Names() }

// LoadDriver loads a myri10ge variant as an uninstrumented runtime module
// (its functions never appear in signatures; only its calls into the core
// kernel do).
func (s *System) LoadDriver(v DriverVariant) error { return s.m.LoadDriver(v) }

// Collect runs the logging daemon for n intervals of the given length
// under the workload, returning the labeled interval documents. If w is
// non-nil every document is also streamed to it as JSON Lines.
func (s *System) Collect(spec WorkloadSpec, n int, interval time.Duration, w io.Writer) ([]*Document, error) {
	run, err := workload.NewRunner(s.m.Eng, spec, s.seed+101)
	if err != nil {
		return nil, err
	}
	body := func(d time.Duration) error {
		_, err := run.RunInterval(d)
		return err
	}
	return s.m.Col.CollectSeries(spec.Name, spec.Name, n, interval, body, w)
}

// CollectStream runs the logging daemon for n intervals and feeds each
// interval straight into a live signature database: every document is
// embedded through the fitted tf-idf model, L2-normalized, and Added to
// db the moment its interval ends. The DB's epoch-view concurrency
// contract makes this safe while other goroutines query db — the
// always-on serving posture (collect once to fit the model, then stream
// forever). Intervals whose counter reads stay unavailable through the
// retry schedule are skipped with a counted warning (CollectorStats)
// instead of killing the run. Returns the number of signatures added.
func (s *System) CollectStream(spec WorkloadSpec, n int, interval time.Duration, model *Model, db *DB, w io.Writer) (int, error) {
	run, err := workload.NewRunner(s.m.Eng, spec, s.seed+101)
	if err != nil {
		return 0, err
	}
	body := func(d time.Duration) error {
		_, err := run.RunInterval(d)
		return err
	}
	return s.m.Col.CollectStream(spec.Name, spec.Name, n, interval, body, model, db, w)
}

// SetIngestBatch makes CollectStream buffer up to n embedded signatures
// and publish them with one AddAll (one epoch-view publication) instead
// of one Add per signature — the amortized live-ingestion path. n <= 1
// restores per-signature publishes.
func (s *System) SetIngestBatch(n int) { s.m.Col.SetIngestBatch(n) }

// SetRetryPolicy replaces the collector's schedule for transient
// debugfs read failures: each failed read retries Retries more times
// behind jittered exponential backoff, and an interval still
// unavailable after that is skipped with a counted warning rather than
// aborting the collection. Retries <= 0 restores fail-fast reads.
func (s *System) SetRetryPolicy(p RetryPolicy) { s.m.Col.SetRetryPolicy(p) }

// SetCollectorWarnf installs the sink for the collector's counted
// warnings (retries, skipped intervals); a daemon typically passes
// log.Printf. nil silences them.
func (s *System) SetCollectorWarnf(fn func(format string, args ...any)) { s.m.Col.SetWarnf(fn) }

// CollectorStats returns the collector's degradation counters so far.
func (s *System) CollectorStats() CollectorStats { return s.m.Col.Stats() }

// Workload constructors (§4's evaluation workloads).

// ScpWorkload is the secure-copy workload.
func ScpWorkload() WorkloadSpec { return workload.Scp(daemon.NumCPU) }

// KcompileWorkload is the kernel-compile workload.
func KcompileWorkload() WorkloadSpec { return workload.Kcompile(daemon.NumCPU) }

// DbenchWorkload is the disk-benchmark workload.
func DbenchWorkload() WorkloadSpec { return workload.Dbench(daemon.NumCPU) }

// ApachebenchWorkload is the HTTP macro-benchmark workload.
func ApachebenchWorkload() WorkloadSpec { return workload.Apachebench(daemon.NumCPU) }

// NetperfWorkload is the TCP-stream receive workload; load a driver
// variant first.
func NetperfWorkload() WorkloadSpec { return driver.NetperfRx(daemon.NumCPU) }

// BootWorkload is the boot phase of Figure 1.
func BootWorkload() WorkloadSpec { return workload.Boot() }

// Signature pipeline helpers.

// NewCorpus creates an empty corpus over dim terms.
func NewCorpus(dim int) (*Corpus, error) { return core.NewCorpus(dim) }

// BuildSignatures builds a corpus from documents, fits the tf-idf model,
// embeds every document, and L2-normalizes the signatures into the unit
// ball (the paper's preprocessing for learning).
func BuildSignatures(docs []*Document, dim int) ([]Signature, *Model, error) {
	return core.BuildSignatures(docs, dim)
}

// NewDB creates an empty labeled signature database. db.SetWorkers
// bounds the lanes a query walks in parallel (and the queries a batch
// fans out); query results are identical at any setting. opts are
// deprecated no-ops.
//
// The database is safe for fully concurrent use: queries load an
// immutable epoch view and run against it without blocking writers,
// while Add/AddAll/Seal/SaveDB serialize among themselves and
// publish atomically. A query that loaded its view before a concurrent
// write returns exactly what a serialized execution against that state
// would — bit-identical, under any interleaving. After db.Close() every
// operation returns a typed *ConfigError; a query already running
// finishes on the view it loaded.
func NewDB(dim int, opts ...Option) (*DB, error) { return core.NewDB(dim) }

// SignatureFromDense wraps a dense weight vector as a signature.
func SignatureFromDense(docID, label string, v Vector) Signature {
	return core.SignatureFromDense(docID, label, v)
}

// NewServer builds the HTTP/JSON serving layer over db: POST /v1/topk,
// /v1/classify, /v1/ingest plus GET /healthz and /metrics. A query
// request is one db.Query call on its own goroutine, on one view and
// under the request's context (responses are bit-identical to
// per-query TopKSparse/ClassifySparse), once it has passed the
// admission gate: at most cfg.MaxQueue requests admitted, at most
// GOMAXPROCS of them running, 429 + Retry-After past that. Periodic
// incremental snapshots run when cfg.SnapshotDir is set, and Shutdown
// lets every admitted request finish before closing the DB. model may
// be nil for query-only deployments (ingest then answers 503). Serve
// srv.HTTPServer() (srv.Handler() with read and idle timeouts set) or
// mount srv.Handler() yourself; the server owns db from here on —
// Shutdown closes it.
func NewServer(db *DB, model *Model, cfg ServeConfig) (*Server, error) {
	return serve.New(db, model, cfg)
}

// SaveDB persists a signature database at path as a snapshot directory,
// the one on-disk form: a manifest plus CRC-checked files that each
// hold a row range of one segment — a full segment as one file, the
// last, growing segment as one file per save that grew it. Each file is
// new and written atomically (temp + fsync + rename); back into the
// directory it last saved to or was opened from, SaveDB writes only the
// rows no file there holds yet, so a long-lived operator database saves
// in O(new data), and a crash mid-save never corrupts the previous
// snapshot.
//
// SaveDB runs safely while other goroutines query or ingest: it
// persists the committed state at the moment it acquires the writer
// lock. Queries read the heap, never the files, so the replaced files
// are removed before SaveDB returns.
func SaveDB(path string, db *DB) error { return db.SaveDir(path) }

// OpenDB loads a database saved by SaveDB. path must be a snapshot
// directory; anything else, and any corrupt, missing, or retired-format
// file inside it, fails with a typed *SnapshotError naming the path.
// The rows are cut into segments as Add cuts them, however the files
// hold them, and the next SaveDB into path keeps the files that still
// fit its layout.
// opts are deprecated no-ops, as in NewDB. A snapshot whose
// manifest names more than one shard — written before a database became
// one row sequence — is refused; rewrite it with a build that still
// reads it (OpenDB, NewDB with WithShards(1), AddAll(old.All()),
// SaveDB).
func OpenDB(path string, opts ...Option) (*DB, error) {
	if fi, err := os.Stat(path); err != nil {
		return nil, &SnapshotError{Path: path, Err: err}
	} else if !fi.IsDir() {
		return nil, &SnapshotError{Path: path, Err: errors.New("not a snapshot directory (a database is stored as a directory: MANIFEST.json plus segment files)")}
	}
	return core.LoadDir(path)
}

// CosineMetric is the cosine similarity of §2.1.
func CosineMetric() Metric { return core.CosineMetric() }

// EuclideanMetric is the paper's default L2-induced distance.
func EuclideanMetric() Metric { return core.EuclideanMetric() }

// WriteDocuments / ReadDocuments persist interval documents as JSON Lines.
func WriteDocuments(w io.Writer, docs []*Document) error { return core.WriteDocuments(w, docs) }

// ReadDocuments parses a JSON Lines document stream.
func ReadDocuments(r io.Reader) ([]*Document, error) { return core.ReadDocuments(r) }

// WriteModel / ReadModel persist a fitted tf-idf model so later
// collections embed into the same vector space (§2.2's database
// workflow).
func WriteModel(w io.Writer, m *Model) error { return core.WriteModel(w, m) }

// ReadModel parses a model written by WriteModel.
func ReadModel(r io.Reader) (*Model, error) { return core.ReadModel(r) }

// TermWeight is one kernel function's contribution to a signature.
type TermWeight = core.TermWeight

// Contrast returns the k kernel functions that most distinguish signature
// a from signature b (positive weight = stronger in a).
func Contrast(a, b Signature, k int, names []string) ([]TermWeight, error) {
	return core.Contrast(a, b, k, names)
}

// Learning helpers over labeled signatures.

// Classifier wraps a trained binary SVM together with its positive label.
type Classifier struct {
	model    *svm.Model
	PosLabel string
}

// TrainClassifier fits a soft-margin SVM (polynomial kernel, the paper's
// default) that separates signatures labeled posLabel (+1) from all
// others (-1), on every host CPU (the model is identical at any worker
// count).
func TrainClassifier(sigs []Signature, posLabel string, c float64, seed int64) (*Classifier, error) {
	if len(sigs) == 0 {
		return nil, fmt.Errorf("fmeter: no signatures")
	}
	x := make([]*Sparse, len(sigs))
	y := make([]float64, len(sigs))
	for i, s := range sigs {
		x[i] = s.W
		if s.Label == posLabel {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	m, err := svm.Train(x, y, svm.Config{C: c, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Classifier{model: m, PosLabel: posLabel}, nil
}

// Matches reports whether the signature is classified as PosLabel, along
// with the decision score.
func (c *Classifier) Matches(sig Signature) (bool, float64) {
	score := c.model.Decision(sig.W)
	return score >= 0, score
}

// ClusterResult is a K-means clustering of signatures.
type ClusterResult struct {
	// Assign maps signature index to cluster.
	Assign []int
	// Centroids are the cluster syndromes (§2.2).
	Centroids []Vector
	// Purity is the clustering purity against the signature labels.
	Purity float64
}

// ClusterSignatures K-means-clusters signatures into k groups and scores
// purity against their labels.
func ClusterSignatures(sigs []Signature, k int, seed int64) (*ClusterResult, error) {
	if len(sigs) == 0 {
		return nil, fmt.Errorf("fmeter: no signatures")
	}
	labels := make([]string, len(sigs))
	pts := make([]*Sparse, len(sigs))
	for i, s := range sigs {
		labels[i] = s.Label
		pts[i] = s.W
	}
	res, err := cluster.KMeans(pts, cluster.KMeansConfig{K: k, Seed: seed})
	if err != nil {
		return nil, err
	}
	purity, err := metrics.Purity(res.Assign, labels)
	if err != nil {
		return nil, err
	}
	return &ClusterResult{Assign: res.Assign, Centroids: res.Centroids, Purity: purity}, nil
}

// MetaClusterCentroids clusters cluster centroids (§2.2/§6's recursive
// clustering for, e.g., cache-aware co-scheduling).
func MetaClusterCentroids(centroids []Vector, k int, seed int64) ([]int, error) {
	res, err := cluster.MetaCluster(centroids, cluster.KMeansConfig{K: k, Seed: seed})
	if err != nil {
		return nil, err
	}
	return res.Assign, nil
}
