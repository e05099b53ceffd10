package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Fig4Result is the hierarchical clustering demonstration of Figure 4:
// a single-linkage dendrogram over 20 randomly chosen signatures, 10 from
// scp (indices 0-9) and 10 from kcompile (indices 10-19). Because the
// sample is random (the paper shows one draw), the experiment repeats the
// draw and reports how often the ideal outcome appears; the rendered
// dendrogram is the first perfect draw (or the last draw if none).
type Fig4Result struct {
	// Dendrogram is the agglomeration tree of the rendered draw.
	Dendrogram *cluster.Dendrogram
	// PerfectRootSplit reports whether the rendered draw's two subtrees
	// under the root partition the classes exactly — "the ideal scenario
	// for two distinct classes".
	PerfectRootSplit bool
	// Labels maps leaf index to class label for the rendered draw.
	Labels []string
	// Attempts and PerfectCount summarize the repeated draws.
	Attempts     int
	PerfectCount int
}

// Fig4Attempts is how many random 10+10 draws RunFig4 performs.
const Fig4Attempts = 10

// fig4Once samples 10 signatures per class and clusters them once.
func fig4Once(set *SignatureSet, classA, classB string, rng *rand.Rand) (*cluster.Dendrogram, []string, bool, error) {
	const perClass = 10
	var sample []core.Signature
	var labels []string
	for _, cls := range []string{classA, classB} {
		sigs := set.ByLabel[cls]
		if len(sigs) < perClass {
			return nil, nil, false, fmt.Errorf("experiments: class %q has %d signatures, need %d", cls, len(sigs), perClass)
		}
		idx, err := stats.SampleWithoutReplacement(rng, len(sigs), perClass)
		if err != nil {
			return nil, nil, false, err
		}
		for _, i := range idx {
			sample = append(sample, sigs[i])
			labels = append(labels, cls)
		}
	}
	compactPts := Vectors(CompactDims(sample))
	root, err := cluster.Hierarchical(compactPts, cluster.SingleLinkage)
	if err != nil {
		return nil, nil, false, err
	}
	perfect := false
	if !root.IsLeaf() {
		left := root.Left.Leaves()
		aCount := 0
		for _, l := range left {
			if l < perClass {
				aCount++
			}
		}
		perfect = aCount == 0 || aCount == len(left)
	}
	return root, labels, perfect, nil
}

// RunFig4 repeats the Figure 4 draw Fig4Attempts times.
func RunFig4(set *SignatureSet, classA, classB string, seed int64) (*Fig4Result, error) {
	rng := rand.New(rand.NewSource(seed))
	res := &Fig4Result{Attempts: Fig4Attempts}
	for i := 0; i < Fig4Attempts; i++ {
		root, labels, perfect, err := fig4Once(set, classA, classB, rng)
		if err != nil {
			return nil, err
		}
		if perfect {
			res.PerfectCount++
		}
		// Render the first perfect draw; fall back to the last draw.
		if (perfect && !res.PerfectRootSplit) || res.Dendrogram == nil {
			res.Dendrogram = root
			res.Labels = labels
			res.PerfectRootSplit = perfect
		}
	}
	return res, nil
}

// Render prints the nested-parenthesis dendrogram of Figure 4.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4: hierarchical single-linkage clustering of 20 signatures\n")
	b.WriteString("leaves 0-9: first class, 10-19: second class\n")
	fmt.Fprintf(&b, "%s\n", r.Dendrogram)
	fmt.Fprintf(&b, "perfect separation below root: %v (%d/%d random draws perfect)\n",
		r.PerfectRootSplit, r.PerfectCount, r.Attempts)
	return b.String()
}

// ClusterParams sizes the K-means experiments.
type ClusterParams struct {
	// Runs is the number of resampled repetitions averaged per point
	// (the paper uses 12, error bars SEM).
	Runs int
	// SampleSizes are the per-class sample counts (Figure 5 x-axis;
	// Figure 6 series).
	SampleSizes []int
	// Ks is the target-cluster sweep of Figure 6.
	Ks []int
	// Restarts/MaxIter bound each K-means invocation.
	Restarts int
	MaxIter  int
	Seed     int64
	// Workers bounds the fan-out across the resampled repetitions (0 =
	// one per CPU, <0 = sequential). Each (series, sample-size, run)
	// cell derives its own seed, so the figures are bit-identical at any
	// worker count.
	Workers int
}

// DefaultFig5Params matches the paper's Figure 5 axes.
func DefaultFig5Params() ClusterParams {
	return ClusterParams{
		Runs:        12,
		SampleSizes: []int{20, 60, 100, 140, 180, 220},
		Restarts:    4,
		MaxIter:     60,
		Seed:        1,
	}
}

// DefaultFig6Params matches the paper's Figure 6 axes.
func DefaultFig6Params() ClusterParams {
	p := ClusterParams{
		Runs:        8,
		SampleSizes: []int{60, 140, 220},
		Restarts:    2,
		MaxIter:     40,
		Seed:        1,
	}
	for k := 2; k <= 20; k++ {
		p.Ks = append(p.Ks, k)
	}
	return p
}

// PurityPoint is one (x, purity) point with its uncertainty.
type PurityPoint struct {
	X      int // per-class sample count (Fig 5) or target K (Fig 6)
	Purity float64
	SEM    float64
}

// Fig5Series is the purity curve of one workload permutation.
type Fig5Series struct {
	Classes []string
	K       int
	Points  []PurityPoint
}

// Fig5Result holds all four permutations of Figure 5.
type Fig5Result struct {
	Series []Fig5Series
}

// purityOfSample draws n signatures per class, clusters with K-means into
// k clusters, and returns the purity. The seed fully determines the draw
// and the clustering, so one repetition is a pure function of its cell
// coordinates — the property the parallel sweeps rely on.
func purityOfSample(set *SignatureSet, classes []string, n, k int, cfg ClusterParams, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	var sigs []core.Signature
	for _, cls := range classes {
		pool := set.ByLabel[cls]
		if len(pool) < n {
			return 0, fmt.Errorf("experiments: class %q has %d signatures, need %d", cls, len(pool), n)
		}
		idx, err := stats.SampleWithoutReplacement(rng, len(pool), n)
		if err != nil {
			return 0, err
		}
		for _, i := range idx {
			sigs = append(sigs, pool[i])
		}
	}
	compact := CompactDims(sigs)
	kcfg := cluster.KMeansConfig{
		K: k, Restarts: cfg.Restarts, MaxIter: cfg.MaxIter, Seed: rng.Int63(),
		Workers: -1,
	}
	res, err := cluster.KMeans(SparseVecs(compact), kcfg)
	if err != nil {
		return 0, err
	}
	return metrics.Purity(res.Assign, LabelsOf(compact))
}

// RunFig5 regenerates Figure 5: K-means purity as a function of the
// number of sampled vectors per class, for all four permutations of the
// three workloads (K set to the true class count). Every (permutation,
// sample-size, run) cell derives its own seed from its coordinates, so
// the full sweep flattens into one deterministic fan-out; means and SEMs
// reduce over runs in run order.
func RunFig5(set *SignatureSet, p ClusterParams) (*Fig5Result, error) {
	perms := [][]string{
		{"scp", "kcompile", "dbench"},
		{"scp", "kcompile"},
		{"scp", "dbench"},
		{"kcompile", "dbench"},
	}
	cells := len(perms) * len(p.SampleSizes) * p.Runs
	purities, err := parallel.Map(p.Workers, cells, func(t int) (float64, error) {
		run := t % p.Runs
		ni := (t / p.Runs) % len(p.SampleSizes)
		si := t / (p.Runs * len(p.SampleSizes))
		classes := perms[si]
		seed := parallel.SplitSeed(p.Seed, 5, int64(si), int64(ni), int64(run))
		return purityOfSample(set, classes, p.SampleSizes[ni], len(classes), p, seed)
	})
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{}
	for si, classes := range perms {
		series := Fig5Series{Classes: classes, K: len(classes)}
		for ni, n := range p.SampleSizes {
			lo := (si*len(p.SampleSizes) + ni) * p.Runs
			ps := purities[lo : lo+p.Runs]
			series.Points = append(series.Points, PurityPoint{
				X: n, Purity: stats.Mean(ps), SEM: stats.SEM(ps),
			})
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Render prints the purity curves.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5: K-means cluster purity vs #sampled vectors per class (mean±SEM)\n")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%s (K=%d):\n", strings.Join(s.Classes, ", "), s.K)
		for _, pt := range s.Points {
			fmt.Fprintf(&b, "  n=%-4d purity=%.4f±%.4f\n", pt.X, pt.Purity, pt.SEM)
		}
	}
	return b.String()
}

// Fig6Series is the purity-vs-K curve for one sample size.
type Fig6Series struct {
	SampleSize int
	Points     []PurityPoint
}

// Fig6Result holds Figure 6: purity against the number of target clusters
// for scp and dbench signatures (2 actual classes).
type Fig6Result struct {
	Series []Fig6Series
}

// RunFig6 regenerates Figure 6: purity converges to 1.0 as K grows past
// the true class count, because a few extra clusters absorb the
// borderline signatures.
func RunFig6(set *SignatureSet, p ClusterParams) (*Fig6Result, error) {
	classes := []string{"scp", "dbench"}
	if len(p.Ks) == 0 {
		return nil, fmt.Errorf("experiments: Fig 6 needs a K sweep")
	}
	cells := len(p.SampleSizes) * len(p.Ks) * p.Runs
	purities, err := parallel.Map(p.Workers, cells, func(t int) (float64, error) {
		run := t % p.Runs
		ki := (t / p.Runs) % len(p.Ks)
		ni := t / (p.Runs * len(p.Ks))
		seed := parallel.SplitSeed(p.Seed, 6, int64(ni), int64(ki), int64(run))
		return purityOfSample(set, classes, p.SampleSizes[ni], p.Ks[ki], p, seed)
	})
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{}
	for ni, n := range p.SampleSizes {
		series := Fig6Series{SampleSize: n}
		for ki, k := range p.Ks {
			lo := (ni*len(p.Ks) + ki) * p.Runs
			ps := purities[lo : lo+p.Runs]
			series.Points = append(series.Points, PurityPoint{
				X: k, Purity: stats.Mean(ps), SEM: stats.SEM(ps),
			})
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Render prints the purity-vs-K curves.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6: K-means purity vs target clusters K (scp+dbench, 2 true classes)\n")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%d sampled vectors per class:\n", s.SampleSize)
		for _, pt := range s.Points {
			fmt.Fprintf(&b, "  K=%-3d purity=%.4f±%.4f\n", pt.X, pt.Purity, pt.SEM)
		}
	}
	return b.String()
}
