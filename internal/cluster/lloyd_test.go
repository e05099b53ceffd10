package cluster_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/vecmath"
)

// denseLloyd is the dense K-means the sparse one replaced, kept as the
// reference: the same restarts, seeds and initialization, but every
// distance is the dense subtract-square loop and every centroid sum a
// dense component loop.
func denseLloyd(points []vecmath.Vector, cfg cluster.KMeansConfig) *cluster.KMeansResult {
	if cfg.MaxIter == 0 {
		cfg.MaxIter = 100
	}
	if cfg.Restarts == 0 {
		cfg.Restarts = 8
	}
	var best *cluster.KMeansResult
	for r := 0; r < cfg.Restarts; r++ {
		rng := rand.New(rand.NewSource(parallel.SplitSeed(cfg.Seed, int64(r))))
		if res := denseLloydOnce(points, cfg.K, cfg.MaxIter, rng); best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best
}

func denseLloydOnce(points []vecmath.Vector, k, maxIter int, rng *rand.Rand) *cluster.KMeansResult {
	n, dim := len(points), points[0].Dim()
	perm := rng.Perm(n)
	centroids := make([]vecmath.Vector, k)
	for i := range centroids {
		centroids[i] = points[perm[i]].Clone()
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	var iter int
	for iter = 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			bestC, bestD := 0, math.Inf(1)
			for c := range centroids {
				if d := squaredEuclidean(p, centroids[c]); d < bestD {
					bestC, bestD = c, d
				}
			}
			if assign[i] != bestC {
				assign[i], changed = bestC, true
			}
		}
		if !changed {
			break
		}
		counts := make([]int, k)
		sums := make([]vecmath.Vector, k)
		for c := range sums {
			sums[c] = vecmath.NewVector(dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for j, x := range p {
				sums[c][j] += x
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				centroids[c] = points[rng.Intn(n)].Clone()
				continue
			}
			inv := 1 / float64(counts[c])
			for j := range centroids[c] {
				centroids[c][j] = sums[c][j] * inv
			}
		}
	}
	var inertia float64
	for i, p := range points {
		inertia += squaredEuclidean(p, centroids[assign[i]])
	}
	return &cluster.KMeansResult{Assign: assign, Centroids: centroids, Inertia: inertia, Iterations: iter}
}

// squaredEuclidean is the dense subtract-square loop.
func squaredEuclidean(x, y vecmath.Vector) float64 {
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

// matchDense checks that the sparse K-means reproduces the dense
// reference exactly where the paper's figures can see it — assignments,
// iteration counts and centroid bits — at several worker counts. Inertia
// goes through the norm identity, so it is held to 1e-9 relative.
func matchDense(t *testing.T, name string, dense []vecmath.Vector, cfg cluster.KMeansConfig) {
	t.Helper()
	sp := make([]*vecmath.Sparse, len(dense))
	for i, p := range dense {
		sp[i] = vecmath.DenseToSparse(p)
	}
	want := denseLloyd(dense, cfg)
	for _, workers := range []int{-1, 2, 8} {
		cfg.Workers = workers
		got, err := cluster.KMeans(sp, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Iterations != want.Iterations {
			t.Fatalf("%s workers=%d: %d iterations, dense %d", name, workers, got.Iterations, want.Iterations)
		}
		for i := range want.Assign {
			if got.Assign[i] != want.Assign[i] {
				t.Fatalf("%s workers=%d: point %d in cluster %d, dense %d", name, workers, i, got.Assign[i], want.Assign[i])
			}
		}
		for c := range want.Centroids {
			for j, x := range want.Centroids[c] {
				if math.Float64bits(got.Centroids[c][j]) != math.Float64bits(x) {
					t.Fatalf("%s workers=%d: centroid %d[%d] = %v, dense %v", name, workers, c, j, got.Centroids[c][j], x)
				}
			}
		}
		if math.Abs(got.Inertia-want.Inertia) > 1e-9*(1+want.Inertia) {
			t.Fatalf("%s workers=%d: inertia %v, dense %v", name, workers, got.Inertia, want.Inertia)
		}
	}
}

// TestKMeansMatchesDenseLloyd: the norm-cached sparse assignment and the
// Axpy update reproduce the dense Lloyd loop on separated blobs and on
// the Figure 5 quick corpus — the equality the byte-identical Figure 5/6
// renders rest on.
func TestKMeansMatchesDenseLloyd(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	const dim = 50
	var blobs []vecmath.Vector
	for c := 0; c < 3; c++ {
		center := vecmath.NewVector(dim)
		for j := 0; j < 5; j++ {
			center[r.Intn(dim)] = 5 + float64(c)
		}
		for i := 0; i < 30; i++ {
			p := center.Clone()
			for j := range p {
				if p[j] != 0 {
					p[j] += 0.1 * r.NormFloat64()
				}
			}
			blobs = append(blobs, p)
		}
	}
	matchDense(t, "blobs", blobs, cluster.KMeansConfig{K: 3, Seed: 11, Restarts: 6})

	data, err := experiments.CollectWorkloadData(experiments.MLParams{PerClass: 40, Interval: 10 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, classes := range [][]string{
		{"scp", "kcompile", "dbench"},
		{"scp", "kcompile"},
		{"scp", "dbench"},
		{"kcompile", "dbench"},
	} {
		var sigs []core.Signature
		for _, cls := range classes {
			sigs = append(sigs, data.Set.ByLabel[cls]...)
		}
		pts := experiments.Vectors(experiments.CompactDims(sigs))
		for _, k := range []int{len(classes), 2, 3, 4} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%v K=%d seed=%d", classes, k, seed)
				matchDense(t, name, pts, cluster.KMeansConfig{K: k, Seed: seed, Restarts: 2, MaxIter: 30})
			}
		}
	}
}
