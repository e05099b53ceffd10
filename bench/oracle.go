package main

import (
	"math"
	"sort"

	"repro/internal/core"
)

// The oracle answers the benchmark's queries by brute force over the
// signatures the harness put into the store, with its own merge dot
// product and its own ranking. It calls nothing in core's query path, so
// a wrong answer from the store cannot also be the oracle's.

type oracleHit struct {
	docID, label string
	score        float64
}

// oracleDot is the sparse dot product by merging the sorted supports.
func oracleDot(ai []int32, av []float64, bi []int32, bv []float64) float64 {
	var dot float64
	for i, j := 0, 0; i < len(ai) && j < len(bi); {
		switch {
		case ai[i] < bi[j]:
			i++
		case ai[i] > bi[j]:
			j++
		default:
			dot += av[i] * bv[j]
			i, j = i+1, j+1
		}
	}
	return dot
}

// oracleScores scores every stored signature against q under both
// metrics: cosine similarity and euclidean distance.
func oracleScores(sigs []core.Signature, q core.Signature) (cosine, euclid []float64) {
	qi, qv := q.W.Support(), q.W.Values()
	qn := oracleDot(qi, qv, qi, qv)
	cosine, euclid = make([]float64, len(sigs)), make([]float64, len(sigs))
	for n, s := range sigs {
		si, sv := s.W.Support(), s.W.Values()
		dot, sn := oracleDot(qi, qv, si, sv), oracleDot(si, sv, si, sv)
		euclid[n] = math.Sqrt(math.Max(0, qn-2*dot+sn))
		if qn > 0 && sn > 0 {
			cosine[n] = dot / (math.Sqrt(qn) * math.Sqrt(sn))
		}
	}
	return cosine, euclid
}

// oracleRank returns the k best of scores, nearest first: highest when
// higherIsCloser, else lowest; insertion order breaks ties.
func oracleRank(sigs []core.Signature, scores []float64, k int, higherIsCloser bool) []oracleHit {
	before := func(a, b int) bool { // a ranks ahead of b; a was inserted after b
		if higherIsCloser {
			return scores[a] > scores[b]
		}
		return scores[a] < scores[b]
	}
	var top []int // the best so far, nearest first
	for n := range scores {
		if len(top) == k && !before(n, top[k-1]) {
			continue
		}
		at := sort.Search(len(top), func(i int) bool { return before(n, top[i]) })
		if len(top) < k {
			top = append(top, 0)
		}
		copy(top[at+1:], top[at:])
		top[at] = n
	}
	hits := make([]oracleHit, len(top))
	for i, n := range top {
		hits[i] = oracleHit{docID: sigs[n].DocID, label: sigs[n].Label, score: scores[n]}
	}
	return hits
}

// oracleVote is the majority label of hits, the nearest hit's label
// winning a tied vote.
func oracleVote(hits []oracleHit) string {
	votes := make(map[string]int)
	for _, h := range hits {
		votes[h.label]++
	}
	best, bestN := "", 0
	for _, h := range hits {
		if votes[h.label] > bestN {
			best, bestN = h.label, votes[h.label]
		}
	}
	return best
}

// scoreTolerance is how far a served score may sit from the oracle's:
// the store sums the same products in another order.
const scoreTolerance = 1e-9

// matchTopK reports how many of the oracle's doc ids the served answer
// holds, and whether the answer matches: same ids, scores within
// tolerance.
func matchTopK(want []oracleHit, gotIDs []string, gotScores []float64) (present int, ok bool) {
	got := make(map[string]float64, len(gotIDs))
	for i, id := range gotIDs {
		got[id] = gotScores[i]
	}
	ok = len(gotIDs) == len(want)
	for _, h := range want {
		s, found := got[h.docID]
		if found {
			present++
		}
		if !found || math.Abs(s-h.score) > scoreTolerance {
			ok = false
		}
	}
	return present, ok
}
