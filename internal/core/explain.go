package core

import (
	"fmt"
	"sort"
)

// TermWeight is one term's contribution to a signature, resolved to a
// human-readable function name when a name table is supplied.
type TermWeight struct {
	// Term is the function index (the dimension).
	Term int
	// Name is the function name, when known.
	Name string
	// Weight is the tf-idf weight (or weight difference, for Contrast).
	Weight float64
}

// Contrast returns the k terms that most distinguish signature a from
// signature b, ranked by |a_i - b_i| descending with the signed
// difference preserved (positive = stronger in a). It is the similarity
// search's inverse: given two behaviours, which kernel functions separate
// them. Only the union of the two supports can differ, so the walk is
// O(nnz_a + nnz_b). Validation failures are typed *ConfigError.
//
//fmeter:errdomain config
func Contrast(a, b Signature, k int, names []string) ([]TermWeight, error) {
	if a.W == nil || b.W == nil {
		return nil, &ConfigError{Param: "signature", Msg: "contrast signature has no weight vector"}
	}
	if a.Dim() != b.Dim() {
		return nil, &ConfigError{Param: "signature", Msg: fmt.Sprintf("contrast dimensions differ: %d vs %d", a.Dim(), b.Dim())}
	}
	if k < 1 {
		return nil, &ConfigError{Param: "k", Value: k, Min: 1}
	}
	if names != nil && len(names) < a.Dim() {
		return nil, &ConfigError{Param: "names", Msg: fmt.Sprintf("name table has %d entries for dimension %d", len(names), a.Dim())}
	}
	terms := make([]TermWeight, 0, a.W.NNZ()+b.W.NNZ())
	a.W.ForEachUnion(b.W, func(i int, wa, wb float64) {
		d := wa - wb
		if d == 0 {
			return
		}
		tw := TermWeight{Term: i, Weight: d}
		if names != nil {
			tw.Name = names[i]
		}
		terms = append(terms, tw)
	})
	sortTerms(terms)
	if k > len(terms) {
		k = len(terms)
	}
	return terms[:k], nil
}

// sortTerms orders by |weight| descending, then term index ascending — a
// total order, so the result is deterministic regardless of how the
// candidates were gathered.
func sortTerms(terms []TermWeight) {
	sort.Slice(terms, func(a, b int) bool {
		wa, wb := abs(terms[a].Weight), abs(terms[b].Weight)
		if wa != wb {
			return wa > wb
		}
		return terms[a].Term < terms[b].Term
	})
}

// abs avoids importing math for a single operation in a hot comparator.
func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// PruneStats are one query's threshold-pruning counters — the
// operator-facing "what did pruning actually buy" view (see prune.go),
// summed over the query's lanes.
type PruneStats struct {
	// Segments is the number of walk units the indexed walk visited —
	// each posting run of a segment (a full segment's is one) and an
	// active segment's unindexed tail each count once per lane that
	// holds rows in it, so it can exceed DB.Segments(), which counts
	// persisted segments only.
	// SegmentsPruned of them took the threshold-pruned walk and
	// SegmentsScanned the dense scan — every row scored with the gather
	// dot: an unindexed tail, or an indexed unit the query's posting
	// lists cover so much of that walking them would cost more. The rest
	// took the plain posting walk.
	Segments        int64 `json:"segments"`
	SegmentsPruned  int64 `json:"segments_pruned"`
	SegmentsScanned int64 `json:"segments_scanned"`
	// Candidates counts the signatures covered by pruned walks (each
	// lane's walk covers its own rows of the unit);
	// CandidatesScored of them survived the block-bound filter and had
	// their gather dot computed. The filter works from bounds alone, so
	// it passes more candidates than a partial-dot filter would, and the
	// share may rise while latency falls: a survivor costs one gather
	// dot, the walk that would have excluded it many gathered postings.
	Candidates       int64 `json:"candidates"`
	CandidatesScored int64 `json:"candidates_scored"`
	// DimsConsidered counts (segment, query-dim) pairs with postings;
	// DimsSkipped of them fell past the essential cutoff and were never
	// accumulated.
	DimsConsidered int64 `json:"dims_considered"`
	DimsSkipped    int64 `json:"dims_skipped"`
	// BlocksConsidered counts the posting blocks under the considered
	// dims; BlocksSkipped of them were never decoded (skipped dims'
	// blocks, all-zero blocks, and block-max skips).
	BlocksConsidered int64 `json:"blocks_considered"`
	BlocksSkipped    int64 `json:"blocks_skipped"`
}

// Add accumulates s into p: the per-lane to per-query reduction, and
// the serving layer's sampled sum.
func (p *PruneStats) Add(s *PruneStats) {
	p.Segments += s.Segments
	p.SegmentsPruned += s.SegmentsPruned
	p.SegmentsScanned += s.SegmentsScanned
	p.Candidates += s.Candidates
	p.CandidatesScored += s.CandidatesScored
	p.DimsConsidered += s.DimsConsidered
	p.DimsSkipped += s.DimsSkipped
	p.BlocksConsidered += s.BlocksConsidered
	p.BlocksSkipped += s.BlocksSkipped
}
