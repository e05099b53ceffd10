package vecmath

// Accumulator is the score-accumulation scratch of inverted-index
// retrieval: a dense per-candidate sum array, reset between queries
// either by a bulk clear (small candidate counts — segments are capped
// at the segment size, so this is the common mode) or by epoch-stamped
// lazy clearing (large counts, where an O(n) clear would dominate a
// sparse walk). Untouched candidates read as an exact zero in both
// modes.
//
// The kernel contract that makes indexed retrieval bit-identical to a
// merge-walk Dot: callers feed posting lists in ascending dimension
// order, so each candidate's partial sums accumulate over its support
// intersection in ascending index order — exactly the order Sparse.Dot
// visits the same terms. (The two reset modes agree to the bit for
// every product except an exact -0.0, where the cleared mode's 0 + -0.0
// yields +0.0; distances and similarities compare equal either way.)
//
// An Accumulator is not safe for concurrent use; each worker owns one.
type Accumulator struct {
	acc   []float64
	stamp []uint32
	epoch uint32
	dense bool
}

// denseResetMax bounds the bulk-clear mode: up to this many candidates
// the reset is a memclr (at most 64 KiB, cheaper than per-posting stamp
// maintenance for any non-trivial walk). The store's seal threshold
// (8192 rows) keeps every segment a Compact did not merge at or below it.
const denseResetMax = 8192

// Reset prepares the accumulator for n candidates. Small counts clear
// the sums outright; larger ones switch to epoch stamping, where only
// the epoch advances and clearing work happens when the arrays grow or
// the 32-bit epoch wraps.
func (a *Accumulator) Reset(n int) {
	if cap(a.acc) < n {
		a.acc = make([]float64, n)
		a.stamp = make([]uint32, n)
		a.epoch = 0
	}
	a.acc = a.acc[:n]
	a.dense = n <= denseResetMax
	if a.dense {
		clear(a.acc)
		return
	}
	a.stamp = a.stamp[:n]
	a.epoch++
	if a.epoch == 0 {
		// The epoch wrapped: stale stamps from 2^32 queries ago could
		// alias the fresh epoch, so clear them all once — the full
		// capacity, not just [:n], or a later regrowth within capacity
		// would re-expose pre-wrap stamps.
		full := a.stamp[:cap(a.stamp)]
		for i := range full {
			full[i] = 0
		}
		a.epoch = 1
	}
}

// Sums exposes the dense sum array when the accumulator is in
// bulk-clear mode (nil in stamped mode): fused posting kernels add into
// it directly, which is exactly what Add would do without the per-call
// mode dispatch.
func (a *Accumulator) Sums() []float64 {
	if a.dense {
		return a.acc
	}
	return nil
}

// Add accumulates x into candidate id — the fused single-posting kernel
// for callers that decode postings on the fly.
func (a *Accumulator) Add(id int32, x float64) {
	if a.dense {
		a.acc[id] += x
		return
	}
	if a.stamp[id] != a.epoch {
		a.stamp[id] = a.epoch
		a.acc[id] = x
	} else {
		a.acc[id] += x
	}
}

// ScatterMulAdd accumulates q*ws[k] into candidate ids[k] for every
// posting — acc[ids[k]] += q*ws[k]. This is the posting-list kernel:
// one call per query dimension, with ids the candidates whose support
// contains that dimension and ws their stored weights there.
func (a *Accumulator) ScatterMulAdd(q float64, ids []int32, ws []float64) {
	if len(ids) != len(ws) {
		panic("vecmath: posting id/weight lengths differ")
	}
	if a.dense {
		acc := a.acc
		for k, id := range ids {
			acc[id] += q * ws[k]
		}
		return
	}
	for k, id := range ids {
		if a.stamp[id] != a.epoch {
			a.stamp[id] = a.epoch
			a.acc[id] = q * ws[k]
		} else {
			a.acc[id] += q * ws[k]
		}
	}
}

// Get returns candidate id's accumulated sum, an exact zero when the
// candidate was not touched since the last Reset.
func (a *Accumulator) Get(id int) float64 {
	if a.dense {
		return a.acc[id]
	}
	if a.stamp[id] != a.epoch {
		return 0
	}
	return a.acc[id]
}

// Len returns the candidate count of the last Reset.
func (a *Accumulator) Len() int { return len(a.acc) }
