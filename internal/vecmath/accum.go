package vecmath

// Accumulator is the score-accumulation scratch of inverted-index
// retrieval: a dense per-candidate sum array, bulk-cleared between
// queries. A walk unit holds at most one segment of candidates (8192
// rows), so the clear is at most 64 KiB — cheaper than any per-posting
// bookkeeping that would spare it. Untouched candidates read as an
// exact zero.
//
// The kernel contract that makes indexed retrieval bit-identical to a
// merge-walk Dot: callers feed posting lists in ascending dimension
// order, so each candidate's partial sums accumulate over its support
// intersection in ascending index order — exactly the order Sparse.Dot
// visits the same terms. (The one exception is an exact -0.0 product,
// which the cleared 0 turns into +0.0; distances and similarities
// compare equal either way.)
//
// An Accumulator is not safe for concurrent use; each worker owns one.
type Accumulator struct {
	acc []float64
}

// Reset prepares the accumulator for n candidates, every sum zero.
func (a *Accumulator) Reset(n int) {
	if cap(a.acc) < n {
		a.acc = make([]float64, n)
		return
	}
	a.acc = a.acc[:n]
	clear(a.acc)
}

// Sums exposes the sum array: fused posting kernels add into it
// directly.
func (a *Accumulator) Sums() []float64 { return a.acc }

// Add accumulates x into candidate id — the fused single-posting kernel
// for callers that decode postings on the fly.
func (a *Accumulator) Add(id int32, x float64) { a.acc[id] += x }

// ScatterMulAdd accumulates q*ws[k] into candidate ids[k] for every
// posting — acc[ids[k]] += q*ws[k]. This is the posting-list kernel:
// one call per query dimension, with ids the candidates whose support
// contains that dimension and ws their stored weights there.
func (a *Accumulator) ScatterMulAdd(q float64, ids []int32, ws []float64) {
	if len(ids) != len(ws) {
		panic("vecmath: posting id/weight lengths differ")
	}
	acc := a.acc
	for k, id := range ids {
		acc[id] += q * ws[k]
	}
}

// Get returns candidate id's accumulated sum, an exact zero when the
// candidate was not touched since the last Reset.
func (a *Accumulator) Get(id int) float64 { return a.acc[id] }
