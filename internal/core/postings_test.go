package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/vecmath"
)

// buildFlatAndCompressed indexes sigs both ways: the flat append-only
// Index oracle and the block-compressed postings encodeBlocks builds
// straight from the rows — which must equal, byte for byte, what the
// retired compressIndex produced from the flat index (the on-disk
// format is the blob and the descriptors, so this is what keeps segment
// files unchanged).
func buildFlatAndCompressed(t *testing.T, sigs []Signature, dim int) (*Index, *blockPostings) {
	t.Helper()
	ix, err := NewIndex(dim)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sigs {
		ix.Add(s.W)
	}
	bp := encodeBlocks(dim, sigs)
	samePostings(t, "encodeBlocks vs compressIndex", bp, compressIndex(ix, sigs))
	return ix, bp
}

// unitDots runs dots over a whole unit with no seeds, in the stamp epoch
// it lists first touches under, and returns the rows it touched.
func unitDots(bp *blockPostings, q *vecmath.Sparse, acc *vecmath.Accumulator) []int32 {
	var ps pruneScratch
	ps.beginStamps(0, bp.n, nil, 0, 1)
	bp.dots(q, acc, &ps)
	return ps.touched
}

// overlaps reports whether a and b share a support dim.
func overlaps(a, b *vecmath.Sparse) bool {
	for _, d := range a.Support() {
		if _, ok := slices.BinarySearch(b.Support(), d); ok {
			return true
		}
	}
	return false
}

// samePostings asserts two blockPostings are the same encoding: equal
// counts, directory, descriptors (offsets and bounds included), blob
// bytes, and pruning bounds.
func samePostings(t *testing.T, tag string, got, want *blockPostings) {
	t.Helper()
	if got.dim != want.dim || got.n != want.n || got.nPostings != want.nPostings {
		t.Fatalf("%s: dim/n/postings %d/%d/%d, want %d/%d/%d", tag, got.dim, got.n, got.nPostings, want.dim, want.n, want.nPostings)
	}
	if !slices.Equal(got.dir, want.dir) {
		t.Fatalf("%s: directories differ", tag)
	}
	if !slices.Equal(got.blocks, want.blocks) {
		t.Fatalf("%s: block descriptors differ", tag)
	}
	if !bytes.Equal(got.blob, want.blob) {
		t.Fatalf("%s: blobs differ (%d vs %d bytes)", tag, len(got.blob), len(want.blob))
	}
	if !slices.Equal(got.dimBound, want.dimBound) || got.minNorm2 != want.minNorm2 || got.minPosNorm2 != want.minPosNorm2 {
		t.Fatalf("%s: pruning bounds differ", tag)
	}
}

// TestBlockPostingsMatchesFlat is the kernel-level equivalence the
// compressed layout rests on: for random corpora — including posting
// lists long enough to span several blocks — dots over the compressed
// form must equal dots over the flat form bit-for-bit and list exactly
// the rows that share a dim with the query, and the decoded blocks must
// enumerate exactly the flat posting lists.
func TestBlockPostingsMatchesFlat(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		// Small dimension + many signatures forces multi-block lists
		// (n/dim*nnz ≥ 600/30*8 = 160 postings per dimension > 128).
		dim := 20 + r.Intn(10)
		n := 600 + r.Intn(200)
		nnz := 8 + r.Intn(6)
		sigs := randSigs(r, n, dim, nnz)
		ix, bp := buildFlatAndCompressed(t, sigs, dim)

		if bp.postingCount() != ix.postingCount() {
			t.Fatalf("seed %d: posting counts %d vs %d", seed, bp.postingCount(), ix.postingCount())
		}
		multi := false
		var sc postingScratch
		for d := 0; d < dim; d++ {
			lo, hi := bp.dir[d], bp.dir[d+1]
			if hi-lo > 1 {
				multi = true
			}
			var gotIDs []int32
			var gotWs []float64
			for bi := lo; bi < hi; bi++ {
				ids, ws := bp.decodeBlock(&bp.blocks[bi], &sc)
				gotIDs = append(gotIDs, ids...)
				gotWs = append(gotWs, ws...)
			}
			if len(gotIDs) != len(ix.ids[d]) {
				t.Fatalf("seed %d dim %d: %d decoded postings, flat has %d", seed, d, len(gotIDs), len(ix.ids[d]))
			}
			for k := range gotIDs {
				if gotIDs[k] != ix.ids[d][k] || gotWs[k] != ix.ws[d][k] {
					t.Fatalf("seed %d dim %d posting %d: decoded (%d, %v), flat (%d, %v)",
						seed, d, k, gotIDs[k], gotWs[k], ix.ids[d][k], ix.ws[d][k])
				}
			}
		}
		if !multi {
			t.Fatalf("seed %d: corpus produced no multi-block posting list; shrink dim or raise n", seed)
		}

		var accFlat, accComp vecmath.Accumulator
		for q := 0; q < 10; q++ {
			query := randSigs(r, 1, dim, nnz)[0].W
			ix.Dots(query, &accFlat)
			touched := unitDots(bp, query, &accComp)
			for id := 0; id < n; id++ {
				if accFlat.Get(id) != accComp.Get(id) {
					t.Fatalf("seed %d query %d id %d: flat dot %v, compressed %v",
						seed, q, id, accFlat.Get(id), accComp.Get(id))
				}
			}
			// The touched list is exactly the rows sharing a dim with the
			// query, each once.
			var want []int32
			for id := range sigs {
				if overlaps(sigs[id].W, query) {
					want = append(want, int32(id))
				}
			}
			if got := slices.Sorted(slices.Values(touched)); !slices.Equal(got, want) {
				t.Fatalf("seed %d query %d: touched %v, want %v", seed, q, got, want)
			}
		}

		if flat, comp := ix.memBytes(), bp.memBytes(); comp*2 > flat {
			t.Fatalf("seed %d: compressed postings %d bytes not < half of flat %d", seed, comp, flat)
		}
	}
}

// TestBlockPostingsWideOrdinals exercises the 2-byte ordinal path:
// signatures with supports larger than 256 entries force ordW=2 blocks,
// which must decode and accumulate identically to the flat index.
func TestBlockPostingsWideOrdinals(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const dim, n, nnz = 600, 40, 400 // nnz > 256: ordinals overflow one byte
	sigs := randSigs(r, n, dim, nnz)
	ix, bp := buildFlatAndCompressed(t, sigs, dim)
	wide := false
	for bi := range bp.blocks {
		if bp.blocks[bi].ordW > 1 {
			wide = true
		}
	}
	if !wide {
		t.Fatal("corpus produced no wide-ordinal blocks; raise nnz")
	}
	var accFlat, accComp vecmath.Accumulator
	for q := 0; q < 8; q++ {
		query := randSigs(r, 1, dim, nnz)[0].W
		ix.Dots(query, &accFlat)
		unitDots(bp, query, &accComp)
		for id := 0; id < n; id++ {
			if accFlat.Get(id) != accComp.Get(id) {
				t.Fatalf("query %d id %d: flat dot %v, compressed %v", q, id, accFlat.Get(id), accComp.Get(id))
			}
		}
	}
}

// TestSealCompressesPostings pins the lifecycle plumbing: an active
// segment holds one posting run per completed run length plus an
// unindexed tail, sealing swaps them for one blockPostings over the
// whole range (fewer directories — IndexBytes shrinks — and every row
// indexed), and queries stay bit-identical across the swap.
func TestSealCompressesPostings(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const dim, n, nnz, k, run = 200, 250, 20, 15, 16
	db, err := newTestDB(dim, 3)
	if err != nil {
		t.Fatal(err)
	}
	db.setRunLen(run)
	sigs := randSigs(r, n, dim, nnz)
	if err := db.AddAll(sigs); err != nil {
		t.Fatal(err)
	}
	query := randSigs(r, 1, dim, nnz)[0].W
	want, err := db.TopKSparse(query, k, EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}
	// The last n%run rows are the unindexed tail, and only they are
	// missing from the postings.
	unindexed := n % run
	var tailNNZ int64
	for _, s := range sigs[n-unindexed:] {
		tailNNZ += int64(s.W.NNZ())
	}
	if got := db.ActiveUnindexedRows(); got != unindexed {
		t.Fatalf("ActiveUnindexedRows %d, want %d", got, unindexed)
	}
	if got, want := db.indexPostings(), int64(nPostings(db))-tailNNZ; got != want {
		t.Fatalf("active indexPostings %d, want %d (every row a run covers)", got, want)
	}
	runBytes := db.IndexBytes()
	db.Seal()
	if got := db.ActiveUnindexedRows(); got != 0 {
		t.Fatalf("ActiveUnindexedRows %d after Seal", got)
	}
	if got := db.indexPostings(); got != int64(nPostings(db)) {
		t.Fatalf("postings %d after Seal, want %d", got, nPostings(db))
	}
	if got := db.IndexBytes(); got*2 > runBytes {
		t.Fatalf("sealed IndexBytes %d not < half of the %d the runs took", got, runBytes)
	}
	got, err := db.TopKSparse(query, k, EuclideanMetric())
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "sealed vs runs", got, want)
}

// TestSealEmptyActiveNoOp is the regression test for the empty-seal
// fix: sealing an empty store, or sealing again with no new rows, must
// not mint segments — zero-length ones would pollute the manifest — nor
// re-encode the run the first Seal built.
func TestSealEmptyActiveNoOp(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const dim, nnz = 40, 6
	db, err := newTestDB(dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	db.Seal() // empty DB: no segment to seal
	if got := db.Segments(); got != 0 {
		t.Fatalf("Seal on empty DB created %d segments", got)
	}
	if err := db.AddAll(randSigs(r, 5, dim, nnz)); err != nil {
		t.Fatal(err)
	}
	db.Seal()
	segs := db.Segments()
	// Sealing again (and again) with no new records must change nothing.
	before := encodeCount.Load()
	db.Seal()
	db.Seal()
	if got := db.Segments(); got != segs {
		t.Fatalf("repeated Seal grew segments %d -> %d", segs, got)
	}
	if got := encodeCount.Load() - before; got != 0 {
		t.Fatalf("repeated Seal encoded %d times, want 0", got)
	}
	for i, sg := range db.segs {
		if sg.len() == 0 {
			t.Fatalf("zero-length segment %d", i)
		}
	}
	// And a save/load cycle must not see phantom segments either.
	dir := t.TempDir() + "/db"
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Segments(); got != segs {
		t.Fatalf("reloaded store has %d segments, want %d", got, segs)
	}
}

// TestOrdWidth pins the fixed-width ordinal selection.
func TestOrdWidth(t *testing.T) {
	cases := []struct {
		maxOrd int32
		want   uint8
	}{{0, 1}, {255, 1}, {256, 2}, {65535, 2}, {65536, 4}, {1 << 23, 4}}
	for _, c := range cases {
		if got := ordWidth(c.maxOrd); got != c.want {
			t.Fatalf("ordWidth(%d) = %d, want %d", c.maxOrd, got, c.want)
		}
	}
}

// TestIndexBytesIntrospection sanity-checks the posting accounting: rows
// no run covers yet have no postings and cost no index bytes, a run or a
// whole segment counts every non-zero of the rows it covers, and the
// bytes are at least the blob's.
func TestIndexBytesIntrospection(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	const dim, n, nnz = 100, 120, 10
	db, err := NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll(randSigs(r, n, dim, nnz)); err != nil {
		t.Fatal(err)
	}
	// 120 rows are below the run length: nothing is indexed yet.
	if posts, b, rows := db.indexPostings(), db.IndexBytes(), db.ActiveUnindexedRows(); posts != 0 || b != 0 || rows != n {
		t.Fatalf("unindexed store reports %d postings, %d index bytes, %d unindexed rows; want 0, 0, %d", posts, b, rows, n)
	}
	more := randSigs(r, activeRunLen, dim, nnz)
	if err := db.AddAll(more); err != nil {
		t.Fatal(err)
	}
	var runNNZ int64
	for _, s := range db.All()[:activeRunLen] {
		runNNZ += int64(s.W.NNZ())
	}
	if got := db.indexPostings(); got != runNNZ {
		t.Fatalf("indexPostings %d with one run, want the run's %d non-zeros", got, runNNZ)
	}
	if b := db.IndexBytes(); b < runNNZ {
		t.Fatalf("IndexBytes %d below one byte per posting (%d postings)", b, runNNZ)
	}
	if got := db.ActiveUnindexedRows(); got != n {
		t.Fatalf("ActiveUnindexedRows %d, want %d", got, n)
	}
	db.Seal()
	if comp := db.IndexBytes(); comp <= 0 {
		t.Fatalf("sealed IndexBytes %d", comp)
	}
	if got := db.indexPostings(); got != int64(nPostings(db)) {
		t.Fatalf("sealed indexPostings %d, want %d", got, nPostings(db))
	}
}

// nPostings sums the stored supports (what the index must hold).
func nPostings(db *DB) int {
	total := 0
	for _, s := range db.All() {
		total += s.W.NNZ()
	}
	return total
}

// TestCompressedTopKPropertySweep is the postings-PR acceptance sweep:
// across seeds × workers{1,2,3,7} × seal points and a reload,
// TopK, TopKBatch, and ClassifyBatch over stores holding compressed
// (sealed), flat (active), and mixed segments must agree bit-for-bit
// with the never-sealed flat reference.
func TestCompressedTopKPropertySweep(t *testing.T) {
	metrics := []Metric{EuclideanMetric(), CosineMetric()}
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		dim := 80 + r.Intn(80)
		n := 120 + r.Intn(120)
		nnz := 6 + r.Intn(12)
		k := 1 + r.Intn(20)
		sigs := randSigs(r, n, dim, nnz)
		queries := make([]*vecmath.Sparse, 6)
		for i := range queries {
			queries[i] = randSigs(r, 1, dim, nnz)[0].W
		}

		// Reference: sequential, never sealed — pure flat layout.
		ref, err := NewDB(dim)
		if err != nil {
			t.Fatal(err)
		}
		ref.SetWorkers(-1)
		if err := ref.AddAll(sigs); err != nil {
			t.Fatal(err)
		}
		wantTop := make([][]SearchResult, len(queries))
		for i, q := range queries {
			if wantTop[i], err = ref.TopKSparse(q, k, metrics[0]); err != nil {
				t.Fatal(err)
			}
		}
		wantLabels, err := ref.ClassifyBatch(queries, 5, metrics[0])
		if err != nil {
			t.Fatal(err)
		}

		for _, workers := range []int{1, 2, 3, 7} {
			for _, mode := range []string{"sealed", "mixed", "loaded"} {
				db, err := newTestDB(dim, workers)
				if err != nil {
					t.Fatal(err)
				}
				db.setSegmentSize(32)
				for i, s := range sigs {
					if err := db.Add(s); err != nil {
						t.Fatal(err)
					}
					if mode != "mixed" && i%53 == 52 {
						db.Seal()
					}
				}
				switch mode {
				case "sealed":
					db.Seal()
				case "loaded":
					// Seal, snapshot, and reload — bit-identical walk
					// required.
					db.Seal()
					dir := t.TempDir()
					if err := db.SaveDir(dir); err != nil {
						t.Fatal(err)
					}
					if db, err = loadDir(dir, 32); err != nil {
						t.Fatal(err)
					}
					db.SetWorkers(workers)
				}
				tag := fmt.Sprintf("seed=%d workers=%d mode=%s segs=%d",
					seed, workers, mode, db.Segments())
				checkLayout(t, tag, db)
				for _, m := range metrics {
					want, err := ref.TopKSparse(queries[0], k, m)
					if err != nil {
						t.Fatal(err)
					}
					got, err := db.TopKSparse(queries[0], k, m)
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, tag+" "+m.Name, got, want)
				}
				gotBatch, err := db.TopKBatch(queries, k, metrics[0])
				if err != nil {
					t.Fatal(err)
				}
				for i := range queries {
					sameResults(t, fmt.Sprintf("%s batch query %d", tag, i), gotBatch[i], wantTop[i])
				}
				gotLabels, err := db.ClassifyBatch(queries, 5, metrics[0])
				if err != nil {
					t.Fatal(err)
				}
				for i := range wantLabels {
					if gotLabels[i] != wantLabels[i] {
						t.Fatalf("%s: ClassifyBatch[%d] = %q, want %q", tag, i, gotLabels[i], wantLabels[i])
					}
				}
			}
		}
	}
}

// encodeBlocksOracle is encodeBlocks as one sequential pass: a counting
// transposition (count per dimension, prefix-sum, scatter) cut into
// blocks, where — because the sweep ascends dimensions and supports are
// dimension-sorted — a per-row cursor yields each posting's ordinal. It
// is the reference the range-split encoder must match byte for byte.
func encodeBlocksOracle(dim int, rows []Signature) *blockPostings {
	n := len(rows)
	bp := &blockPostings{dim: dim, n: n, vals: make([][]float64, n), dir: make([]int32, dim+1)}
	// pos[d] counts dimension d's postings, then walks from first[d], the
	// start of its slice of ids, to the end as the scatter fills it.
	pos, first := make([]int32, dim), make([]int32, dim)
	for j := range rows {
		bp.vals[j] = rows[j].W.Values()
		for _, d := range rows[j].W.Support() {
			pos[d]++
		}
	}
	total, nBlocks := int32(0), int32(0)
	for d, c := range pos {
		bp.dir[d] = nBlocks
		nBlocks += (c + postingBlockSize - 1) / postingBlockSize
		pos[d], first[d] = total, total
		total += c
	}
	bp.dir[dim] = nBlocks
	bp.nPostings = int64(total)
	bp.blocks = make([]blockDesc, nBlocks)
	// The scatter is the one pass that meets the weights in memory order,
	// so it also folds each block's max |weight|: the posting landing in
	// slot p belongs to its dimension's block (p-first[d])/blockSize.
	ids := make([]int32, total)
	for j := range rows {
		val := bp.vals[j]
		for k, d := range rows[j].W.Support() {
			p := pos[d]
			ids[p] = int32(j)
			pos[d] = p + 1
			bd := &bp.blocks[bp.dir[d]+(p-first[d])/postingBlockSize]
			if a := math.Abs(val[k]); a > bd.maxAbsW {
				bd.maxAbsW = a
			}
		}
	}
	// Streams are written by index into the scratch blob[:w]; a block
	// needs at most blockMax bytes, kept free ahead of w (two bytes per
	// posting is the common case, so the initial size rarely grows). The
	// kept blob is an exact-size copy.
	const blockMax = postingBlockSize * (binary.MaxVarintLen32 + 4)
	blob, w := make([]byte, int(total)*2+blockMax), 0
	cursor := make([]int32, n) // next unconsumed support position per row
	bi, lo := 0, int32(0)
	for d := 0; d < dim; d++ {
		for hi := pos[d]; lo < hi; bi++ {
			c := int(min(hi-lo, postingBlockSize))
			list := ids[lo:][:c]
			lo += int32(c)
			if len(blob)-w < blockMax {
				blob = append(blob, make([]byte, len(blob))...)
			}
			desc := &bp.blocks[bi]
			desc.off, desc.firstID, desc.count = uint32(w), list[0], uint16(c)
			var ords [postingBlockSize]int32
			maxOrd := int32(0)
			for k, id := range list {
				ord := cursor[id]
				cursor[id] = ord + 1
				ords[k] = ord
				if ord > maxOrd {
					maxOrd = ord
				}
			}
			desc.ordW = ordWidth(maxOrd)
			for k := 1; k < c; k++ {
				if g := uint32(list[k]-list[k-1]) - 1; g < 0x80 {
					blob[w] = byte(g)
					w++
				} else {
					w += binary.PutUvarint(blob[w:], uint64(g))
				}
			}
			desc.idLen = uint16(w - int(desc.off))
			for _, ord := range ords[:c] {
				switch desc.ordW {
				case 1:
					blob[w] = byte(ord)
				case 2:
					binary.LittleEndian.PutUint16(blob[w:], uint16(ord))
				default:
					binary.LittleEndian.PutUint32(blob[w:], uint32(ord))
				}
				w += int(desc.ordW)
			}
		}
	}
	bp.blob = append(make([]byte, 0, w), blob[:w]...)
	bp.buildDimBound()
	bp.setNormBounds(rows)
	return bp
}

// TestEncodeBlocksMatchesOracle holds the range-split encoder to the
// sequential one: the same blob (to its capacity), descriptors,
// directory and bounds, on a one-row segment, an encode too small to
// split, a range cut landing on a dimension with no postings, and
// ordinals of 256 and up (two-byte ordinals), at several core counts.
func TestEncodeBlocksMatchesOracle(t *testing.T) {
	procs0 := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs0)
	r := rand.New(rand.NewSource(71))
	// gapped rows hold postings only below dim/4 and above 3·dim/4, so
	// a cut at half the postings lands inside the empty middle.
	gapped := func(n, dim, nnz int) []Signature {
		out := make([]Signature, n)
		for i := range out {
			v := vecmath.NewVector(dim)
			for c := 0; c < nnz; {
				d := r.Intn(dim / 4)
				if c%2 == 1 {
					d += dim - dim/4
				}
				if v[d] == 0 {
					v[d] = r.Float64() - 0.5
					c++
				}
			}
			out[i] = SignatureFromDense(fmt.Sprint(i), "", v)
		}
		return out
	}
	for _, c := range []struct {
		name  string
		dim   int
		rows  []Signature
		split bool
	}{
		{"one-row", 50, randSigs(r, 1, 50, 9), false},
		{"too-small", 300, randSigs(r, 40, 300, 12), false},
		{"empty-dim-cut", 400, gapped(300, 400, 60), true},
		{"wide-ordinals", 600, randSigs(r, 60, 600, 400), true},
		{"peaked", 3815, peakedSigs(r, 3815, 400, 50), true},
	} {
		want := encodeBlocksOracle(c.dim, c.rows)
		if c.split != (want.nPostings >= 2*encodeMinRange) {
			t.Fatalf("%s: %d postings, want a fixture that splits=%v at two cores", c.name, want.nPostings, c.split)
		}
		if c.name == "wide-ordinals" && !slices.ContainsFunc(want.blocks, func(b blockDesc) bool { return b.ordW > 1 }) {
			t.Fatalf("%s: no two-byte ordinals", c.name)
		}
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			got := encodeBlocks(c.dim, c.rows)
			runtime.GOMAXPROCS(procs0)
			tag := fmt.Sprintf("%s procs=%d", c.name, procs)
			samePostings(t, tag, got, want)
			if cap(got.blob) != cap(want.blob) || got.memBytes() != want.memBytes() {
				t.Fatalf("%s: blob capacity %d, want %d", tag, cap(got.blob), cap(want.blob))
			}
		}
	}
}

// postingCount returns the total number of posting entries.
func (bp *blockPostings) postingCount() int64 { return bp.nPostings }
