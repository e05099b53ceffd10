package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/vecmath"
)

// checkLoadedStore holds a store that loaded from fuzzed bytes to three
// oracles: it has the one segment layout, its answers are bit-identical
// to bruteTopK over its own All() (an empty store answers ErrEmptyDB),
// and a SaveDir → LoadDir round trip into a fresh directory gives back
// the same signatures and the same answers.
func checkLoadedStore(t *testing.T, db *DB, query *vecmath.Sparse) {
	t.Helper()
	checkLayout(t, "loaded store", db)
	metrics := []Metric{EuclideanMetric(), CosineMetric()}
	all := db.All()
	if len(all) == 0 {
		// Nothing pins an empty store's dimension to the query's.
		query = vecmath.DenseToSparse(vecmath.NewVector(db.Dim()))
	}
	hits := make([][]SearchResult, len(metrics))
	for i, m := range metrics {
		var err error
		hits[i], err = db.TopKSparse(query, 5, m)
		if len(all) == 0 {
			if !errors.Is(err, ErrEmptyDB) {
				t.Fatalf("%s query on an empty loaded DB: %v, want ErrEmptyDB", m.Name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s query on a loaded DB: %v", m.Name, err)
		}
		if want := bruteTopK(all, query, 5, m); !sameHits(hits[i], want) {
			t.Fatalf("%s: loaded store answers %v, the brute-force scan %v", m.Name, hits[i], want)
		}
	}
	dir := t.TempDir()
	if err := db.SaveDir(dir); err != nil {
		t.Fatalf("re-saving a loaded store: %v", err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("reloading a re-saved store: %v", err)
	}
	backAll := back.All()
	if len(backAll) != len(all) || back.Dim() != db.Dim() {
		t.Fatalf("round trip holds %d signatures of dimension %d, want %d of %d", len(backAll), back.Dim(), len(all), db.Dim())
	}
	for i := range all {
		if err := sameSignature(backAll[i], all[i]); err != nil {
			t.Fatalf("round trip signature %d: %v", i, err)
		}
	}
	for i, m := range metrics {
		got, err := back.TopKSparse(query, 5, m)
		if len(all) == 0 {
			if !errors.Is(err, ErrEmptyDB) {
				t.Fatalf("%s query on an empty round trip: %v, want ErrEmptyDB", m.Name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s query after the round trip: %v", m.Name, err)
		}
		if !sameHits(got, hits[i]) {
			t.Fatalf("%s: round trip answers %v, the loaded store %v", m.Name, got, hits[i])
		}
	}
}

// codecSeeds returns segment bodies of matrixDim-wide rows covering the
// weight codec: one packed at each k in 1..5; one holding escaped
// negative and subnormal weights; one holding a NaN, +Inf or -Inf
// weight each (refused by the typed non-finite check); two whose
// records fall back to raw float64s, one of them for a weight 59
// binades below the largest; and the matrix rows as a flags-0 body from
// the raw writer.
func codecSeeds(t testing.TB) [][]byte {
	r := rand.New(rand.NewSource(404))
	// row is 30 weights 0–spread binades down, v in place of the 4th and
	// the 18th when v is not 0.
	row := func(spread int, v float64) []float64 {
		val := spreadWeights(r, matrixDim, spread)
		for i := 3; v != 0 && i < len(val); i += 14 {
			val[i] = v
		}
		return val
	}
	body := func(want byte, vals ...[]float64) []byte {
		rows := make([]Signature, len(vals))
		for i, val := range vals {
			if k, _, _ := chooseWeightCode(val); byte(k) != want {
				t.Fatalf("seed row %d packs under %#02x, want %#02x", i, k, want)
			}
			rows[i] = weightSig(t, matrixDim, fmt.Sprintf("s%d", i), val)
		}
		return segmentBody(t, matrixDim, segFlagWeights, rows, writeSigRecord)
	}
	var seeds [][]byte
	for k, spread := range []int{0, 2, 6, 14, 29} {
		seeds = append(seeds, body(byte(k+1), row(spread, 0), row(spread, 0)))
	}
	seeds = append(seeds,
		body(4, row(13, -0.375), row(13, math.SmallestNonzeroFloat64)),
		body(4, row(13, math.NaN())), body(4, row(13, math.Inf(1))), body(4, row(13, math.Inf(-1))),
		body(weightsRaw, []float64{0.5, 0x1p-45, 0.75, 0x1p-50}, row(13, 0x1p-60)),
		segmentBody(t, matrixDim, 0, randSigs(rand.New(rand.NewSource(131)), 14, matrixDim, 5), writeSigRecordRaw),
	)
	return seeds
}

// FuzzLoadSegment feeds mutated segment bodies to LoadDir. The harness
// stamps the footer CRC and writes a one-segment manifest around every
// input (CRC and record count taken from the input itself), so a
// mutation is judged by the header and record decoders rather than
// stopped at a checksum. The loader may refuse the file — with a
// *SnapshotError naming a file and no DB — or load it, and then the
// store holds the header's record count and passes checkLoadedStore.
// The seeds are the corruption matrix's healthy files (packed records,
// flags segFlagWeights), the codec's seeds (codecSeeds: every k, every
// escape class, the raw fallback, a flags-0 body) and the segments of
// the older build's fixture (v21Fixture, flags 1 and 0), whose postings
// sections keep the path that skips them fuzzed.
func FuzzLoadSegment(f *testing.F) {
	for _, body := range codecSeeds(f) {
		f.Add(body)
	}
	for _, seeds := range []string{saveMatrixBaseline(f), v21Fixture} {
		entries, err := os.ReadDir(seeds)
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range entries {
			if !strings.HasPrefix(e.Name(), "seg-") {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(seeds, e.Name()))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw[:len(raw)-4])
		}
	}
	query := randSigs(rand.New(rand.NewSource(7)), 1, matrixDim, 8)[0].W
	le := binary.LittleEndian

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		count := 0
		if len(body) >= segHeaderSize {
			count = int(le.Uint32(body[10:14]))
		}
		crc := crc32.ChecksumIEEE(body)
		seg := segmentFileName(0)
		// The capacity clamp makes the append copy: the engine owns body.
		if err := os.WriteFile(filepath.Join(dir, seg), le.AppendUint32(body[:len(body):len(body)], crc), 0o644); err != nil {
			t.Fatal(err)
		}
		manifest, err := json.Marshal(manifestJSON{
			Format: manifestFormat, Version: manifestVersion, Dim: matrixDim, Shards: 1, Count: count, NextSeg: 1,
			Segments: [][]manifestSegment{{{ID: 0, File: seg, Records: count, CRC32: crc}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}

		db, err := LoadDir(dir)
		if err != nil {
			var se *SnapshotError
			if db != nil || !errors.As(err, &se) || se.Path == "" {
				t.Fatalf("db=%v err=%v, want no DB and a *SnapshotError naming a file", db, err)
			}
			return
		}
		if db.Len() != count {
			t.Fatalf("loaded %d signatures of the header's %d", db.Len(), count)
		}
		checkLoadedStore(t, db, query)
	})
}

// FuzzLoadManifest feeds mutated manifests to LoadDir over the
// corruption matrix's healthy segment files. The loader may refuse —
// with a *SnapshotError naming a file and no DB — or load a store that
// holds exactly the rows of the files the manifest names, in manifest
// order, and passes checkLoadedStore. A manifest may name fewer files
// than the directory holds, or none: SaveDir writes a zero-segment
// manifest for an empty store, and a crash mid-save can leave one
// beside orphan files, so such a manifest loads as the empty store it
// describes. A store that loads also saves back into its own
// directory, keeping the named files that fit the layout, and reloads
// with the same rows. The seeds are the healthy manifest and two
// refusals: a shard count of 2, and the segments split over two lists.
func FuzzLoadManifest(f *testing.F) {
	base := saveMatrixBaseline(f)
	entries, err := os.ReadDir(base)
	if err != nil {
		f.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(base, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		files[e.Name()] = raw
	}
	healthy := files[manifestName]
	delete(files, manifestName)
	f.Add(healthy)
	f.Add(bytes.Replace(healthy, []byte(`"shards": 1,`), []byte(`"shards": 2,`), 1))
	f.Add(bytes.Replace(healthy, []byte("},\n      {"), []byte("}\n    ],\n    [\n      {"), 1))

	// rows maps each healthy file to the rows it holds.
	var m manifestJSON
	if err := json.Unmarshal(healthy, &m); err != nil {
		f.Fatal(err)
	}
	rows := map[string][]Signature{}
	for _, ent := range m.Segments[0] {
		if rows[ent.File], err = readSegmentFile(base, ent, matrixDim, nil, &sigArena{}); err != nil {
			f.Fatal(err)
		}
	}
	query := randSigs(rand.New(rand.NewSource(7)), 1, matrixDim, 8)[0].W

	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir := t.TempDir()
		for name, raw := range files {
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := LoadDir(dir)
		if err != nil {
			var se *SnapshotError
			if db != nil || !errors.As(err, &se) || se.Path == "" {
				t.Fatalf("db=%v err=%v, want no DB and a *SnapshotError naming a file", db, err)
			}
			return
		}
		// The load succeeded, so the manifest parses and names healthy
		// files only.
		var m manifestJSON
		if err := json.Unmarshal(manifest, &m); err != nil {
			t.Fatalf("a manifest that loaded does not parse: %v", err)
		}
		var want []Signature
		for _, ent := range m.Segments[0] {
			want = append(want, rows[ent.File]...)
		}
		all := db.All()
		if len(all) != len(want) {
			t.Fatalf("loaded %d signatures, the files the manifest names hold %d", len(all), len(want))
		}
		for i := range all {
			if err := sameSignature(all[i], want[i]); err != nil {
				t.Fatalf("signature %d: %v", i, err)
			}
		}
		checkLoadedStore(t, db, query)
		if err := db.SaveDir(dir); err != nil {
			t.Fatalf("re-saving into the loaded directory: %v", err)
		}
		back, err := LoadDir(dir)
		if err != nil {
			t.Fatalf("reloading the loaded directory: %v", err)
		}
		if err := sameRows(back.All(), all); err != nil {
			t.Fatalf("re-saved into its own directory: %v", err)
		}
	})
}
