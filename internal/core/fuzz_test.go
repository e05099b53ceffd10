package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzLoadSegment feeds mutated segment bodies to both loaders. The
// harness stamps the footer CRC and writes a one-segment manifest around
// every input (CRC and record count taken from the input itself), so a
// mutation is judged by the header, record and postings decoders rather
// than stopped at a checksum. Either loader may refuse the file — with a
// *SnapshotError naming a file and no DB — or both load it, and then
// they hold the same number of signatures and answer a query
// bit-identically. The seeds are the corruption matrix's healthy files.
func FuzzLoadSegment(f *testing.F) {
	seeds := saveMatrixBaseline(f)
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

		var hits [2][]SearchResult
		var loaded [2]bool
		for i, ld := range bothLoaders {
			db, err := ld.load(dir)
			if err != nil {
				var se *SnapshotError
				if db != nil || !errors.As(err, &se) || se.Path == "" {
					t.Fatalf("%s: db=%v err=%v, want no DB and a *SnapshotError naming a file", ld.mode, db, err)
				}
				continue
			}
			loaded[i] = true
			if db.Len() != count {
				t.Fatalf("%s: loaded %d signatures of the header's %d", ld.mode, db.Len(), count)
			}
			if hits[i], err = db.TopKSparse(query, 5, EuclideanMetric()); err != nil {
				t.Fatalf("%s: query on a loaded DB: %v", ld.mode, err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if loaded[0] != loaded[1] {
			t.Fatalf("resident loaded=%v, mapped loaded=%v", loaded[0], loaded[1])
		}
		if !sameHits(hits[0], hits[1]) {
			t.Fatalf("resident and mapped loads answer differently: %v vs %v", hits[0], hits[1])
		}
	})
}

// FuzzLoadManifest feeds mutated manifests to both loaders over the
// corruption matrix's healthy segment files. Either loader may refuse —
// with a *SnapshotError naming a file and no DB — or load a store that
// answers like the healthy one: the same signatures in the same order
// and the same hits. The seeds are the healthy manifest and two
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

	ref, err := LoadDir(base)
	if err != nil {
		f.Fatal(err)
	}
	query := randSigs(rand.New(rand.NewSource(7)), 1, matrixDim, 8)[0].W
	want, err := ref.TopKSparse(query, 5, EuclideanMetric())
	if err != nil {
		f.Fatal(err)
	}
	wantAll := ref.All()

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
		for _, ld := range bothLoaders {
			db, err := ld.load(dir)
			if err != nil {
				var se *SnapshotError
				if db != nil || !errors.As(err, &se) || se.Path == "" {
					t.Fatalf("%s: db=%v err=%v, want no DB and a *SnapshotError naming a file", ld.mode, db, err)
				}
				continue
			}
			all := db.All()
			if len(all) != len(wantAll) {
				t.Fatalf("%s: loaded %d signatures, the healthy store holds %d", ld.mode, len(all), len(wantAll))
			}
			for i := range all {
				if err := sameSignature(all[i], wantAll[i]); err != nil {
					t.Fatalf("%s: signature %d: %v", ld.mode, i, err)
				}
			}
			got, err := db.TopKSparse(query, 5, EuclideanMetric())
			if err != nil {
				t.Fatalf("%s: query on a loaded DB: %v", ld.mode, err)
			}
			if !sameHits(got, want) {
				t.Fatalf("%s: loaded store answers %v, the healthy one %v", ld.mode, got, want)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
