package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/vecmath"
)

// sameStore asserts two databases hold the same signatures in the same
// insertion order — doc-id, label, and the support's indices and weight
// bits — whatever their segment layout.
func sameStore(t *testing.T, tag string, got, want *DB) {
	t.Helper()
	a, b := got.All(), want.All()
	if len(a) != len(b) || got.Dim() != want.Dim() {
		t.Fatalf("%s: len/dim %d/%d, want %d/%d", tag, len(a), got.Dim(), len(b), want.Dim())
	}
	for gid := range a {
		if err := sameSignature(a[gid], b[gid]); err != nil {
			t.Fatalf("%s: signature %d: %v", tag, gid, err)
		}
	}
}

// rebuild copies db into a fresh store queried in workers lanes through
// the public API — insertion order, and so every answer, carries over.
func rebuild(t *testing.T, db *DB, workers int) *DB {
	t.Helper()
	out, err := newTestDB(db.Dim(), workers)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.AddAll(db.All()); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSnapshotRoundTripAcrossShardCounts saves a DB, reloads it, and
// queries the reloaded store — and a rebuild of it — at several lane
// counts (the axis that replaced the shard count), checking that TopK
// results are identical: the operator guarantee that neither a restart
// nor the core count ever changes query results.
func TestSnapshotRoundTripAcrossShardCounts(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const dim = 200
	sigs := randSigs(r, 150, dim, 20)
	src, err := newTestDB(dim, 3)
	if err != nil {
		t.Fatal(err)
	}
	src.setSegmentSize(16)
	if err := src.AddAll(sigs); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := src.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameStore(t, "reloaded", loaded, src)

	query := randSigs(r, 1, dim, 20)[0].W
	for _, workers := range []int{1, 2, 3, 5, 8} {
		loaded.SetWorkers(workers)
		for _, db := range []*DB{loaded, rebuild(t, loaded, workers)} {
			sameStore(t, fmt.Sprintf("workers=%d", workers), db, src)
			for _, metric := range []Metric{EuclideanMetric(), CosineMetric()} {
				got, err := db.TopKSparse(query, 20, metric)
				if err != nil {
					t.Fatalf("workers=%d %s: %v", workers, metric.Name, err)
				}
				ref, err := src.TopKSparse(query, 20, metric)
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, fmt.Sprintf("workers=%d %s", workers, metric.Name), got, ref)
			}
		}
	}
}

// TestJSONLinesHugeRecord is the regression test for the 16 MiB scanner
// token cap: a single document or signature record larger than the old
// bufio.Scanner limit must round-trip, not fail with "token too long".
func TestJSONLinesHugeRecord(t *testing.T) {
	huge := strings.Repeat("x", 17<<20) // 17 MiB, past the old 1<<24 cap
	d := doc(huge, "big", map[int]uint64{1: 2, 5: 9})
	var buf bytes.Buffer
	if err := WriteDocuments(&buf, []*Document{d, doc("small", "", map[int]uint64{0: 1})}); err != nil {
		t.Fatal(err)
	}
	docs, err := ReadDocuments(&buf)
	if err != nil {
		t.Fatalf("huge document line: %v", err)
	}
	if len(docs) != 2 || docs[0].ID != huge || docs[1].ID != "small" {
		t.Fatal("huge document did not round-trip")
	}
	sig := Signature{DocID: huge, Label: "big", W: vecmath.DenseToSparse(vecmath.Vector{0, 1, 0, 2})}
	var sbuf bytes.Buffer
	if err := WriteSignatures(&sbuf, []Signature{sig}); err != nil {
		t.Fatal(err)
	}
	sigs, err := ReadSignatures(&sbuf)
	if err != nil {
		t.Fatalf("huge signature line: %v", err)
	}
	if len(sigs) != 1 || sigs[0].DocID != huge || sigs[0].Dim() != 4 {
		t.Fatal("huge signature did not round-trip")
	}
}

// TestSnapshotGiantHeaderRejected: a manifest claiming an absurd
// dimension or shard count must fail validation instead of attempting
// the allocation, and an over-long doc-id fails at save time without
// touching the snapshot already on disk.
func TestSnapshotGiantHeaderRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := NewDB(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll(randSigs(rand.New(rand.NewSource(1)), 2, 8, 3)); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, manifestName)
	clean, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	for _, edit := range [][2]string{
		{`"dim": 8`, `"dim": 4294967295`},
		{`"dim": 8`, `"dim": 9223372036854775807`},
		{`"dim": 8`, `"dim": 0`},
		{`"shards": 1`, `"shards": 4294967295`},
	} {
		bad := bytes.Replace(clean, []byte(edit[0]), []byte(edit[1]), 1)
		if bytes.Equal(bad, clean) {
			t.Fatalf("manifest has no %s to tamper with", edit[0])
		}
		if err := os.WriteFile(mpath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadDir(dir)
		var se *SnapshotError
		if got != nil || !errors.As(err, &se) || se.Path != mpath {
			t.Errorf("%s: db=%v err=%v, want a *SnapshotError naming the manifest", edit[1], got, err)
		}
	}
	if err := os.WriteFile(mpath, clean, 0o644); err != nil {
		t.Fatal(err)
	}

	// Write-time validation: an oversized doc-id never reaches the
	// manifest, so the previous snapshot stays the loadable one.
	big := randSigs(rand.New(rand.NewSource(2)), 1, 8, 3)[0]
	big.DocID = string(make([]byte, maxSnapshotString+1))
	if err := db.Add(big); err != nil {
		t.Fatal(err)
	}
	var se *SnapshotError
	if err := db.SaveDir(dir); !errors.As(err, &se) || se.Path == "" {
		t.Fatalf("oversized doc-id: SaveDir err = %v, want a *SnapshotError naming the segment file", err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("previous snapshot no longer loads after the refused save: %v", err)
	}
	if back.Len() != 2 {
		t.Fatalf("previous snapshot holds %d signatures, want 2", back.Len())
	}
}
