package fmeter

// Integration tests for the paper's operational workflow (§2.2): a
// labeled history database and a fitted tf-idf model are built on one
// machine, persisted, and later used to diagnose signatures collected on
// a *different* machine — which only works if the model, documents, and
// database all survive serialization and the embedding is reproducible.

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"
)

func TestDatabaseWorkflowAcrossMachines(t *testing.T) {
	// --- Machine A (the lab): build the labeled history. ---
	labSys, err := New(Config{Seed: 1001})
	if err != nil {
		t.Fatal(err)
	}
	var history []*Document
	for _, spec := range []WorkloadSpec{ScpWorkload(), KcompileWorkload(), DbenchWorkload()} {
		docs, err := labSys.Collect(spec, 10, 10*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, docs...)
	}
	sigs, model, err := BuildSignatures(history, labSys.Dim())
	if err != nil {
		t.Fatal(err)
	}

	// Persist everything the operator would ship: the model and a
	// snapshot of the signature database.
	var modelBuf bytes.Buffer
	if err := WriteModel(&modelBuf, model); err != nil {
		t.Fatal(err)
	}
	labDB, err := NewDB(labSys.Dim())
	if err != nil {
		t.Fatal(err)
	}
	if err := labDB.AddAll(sigs); err != nil {
		t.Fatal(err)
	}
	shipped := filepath.Join(t.TempDir(), "db")
	if err := SaveDB(shipped, labDB); err != nil {
		t.Fatal(err)
	}

	// --- Machine B (production): collect unlabeled signatures. ---
	prodSys, err := New(Config{Seed: 2002})
	if err != nil {
		t.Fatal(err)
	}
	prodDocs, err := prodSys.Collect(DbenchWorkload(), 6, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	var docBuf bytes.Buffer
	if err := WriteDocuments(&docBuf, prodDocs); err != nil {
		t.Fatal(err)
	}

	// --- Analysis box: restore everything from bytes and diagnose. ---
	restoredModel, err := ReadModel(&modelBuf)
	if err != nil {
		t.Fatal(err)
	}
	restoredDocs, err := ReadDocuments(&docBuf)
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDB(shipped)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != len(sigs) || db.Dim() != restoredModel.Dim() {
		t.Fatalf("shipped store holds %d rows of dim %d, want %d of dim %d", db.Len(), db.Dim(), len(sigs), restoredModel.Dim())
	}

	correct := 0
	for _, d := range restoredDocs {
		d.Label = "" // production labels are unknown
		sig, err := restoredModel.Transform(d)
		if err != nil {
			t.Fatal(err)
		}
		sig.W.Normalize()
		label, err := db.ClassifySparse(sig.W, 5, EuclideanMetric())
		if err != nil {
			t.Fatal(err)
		}
		if label == "dbench" {
			correct++
		}
	}
	if correct < len(restoredDocs)-1 {
		t.Errorf("diagnosed %d/%d production intervals as dbench", correct, len(restoredDocs))
	}
}

func TestModelTransformMatchesCorpusEmbedding(t *testing.T) {
	// Embedding a training document through the fitted model must equal
	// its corpus-time signature (before normalization differences): the
	// two paths share tf and idf by construction.
	sys, err := New(Config{Seed: 3003})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := sys.Collect(ScpWorkload(), 5, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := NewCorpus(sys.Dim())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := corpus.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	sigs, model, err := corpus.Signatures()
	if err != nil {
		t.Fatal(err)
	}
	again, err := model.Transform(docs[2])
	if err != nil {
		t.Fatal(err)
	}
	if !sigs[2].Dense().Equal(again.Dense(), 1e-12) {
		t.Error("model.Transform differs from corpus embedding")
	}
}

func TestSeededRunsAreBitReproducible(t *testing.T) {
	collect := func() []*Document {
		sys, err := New(Config{Seed: 4004})
		if err != nil {
			t.Fatal(err)
		}
		docs, err := sys.Collect(DbenchWorkload(), 4, 10*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		return docs
	}
	a, b := collect(), collect()
	for i := range a {
		if len(a[i].Counts) != len(b[i].Counts) {
			t.Fatalf("interval %d support differs", i)
		}
		for fn, c := range a[i].Counts {
			if b[i].Counts[fn] != c {
				t.Fatalf("interval %d fn %d: %d vs %d", i, fn, c, b[i].Counts[fn])
			}
		}
	}
}
