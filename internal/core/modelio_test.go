package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestModelRoundTrip(t *testing.T) {
	c, err := NewCorpus(50)
	if err != nil {
		t.Fatal(err)
	}
	docs := []*Document{
		{ID: "a", Duration: time.Second, Counts: map[int]uint64{1: 10, 7: 3}},
		{ID: "b", Duration: time.Second, Counts: map[int]uint64{1: 4, 30: 9}},
		{ID: "c", Duration: time.Second, Counts: map[int]uint64{7: 1}},
	}
	for _, d := range docs {
		if err := c.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.Fit()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dim() != m.Dim() {
		t.Fatalf("dim = %d, want %d", back.Dim(), m.Dim())
	}
	origIDF, backIDF := m.IDF(), back.IDF()
	for i := range origIDF {
		if origIDF[i] != backIDF[i] {
			t.Fatalf("idf[%d] = %v, want %v", i, backIDF[i], origIDF[i])
		}
	}
	// Transforming a new document with the restored model matches the
	// original model exactly — the database workflow requirement.
	newDoc := &Document{ID: "new", Counts: map[int]uint64{1: 2, 30: 2}}
	s1, err := m.Transform(newDoc)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := back.Transform(newDoc)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Dense().Equal(s2.Dense(), 0) {
		t.Error("restored model transforms differently")
	}
}

func TestWriteModelNil(t *testing.T) {
	if err := WriteModel(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil model should fail")
	}
}

func TestReadModelErrors(t *testing.T) {
	for _, bad := range []string{
		"{not json",
		`{"dim":0,"idf":{}}`,
		`{"dim":2,"idf":{"5":1.0}}`,
		`{"dim":2,"idf":{"1":-0.5}}`,
		// A dimension past the bound must be refused before the dense idf
		// vector is allocated (the first used to panic in makeslice).
		`{"dim":9223372036854775807,"idf":{}}`,
		fmt.Sprintf(`{"dim":%d,"idf":{}}`, maxSnapshotDim+1),
	} {
		var se *SnapshotError
		if _, err := ReadModel(strings.NewReader(bad)); !errors.As(err, &se) {
			t.Errorf("ReadModel(%q) = %v, want a *SnapshotError", bad, err)
		}
	}
}
