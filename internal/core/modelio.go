package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// modelJSON is the wire form of a fitted tf-idf model. The idf vector is
// stored sparsely: terms absent from the training corpus have idf 0.
type modelJSON struct {
	Dim int             `json:"dim"`
	IDF map[int]float64 `json:"idf"`
}

// WriteModel persists a fitted model as a single JSON object. Operators
// fit the idf weighting once over a labeled history corpus and reuse it to
// embed signatures collected later (the paper's database workflow, §2.2):
// a classifier is only meaningful against vectors weighted by the same
// model. Failures are typed *SnapshotError (model I/O is part of the
// snapshot domain; Path is empty for caller-owned streams).
//
//fmeter:errdomain snapshot
func WriteModel(w io.Writer, m *Model) error {
	if m == nil {
		return &SnapshotError{Err: errors.New("nil model")}
	}
	mj := modelJSON{Dim: m.dim, IDF: make(map[int]float64)}
	for i, x := range m.idf {
		if x != 0 {
			mj.IDF[i] = x
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(mj); err != nil {
		return &SnapshotError{Err: fmt.Errorf("writing model: %w", err)}
	}
	return nil
}

// ReadModel parses a model written by WriteModel.
//
//fmeter:errdomain snapshot
func ReadModel(r io.Reader) (*Model, error) {
	var mj modelJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&mj); err != nil {
		return nil, &SnapshotError{Err: fmt.Errorf("reading model: %w", err)}
	}
	// Bounded before the dense idf vector is allocated: the dimension is
	// outside input.
	if mj.Dim < 1 || mj.Dim > maxSnapshotDim {
		return nil, &SnapshotError{Err: fmt.Errorf("model dimension %d outside [1, %d]", mj.Dim, maxSnapshotDim)}
	}
	m := newModel(mj.Dim)
	for i, x := range mj.IDF {
		if i < 0 || i >= mj.Dim {
			return nil, &SnapshotError{Err: fmt.Errorf("idf index %d outside dimension %d", i, mj.Dim)}
		}
		if x < 0 {
			return nil, &SnapshotError{Err: fmt.Errorf("negative idf %v at term %d", x, i)}
		}
		m.idf[i] = x
	}
	return m, nil
}
