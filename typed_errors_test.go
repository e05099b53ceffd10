package fmeter

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The typed-error contract (machine-checked by fmeter-vet/typederr):
// every snapshot or config failure surfaced through the facade must be
// reachable with errors.As as a *SnapshotError / *ConfigError, so
// operators can branch on the failure domain without string matching.

func TestConfigErrorAsFromFacade(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
	}{
		{"NewDB bad dimension", func() error {
			_, err := NewDB(0)
			return err
		}},
		{"NewCorpus bad dimension", func() error {
			_, err := NewCorpus(-1)
			return err
		}},
		{"Fit empty corpus", func() error {
			c, err := NewCorpus(4)
			if err != nil {
				return err
			}
			_, err = c.Fit()
			return err
		}},
		{"Contrast without weights", func() error {
			_, err := Contrast(Signature{}, Signature{}, 1, nil)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("errors.As(*ConfigError) = false for %v (%T)", err, err)
			}
		})
	}
}

func TestSnapshotErrorAsFromFacade(t *testing.T) {
	// setup flattens a failure of a case's own preparation into an untyped
	// error, so it fails the case instead of passing as the expected one.
	setup := func(err error) error { return fmt.Errorf("case set-up: %v", err) }
	cases := []struct {
		name string
		err  func() error
	}{
		{"OpenDB v1 file", func() error {
			// The retired single-file format: magic, version 1, dim 4, one
			// shard, zero records.
			path := filepath.Join(t.TempDir(), "db.fmdb")
			v1 := append([]byte("FMDB"), 1, 0, 4, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
			if err := os.WriteFile(path, v1, 0o644); err != nil {
				return setup(err)
			}
			_, err := OpenDB(path)
			return err
		}},
		{"OpenDB version-1 segment", func() error {
			// The retired segment body, CRC-correct: the version field
			// rewritten, the footer and the manifest's CRC re-stamped.
			dir := filepath.Join(t.TempDir(), "store")
			db, err := NewDB(4)
			if err != nil {
				return setup(err)
			}
			if err := db.Add(SignatureFromDense("a", "x", Vector{0, 1, 0, 2})); err != nil {
				return setup(err)
			}
			if err := SaveDB(dir, db); err != nil {
				return setup(err)
			}
			seg, man := filepath.Join(dir, "seg-00000000.fms"), filepath.Join(dir, "MANIFEST.json")
			raw, err := os.ReadFile(seg)
			if err != nil {
				return setup(err)
			}
			m, err := os.ReadFile(man)
			if err != nil {
				return setup(err)
			}
			body, le := raw[:len(raw)-4], binary.LittleEndian
			oldCRC := le.Uint32(raw[len(raw)-4:])
			le.PutUint16(body[4:6], 1)
			newCRC := crc32.ChecksumIEEE(body)
			m = bytes.Replace(m, []byte(fmt.Sprint(oldCRC)), []byte(fmt.Sprint(newCRC)), 1)
			if err := os.WriteFile(seg, le.AppendUint32(body, newCRC), 0o644); err != nil {
				return setup(err)
			}
			if err := os.WriteFile(man, m, 0o644); err != nil {
				return setup(err)
			}
			if _, err = OpenDB(dir); err != nil && !strings.Contains(err.Error(), "unsupported segment version 1") {
				return setup(err) // refused, but not by the version check
			}
			return err
		}},
		{"ReadModel bad JSON", func() error {
			_, err := ReadModel(strings.NewReader("{"))
			return err
		}},
		{"OpenDB missing directory", func() error {
			_, err := OpenDB(t.TempDir() + "/nonexistent")
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			var se *SnapshotError
			if !errors.As(err, &se) {
				t.Fatalf("errors.As(*SnapshotError) = false for %v (%T)", err, err)
			}
		})
	}
}

// A snapshot failure wrapped by intermediate fmt.Errorf layers must still
// unwrap to the typed error, and ConfigError's cause chain (Unwrap) must
// be visible through errors.Is.
func TestTypedErrorUnwrapChain(t *testing.T) {
	_, err := ReadModel(bytes.NewReader(nil))
	if err == nil {
		t.Fatal("want error, got nil")
	}
	var se *SnapshotError
	if !errors.As(err, &se) {
		t.Fatalf("errors.As(*SnapshotError) = false for %v", err)
	}
	if se.Err == nil {
		t.Fatal("SnapshotError carries no cause")
	}
	if !errors.Is(err, se.Err) {
		t.Fatal("errors.Is does not reach the SnapshotError cause")
	}

	sentinel := errors.New("root cause")
	ce := &ConfigError{Param: "document", Msg: "wrapping test", Err: sentinel}
	if !errors.Is(ce, sentinel) {
		t.Fatal("ConfigError.Unwrap does not expose the cause")
	}
	var ce2 *ConfigError
	if wrapped := error(ce); !errors.As(wrapped, &ce2) {
		t.Fatal("errors.As(*ConfigError) failed on a direct value")
	}
}
