package core

import (
	"fmt"
	"testing"

	"repro/internal/vecmath"
)

func TestTopTerms(t *testing.T) {
	sig := SignatureFromDense("x", "", vecmath.Vector{0, 0.5, -0.9, 0.1})
	names := []string{"a", "b", "c", "d"}
	top, err := TopTerms(sig, 2, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0].Term != 2 || top[0].Name != "c" || top[0].Weight != -0.9 {
		t.Errorf("top[0] = %+v", top[0])
	}
	if top[1].Term != 1 || top[1].Name != "b" {
		t.Errorf("top[1] = %+v", top[1])
	}
	// k beyond support returns all non-zero terms.
	all, err := TopTerms(sig, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Errorf("all = %d, want 3 non-zero terms", len(all))
	}
	if all[0].Name != "" {
		t.Error("nil names should leave Name empty")
	}
}

func TestTopTermsValidation(t *testing.T) {
	sig := SignatureFromDense("", "", vecmath.Vector{1, 2})
	if _, err := TopTerms(sig, 0, nil); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := TopTerms(sig, 1, []string{"only-one"}); err == nil {
		t.Error("short name table should fail")
	}
}

func TestTopTermsDeterministicTieBreak(t *testing.T) {
	sig := SignatureFromDense("", "", vecmath.Vector{0.5, 0.5, 0.5})
	top, err := TopTerms(sig, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tw := range top {
		if tw.Term != i {
			t.Errorf("ties should order by term index: %+v", top)
		}
	}
}

func TestContrast(t *testing.T) {
	a := SignatureFromDense("", "", vecmath.Vector{0.9, 0.1, 0.0})
	b := SignatureFromDense("", "", vecmath.Vector{0.1, 0.1, 0.7})
	names := []string{"crypto_aes", "vfs_read", "journal_commit"}
	diff, err := Contrast(a, b, 2, names)
	if err != nil {
		t.Fatal(err)
	}
	if diff[0].Term != 0 || diff[0].Weight <= 0 {
		t.Errorf("diff[0] = %+v; want crypto_aes stronger in a", diff[0])
	}
	if diff[1].Term != 2 || diff[1].Weight >= 0 {
		t.Errorf("diff[1] = %+v; want journal stronger in b", diff[1])
	}
}

func TestContrastValidation(t *testing.T) {
	a := SignatureFromDense("", "", vecmath.Vector{1})
	b := SignatureFromDense("", "", vecmath.Vector{1, 2})
	if _, err := Contrast(a, b, 1, nil); err == nil {
		t.Error("dimension mismatch should fail")
	}
	c := SignatureFromDense("", "", vecmath.Vector{1})
	if _, err := Contrast(a, c, 0, nil); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := Contrast(a, c, 1, []string{}); err == nil {
		t.Error("short names should fail")
	}
	// Identical signatures: no distinguishing terms.
	same, err := Contrast(a, c, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(same) != 0 {
		t.Errorf("identical signatures should contrast to nothing, got %v", same)
	}
}

// TopTerms returns the k largest-magnitude components of a signature,
// descending by |weight|, named from names when it is not nil. It ranks
// with sortTerms, the order Contrast returns, so its tests pin that
// order's tie-break on a single signature.
func TopTerms(sig Signature, k int, names []string) ([]TermWeight, error) {
	if k < 1 {
		return nil, &ConfigError{Param: "k", Value: k, Min: 1}
	}
	if sig.W == nil {
		return nil, &ConfigError{Param: "signature", Msg: fmt.Sprintf("signature %s has no weight vector", sig.DocID)}
	}
	if names != nil && len(names) < sig.Dim() {
		return nil, &ConfigError{Param: "names", Msg: fmt.Sprintf("name table has %d entries for dimension %d", len(names), sig.Dim())}
	}
	terms := make([]TermWeight, 0, sig.W.NNZ())
	sig.W.ForEach(func(i int, w float64) {
		tw := TermWeight{Term: i, Weight: w}
		if names != nil {
			tw.Name = names[i]
		}
		terms = append(terms, tw)
	})
	sortTerms(terms)
	if k > len(terms) {
		k = len(terms)
	}
	return terms[:k], nil
}
