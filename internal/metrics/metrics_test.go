package metrics

import (
	"math"
	"testing"
)

func TestConfusionBasics(t *testing.T) {
	truth := []float64{1, 1, 1, -1, -1, -1}
	pred := []float64{1, 1, -1, -1, -1, 1}
	c, err := NewConfusion(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if c.TP != 2 || c.FN != 1 || c.TN != 2 || c.FP != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if got := c.Accuracy(); math.Abs(got-4.0/6) > 1e-12 {
		t.Errorf("Accuracy = %v", got)
	}
	if got := c.Precision(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Precision = %v", got)
	}
	if got := c.Recall(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Recall = %v", got)
	}
	if c.Total() != 6 {
		t.Errorf("Total = %d", c.Total())
	}
}

func TestConfusionValidation(t *testing.T) {
	if _, err := NewConfusion([]float64{1}, []float64{1, 1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := NewConfusion([]float64{0}, []float64{1}); err == nil {
		t.Error("non ±1 truth should fail")
	}
	if _, err := NewConfusion([]float64{1}, []float64{2}); err == nil {
		t.Error("non ±1 pred should fail")
	}
}

func TestConfusionDegenerate(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 {
		t.Error("empty accuracy should be 0")
	}
	if c.Precision() != 1 || c.Recall() != 1 {
		t.Error("vacuous precision/recall should be 1")
	}
	all := Confusion{TN: 5}
	if all.Precision() != 1 || all.Recall() != 1 {
		t.Error("no positives anywhere: vacuous 1")
	}
}

func TestBaselineAccuracy(t *testing.T) {
	// The paper's worked example: 100 of +1, 150 of -1 -> 0.6.
	truth := make([]float64, 0, 250)
	for i := 0; i < 100; i++ {
		truth = append(truth, 1)
	}
	for i := 0; i < 150; i++ {
		truth = append(truth, -1)
	}
	got, err := BaselineAccuracy(truth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.6) > 1e-12 {
		t.Errorf("baseline = %v, want 0.6", got)
	}
	if _, err := BaselineAccuracy(nil); err == nil {
		t.Error("empty should fail")
	}
	if _, err := BaselineAccuracy([]float64{3}); err == nil {
		t.Error("bad label should fail")
	}
}

func perfectClustering() ([]int, []string) {
	return []int{0, 0, 0, 1, 1, 1}, []string{"a", "a", "a", "b", "b", "b"}
}

func TestPurity(t *testing.T) {
	assign, labels := perfectClustering()
	p, err := Purity(assign, labels)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("perfect purity = %v", p)
	}
	// One mistake: a "b" lands in cluster 0 -> 6/7 correct.
	assign = append(assign, 0)
	labels = append(labels, "b")
	p, err = Purity(assign, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-6.0/7) > 1e-12 {
		t.Errorf("purity = %v, want 6/7", p)
	}
}

func TestPuritySingletonGaming(t *testing.T) {
	// Purity is trivially 1.0 with as many clusters as points — the
	// property Figure 6 leverages.
	assign := []int{0, 1, 2, 3}
	labels := []string{"a", "a", "b", "b"}
	p, err := Purity(assign, labels)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("singleton purity = %v", p)
	}
}

func TestClusteringValidation(t *testing.T) {
	if _, err := Purity(nil, nil); err == nil {
		t.Error("empty clustering should fail")
	}
	if _, err := Purity([]int{0}, []string{"a", "b"}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Purity([]int{-1}, []string{"a"}); err == nil {
		t.Error("negative cluster should fail")
	}
}
