// Package metrics implements the evaluation measures of §4.2: binary
// classification accuracy/precision/recall (Tables 4-5, including the
// majority-class baseline accuracy), and purity, the paper's clustering
// quality measure ("simple and transparent"; it names normalized mutual
// information, the Rand index and the F-measure as alternatives).
package metrics

import (
	"errors"
	"fmt"
)

// Confusion is a binary confusion matrix over the paper's +1/-1 labeling.
type Confusion struct {
	TP, FP, TN, FN int
}

// NewConfusion tallies predictions against truth; labels must be ±1.
func NewConfusion(truth, pred []float64) (Confusion, error) {
	if len(truth) != len(pred) {
		return Confusion{}, fmt.Errorf("metrics: %d truths vs %d predictions", len(truth), len(pred))
	}
	var c Confusion
	for i := range truth {
		t, p := truth[i], pred[i]
		if (t != 1 && t != -1) || (p != 1 && p != -1) {
			return Confusion{}, fmt.Errorf("metrics: labels must be ±1, got truth=%v pred=%v at %d", t, p, i)
		}
		switch {
		case t == 1 && p == 1:
			c.TP++
		case t == -1 && p == 1:
			c.FP++
		case t == -1 && p == -1:
			c.TN++
		default:
			c.FN++
		}
	}
	return c, nil
}

// Total returns the number of tallied examples.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Accuracy is (TP+TN)/total.
func (c Confusion) Accuracy() float64 {
	n := c.Total()
	if n == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(n)
}

// Precision is TP/(TP+FP); 1 when no positives were predicted (vacuous).
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP/(TP+FN); 1 when no positives exist (vacuous).
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// BaselineAccuracy is the accuracy of the pseudo-classifier that always
// answers with the majority class (the paper reports it alongside every
// grouping: "if a dataset contains 100 of class +1 and 150 of class -1,
// the baseline accuracy is 0.6").
func BaselineAccuracy(truth []float64) (float64, error) {
	if len(truth) == 0 {
		return 0, errors.New("metrics: empty truth")
	}
	pos := 0
	for _, t := range truth {
		switch t {
		case 1:
			pos++
		case -1:
		default:
			return 0, fmt.Errorf("metrics: labels must be ±1, got %v", t)
		}
	}
	maj := pos
	if n := len(truth) - pos; n > maj {
		maj = n
	}
	return float64(maj) / float64(len(truth)), nil
}

// validateClustering checks parallel assignment/label slices.
func validateClustering(assign []int, labels []string) error {
	if len(assign) == 0 {
		return errors.New("metrics: empty clustering")
	}
	if len(assign) != len(labels) {
		return fmt.Errorf("metrics: %d assignments vs %d labels", len(assign), len(labels))
	}
	for i, a := range assign {
		if a < 0 {
			return fmt.Errorf("metrics: negative cluster id at %d", i)
		}
	}
	return nil
}

// Purity assigns each cluster to its most frequent class and returns the
// fraction of correctly assigned points (§4.2.2). Purity 1.0 is trivially
// reachable with as many clusters as points — the property Figure 6
// exploits deliberately.
func Purity(assign []int, labels []string) (float64, error) {
	if err := validateClustering(assign, labels); err != nil {
		return 0, err
	}
	table := make(map[int]map[string]int)
	for i, a := range assign {
		if table[a] == nil {
			table[a] = make(map[string]int)
		}
		table[a][labels[i]]++
	}
	correct := 0
	for _, classes := range table {
		max := 0
		for _, n := range classes {
			if n > max {
				max = n
			}
		}
		correct += max
	}
	return float64(correct) / float64(len(assign)), nil
}
