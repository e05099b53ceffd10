package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/crossval"
	"repro/internal/daemon"
	"repro/internal/svm"
	"repro/internal/workload"
)

// AblationIntervalRow is one collection-interval length in the §5
// sensitivity ablation.
type AblationIntervalRow struct {
	Interval time.Duration
	Accuracy float64
	StdDev   float64
}

// AblationIntervalResult quantifies §5's claim that the tf normalization
// makes signatures insensitive to the collection interval ("the
// term-frequency factor is normalized to prevent bias towards longer
// runs"): per-interval classification accuracy plus a cross-interval
// transfer test (train on one interval length, classify another).
type AblationIntervalResult struct {
	Rows []AblationIntervalRow
	// TransferTrain/TransferTest are the interval lengths of the
	// transfer experiment.
	TransferTrain time.Duration
	TransferTest  time.Duration
	// TransferAccuracy is the accuracy of a classifier trained on
	// TransferTrain-length signatures applied to TransferTest-length
	// signatures embedded with the training corpus's model.
	TransferAccuracy float64
}

// collectTwoClass collects scp and kcompile documents at one interval
// length.
func collectTwoClass(n int, interval time.Duration, seed int64) ([]*core.Document, int, error) {
	specs := []workload.Spec{workload.Scp(daemon.NumCPU), workload.Kcompile(daemon.NumCPU)}
	return CollectSignatureCorpus(specs, n, interval, seed)
}

// evalTwoClass cross-validates scp-vs-kcompile over the documents.
func evalTwoClass(docs []*core.Document, dim, folds int, seed int64) (*crossval.Result, error) {
	sigs, _, err := core.BuildSignatures(docs, dim)
	if err != nil {
		return nil, err
	}
	compact := CompactDims(sigs)
	x := SparseVecs(compact)
	var y []float64
	var pos, neg []int
	for i, s := range compact {
		if s.Label == "scp" {
			pos = append(pos, i)
			y = append(y, 1)
		} else {
			neg = append(neg, i)
			y = append(y, -1)
		}
	}
	kf, err := crossval.PaperKFold(pos, neg, folds, seed)
	if err != nil {
		return nil, err
	}
	return crossval.EvaluateSVM(x, y, kf, []float64{1, 10}, seed, 0)
}

// RunAblationInterval sweeps the daemon's collection interval and runs the
// cross-interval transfer test.
func RunAblationInterval(perClass, folds int, seed int64, intervals []time.Duration) (*AblationIntervalResult, error) {
	if len(intervals) == 0 {
		intervals = []time.Duration{2 * time.Second, 5 * time.Second, 10 * time.Second, 30 * time.Second}
	}
	if perClass < folds {
		return nil, fmt.Errorf("experiments: perClass %d < folds %d", perClass, folds)
	}
	res := &AblationIntervalResult{}
	for ii, interval := range intervals {
		docs, dim, err := collectTwoClass(perClass, interval, seed+int64(ii)*7777)
		if err != nil {
			return nil, err
		}
		cv, err := evalTwoClass(docs, dim, folds, seed+int64(ii))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationIntervalRow{
			Interval: interval,
			Accuracy: cv.MeanAccuracy,
			StdDev:   cv.StdAccuracy,
		})
	}

	// Transfer: train on the longest interval's corpus, classify the
	// shortest interval's documents through the training model. If tf
	// normalization works, run length cancels and the classifier carries
	// over.
	longest, shortest := intervals[0], intervals[0]
	for _, iv := range intervals {
		if iv > longest {
			longest = iv
		}
		if iv < shortest {
			shortest = iv
		}
	}
	res.TransferTrain, res.TransferTest = longest, shortest

	trainDocs, dim, err := collectTwoClass(perClass, longest, seed+111111)
	if err != nil {
		return nil, err
	}
	corpus, err := core.NewCorpus(dim)
	if err != nil {
		return nil, err
	}
	for _, d := range trainDocs {
		if err := corpus.Add(d); err != nil {
			return nil, err
		}
	}
	trainSigs, model, err := corpus.Signatures()
	if err != nil {
		return nil, err
	}
	core.Normalize(trainSigs)
	var y []float64
	for _, s := range trainSigs {
		if s.Label == "scp" {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	clf, err := svm.Train(SparseVecs(trainSigs), y, svm.Config{C: 10, Seed: seed})
	if err != nil {
		return nil, err
	}

	testDocs, _, err := collectTwoClass(perClass, shortest, seed+222222)
	if err != nil {
		return nil, err
	}
	// Embed the whole test corpus through the training model, then score
	// it in one batched prediction pass.
	testSigs, err := model.TransformAll(testDocs)
	if err != nil {
		return nil, err
	}
	core.Normalize(testSigs)
	preds := clf.PredictBatch(SparseVecs(testSigs), 0)
	correct := 0
	for i, d := range testDocs {
		want := -1.0
		if d.Label == "scp" {
			want = 1
		}
		if preds[i] == want {
			correct++
		}
	}
	res.TransferAccuracy = float64(correct) / float64(len(testDocs))
	return res, nil
}

// Render prints the interval sensitivity table.
func (r *AblationIntervalResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation A5: collection-interval sensitivity (scp vs kcompile, §5)\n")
	widths := []int{12, 18}
	renderRow(&b, widths, "Interval", "Accuracy (%)")
	for _, row := range r.Rows {
		renderRow(&b, widths, row.Interval.String(),
			fmt.Sprintf("%.2f±%.2f", 100*row.Accuracy, 100*row.StdDev))
	}
	fmt.Fprintf(&b, "transfer: trained on %v intervals, tested on %v intervals: %.2f%%\n",
		r.TransferTrain, r.TransferTest, 100*r.TransferAccuracy)
	return b.String()
}
