// Package metrics implements the evaluation metrics used by the DistHD
// paper: classification accuracy, ROC curves with AUC (Fig. 6), and the
// quality loss of a faulty model (Fig. 8).
package metrics

import (
	"fmt"
	"sort"
)

// Accuracy returns the fraction of predictions matching labels.
func Accuracy(pred, y []int) (float64, error) {
	if len(pred) != len(y) {
		return 0, fmt.Errorf("metrics: %d predictions but %d labels", len(pred), len(y))
	}
	if len(y) == 0 {
		return 0, fmt.Errorf("metrics: empty input")
	}
	correct := 0
	for i, p := range pred {
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y)), nil
}

// ROCPoint is one operating point of a ROC curve.
type ROCPoint struct {
	FPR, TPR float64
	// Threshold is the score cutoff that produces this point.
	Threshold float64
}

// ROC computes the ROC curve and AUC for binary labels (true = positive)
// scored by `scores` (higher = more positive). The curve runs from (0,0)
// to (1,1); AUC is computed by the trapezoid rule with proper tie handling
// (all samples sharing a score move together).
func ROC(scores []float64, positive []bool) ([]ROCPoint, float64, error) {
	if len(scores) != len(positive) {
		return nil, 0, fmt.Errorf("metrics: %d scores but %d labels", len(scores), len(positive))
	}
	var nPos, nNeg float64
	for _, p := range positive {
		if p {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return nil, 0, fmt.Errorf("metrics: ROC needs both classes (pos=%v neg=%v)", nPos, nNeg)
	}

	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })

	curve := []ROCPoint{{FPR: 0, TPR: 0, Threshold: scores[idx[0]] + 1}}
	var tp, fp float64
	auc := 0.0
	i := 0
	for i < len(idx) {
		thr := scores[idx[i]]
		// absorb every sample tied at this threshold
		var dTP, dFP float64
		for i < len(idx) && scores[idx[i]] == thr {
			if positive[idx[i]] {
				dTP++
			} else {
				dFP++
			}
			i++
		}
		prevTPR := tp / nPos
		tp += dTP
		fp += dFP
		tpr := tp / nPos
		fpr := fp / nNeg
		// trapezoid over the FPR step
		auc += (dFP / nNeg) * (prevTPR + tpr) / 2
		curve = append(curve, ROCPoint{FPR: fpr, TPR: tpr, Threshold: thr})
	}
	return curve, auc, nil
}

// QualityLoss returns the accuracy degradation (in absolute fraction) of a
// faulty model relative to a clean one, clamped at 0 — the metric reported
// in Fig. 8.
func QualityLoss(cleanAcc, faultyAcc float64) float64 {
	loss := cleanAcc - faultyAcc
	if loss < 0 {
		return 0
	}
	return loss
}
