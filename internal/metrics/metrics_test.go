package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestAccuracy(t *testing.T) {
	acc, err := Accuracy([]int{0, 1, 1, 0}, []int{0, 1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0.75 {
		t.Fatalf("accuracy = %v, want 0.75", acc)
	}
	if _, err := Accuracy([]int{0}, []int{0, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Accuracy(nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestROCPerfectClassifier(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	pos := []bool{true, true, false, false}
	curve, auc, err := ROC(scores, pos)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-1) > 1e-12 {
		t.Fatalf("perfect AUC = %v", auc)
	}
	last := curve[len(curve)-1]
	if last.FPR != 1 || last.TPR != 1 {
		t.Fatalf("curve must end at (1,1), got %+v", last)
	}
}

func TestROCWorstClassifier(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	pos := []bool{true, true, false, false}
	_, auc, err := ROC(scores, pos)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc) > 1e-12 {
		t.Fatalf("inverted AUC = %v, want 0", auc)
	}
}

func TestROCRandomScoresNearHalf(t *testing.T) {
	r := rng.New(1)
	const n = 4000
	scores := make([]float64, n)
	pos := make([]bool, n)
	for i := range scores {
		scores[i] = r.Float64()
		pos[i] = r.Float64() < 0.5
	}
	_, auc, err := ROC(scores, pos)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 0.03 {
		t.Fatalf("random AUC = %v, want ~0.5", auc)
	}
}

func TestROCTieHandling(t *testing.T) {
	// every sample shares one score: AUC must be exactly 0.5
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	pos := []bool{true, false, true, false}
	curve, auc, err := ROC(scores, pos)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 1e-12 {
		t.Fatalf("tied AUC = %v, want exactly 0.5", auc)
	}
	// the tie group must move as one: curve has start + one point
	if len(curve) != 2 {
		t.Fatalf("tied curve has %d points, want 2", len(curve))
	}
}

func TestROCValidation(t *testing.T) {
	if _, _, err := ROC([]float64{1}, []bool{true, false}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, _, err := ROC([]float64{1, 2}, []bool{true, true}); err == nil {
		t.Fatal("single-class input accepted")
	}
}

func TestQualityLoss(t *testing.T) {
	if QualityLoss(0.9, 0.8) != 0.1 && math.Abs(QualityLoss(0.9, 0.8)-0.1) > 1e-12 {
		t.Fatal("quality loss wrong")
	}
	if QualityLoss(0.8, 0.9) != 0 {
		t.Fatal("negative loss should clamp to 0")
	}
}

// Property: AUC is invariant to monotone transforms of the scores.
func TestAUCMonotoneInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 40
		scores := make([]float64, n)
		trans := make([]float64, n)
		pos := make([]bool, n)
		nPos := 0
		for i := range scores {
			scores[i] = r.NormFloat64()
			trans[i] = math.Exp(scores[i]) // strictly monotone
			pos[i] = r.Float64() < 0.5
			if pos[i] {
				nPos++
			}
		}
		if nPos == 0 || nPos == n {
			return true // vacuous
		}
		_, a1, err1 := ROC(scores, pos)
		_, a2, err2 := ROC(trans, pos)
		return err1 == nil && err2 == nil && math.Abs(a1-a2) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: AUC equals the Mann-Whitney U statistic (probability a random
// positive outscores a random negative, ties counting half).
func TestAUCEqualsMannWhitney(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 30
		scores := make([]float64, n)
		pos := make([]bool, n)
		nPos := 0
		for i := range scores {
			scores[i] = float64(r.Intn(5)) // coarse grid forces ties
			pos[i] = r.Float64() < 0.5
			if pos[i] {
				nPos++
			}
		}
		if nPos == 0 || nPos == n {
			return true
		}
		_, auc, err := ROC(scores, pos)
		if err != nil {
			return false
		}
		var u, pairs float64
		for i := range scores {
			if !pos[i] {
				continue
			}
			for j := range scores {
				if pos[j] {
					continue
				}
				pairs++
				switch {
				case scores[i] > scores[j]:
					u++
				case scores[i] == scores[j]:
					u += 0.5
				}
			}
		}
		return math.Abs(auc-u/pairs) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
