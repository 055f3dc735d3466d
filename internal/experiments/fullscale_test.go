package experiments

import (
	"os"
	"testing"
)

// TestFullScaleShapes asserts the paper's qualitative orderings at the
// scale of `go run ./cmd/hdbench -exp all -scale 0.35` (seed 42). It
// takes several minutes on one core, so it only runs when HD_FULL=1 is
// set:
//
//	HD_FULL=1 go test ./internal/experiments -run TestFullScaleShapes -timeout 60m
func TestFullScaleShapes(t *testing.T) {
	if os.Getenv("HD_FULL") != "1" {
		t.Skip("set HD_FULL=1 to run the full-scale shape assertions")
	}
	o := Options{Scale: 0.35, Seed: 42}
	res, err := RunComparison(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Learners {
		t.Logf("%-22s mean acc %.4f", l, res.MeanAccuracy(l))
	}
	dist := res.MeanAccuracy(res.Learners[5])
	baseLow := res.MeanAccuracy(res.Learners[2])
	baseHigh := res.MeanAccuracy(res.Learners[3])
	neural := res.MeanAccuracy(res.Learners[4])

	// Fig. 4 shapes: DistHD(0.5k) beats baselineHD(0.5k) decisively and
	// reaches baselineHD(4k)-level accuracy — the 8× dimension reduction.
	if dist <= baseLow {
		t.Errorf("DistHD (%.4f) did not beat baselineHD at equal D (%.4f)", dist, baseLow)
	}
	if dist < baseHigh-0.02 {
		t.Errorf("DistHD at 0.5k (%.4f) fell short of baselineHD at 4k (%.4f)", dist, baseHigh)
	}
	// DistHD and NeuralHD should be comparable (paper: +1.88% for DistHD).
	if dist < neural-0.04 {
		t.Errorf("DistHD (%.4f) fell more than 4%% below NeuralHD (%.4f)", dist, neural)
	}

	// Fig. 5 shape: DistHD trains faster than the DNN and infers faster
	// than baselineHD at its high effective dimensionality.
	if s := res.speedup(res.Learners[0], res.Learners[5], false); s < 1 {
		t.Errorf("DistHD training speedup vs DNN = %.2fx, want > 1", s)
	}
	if s := res.speedup(res.Learners[3], res.Learners[5], true); s < 1 {
		t.Errorf("DistHD inference speedup vs baselineHD(4k) = %.2fx, want > 1", s)
	}
}
