package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// Every experiment test runs at Quick scale so the suite stays fast; the
// full-scale tables come from `go run ./cmd/hdbench -exp all -scale 0.35`.

func TestOptionsValidate(t *testing.T) {
	o := Options{Scale: 0}
	if err := o.Validate(); err == nil {
		t.Fatal("zero scale accepted")
	}
	o = QuickOptions()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTable1(t *testing.T) {
	res, err := RunTable1(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("expected 5 datasets, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.TrainSize <= 0 || row.TestSize <= 0 {
			t.Fatalf("dataset %s has empty split", row.Name)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"MNIST", "UCIHAR", "ISOLET", "PAMAP2", "DIABETES"} {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("rendered table missing %s:\n%s", name, buf.String())
		}
	}
}

func TestComparisonShapes(t *testing.T) {
	res, err := RunComparison(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 5 || len(res.Learners) != 6 {
		t.Fatalf("got %d datasets, %d learners", len(res.Datasets), len(res.Learners))
	}
	for _, l := range res.Learners {
		for _, ds := range res.Datasets {
			lr := res.Get(l, ds)
			if lr == nil {
				t.Fatalf("missing result for %s/%s", l, ds)
			}
			if lr.Accuracy < 0 || lr.Accuracy > 1 {
				t.Fatalf("%s/%s accuracy %v out of range", l, ds, lr.Accuracy)
			}
			if lr.TrainSecs <= 0 || lr.InferSecs <= 0 {
				t.Fatalf("%s/%s has non-positive timing", l, ds)
			}
		}
	}
	// Fig 4 shape: every learner beats chance on average.
	for _, l := range res.Learners {
		if res.MeanAccuracy(l) < 0.3 {
			t.Fatalf("%s mean accuracy %.3f at or below chance", l, res.MeanAccuracy(l))
		}
	}
	// The paper's ordering claims are asserted at full scale (see
	// TestFullScaleShapes, gated behind HD_FULL=1); at the quick smoke
	// scale the datasets are tiny and dynamic encoders churn on almost no
	// data, so only a generous sanity margin is checked here.
	dist := res.MeanAccuracy(res.Learners[5])
	baseLow := res.MeanAccuracy(res.Learners[2])
	if dist < baseLow-0.15 {
		t.Fatalf("DistHD (%.3f) collapsed far below the bipolar static baseline (%.3f)", dist, baseLow)
	}
	var buf bytes.Buffer
	if err := res.RenderFig4(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.RenderFig5(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DistHD") {
		t.Fatal("render output missing DistHD")
	}
}

func TestFig2a(t *testing.T) {
	res, err := RunFig2a(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DimAccs) != len(res.Dims) || len(res.IterAccs) != len(res.Iters) {
		t.Fatal("sweep lengths mismatch")
	}
	// Static HDC accuracy should not collapse as D grows.
	if res.DimAccs[len(res.DimAccs)-1] < res.DimAccs[0]-0.05 {
		t.Fatalf("static HDC got worse with more dims: %v", res.DimAccs)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig2bTopKOrdering(t *testing.T) {
	res, err := RunFig2b(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Iterations {
		if res.Top1[i] > res.Top2[i] || res.Top2[i] > res.Top3[i] {
			t.Fatalf("top-k ordering violated at checkpoint %d: %v %v %v",
				i, res.Top1[i], res.Top2[i], res.Top3[i])
		}
	}
	// The motivating observation: top-2 clearly above top-1 at the end.
	last := len(res.Iterations) - 1
	if res.Top2[last] <= res.Top1[last] {
		t.Fatalf("top-2 (%v) not above top-1 (%v)", res.Top2[last], res.Top1[last])
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig6(t *testing.T) {
	res, err := RunFig6(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 2 {
		t.Fatalf("expected 2 curves, got %d", len(res.Curves))
	}
	for _, c := range res.Curves {
		if c.AUC < 0.5 {
			t.Fatalf("%s AUC %.3f below random", c.Label, c.AUC)
		}
		last := c.Points[len(c.Points)-1]
		if last.FPR != 1 || last.TPR != 1 {
			t.Fatalf("%s curve does not end at (1,1)", c.Label)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig7(t *testing.T) {
	res, err := RunFig7(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) != len(res.DistHDIters) {
		t.Fatal("checkpoint bookkeeping broken")
	}
	// Strict ordering is asserted at full scale; here only sanity.
	last := len(res.Checkpoints) - 1
	if res.DistHDIters[last] <= res.BaselineIters[last]-0.15 {
		t.Fatalf("DistHD final %.3f collapsed far below baselineHD %.3f",
			res.DistHDIters[last], res.BaselineIters[last])
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig8(t *testing.T) {
	res, err := RunFig8(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Quality loss must be broadly non-decreasing in the error rate for the
	// DNN (allowing small trial noise).
	for i := 1; i < len(res.DNN); i++ {
		if res.DNN[i] < res.DNN[i-1]-0.1 {
			t.Fatalf("DNN loss curve wildly non-monotone: %v", res.DNN)
		}
	}
	// The paper's key claims, in shape: at the highest error rate the 1-bit
	// DistHD at the largest D degrades less than the 8-bit DNN.
	ei := len(res.ErrorRates) - 1
	distBest := res.DistHD[0][len(res.Dims)-1][ei]
	if distBest > res.DNN[ei] {
		t.Fatalf("DistHD 1-bit (%.3f) should degrade less than DNN (%.3f) at %.0f%% flips",
			distBest, res.DNN[ei], 100*res.ErrorRates[ei])
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestAblations(t *testing.T) {
	o := QuickOptions()
	a2, err := RunAblationA2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(a2.ProseAcc) != 5 || len(a2.LiteralAcc) != 5 {
		t.Fatal("ablA2 wrong lengths")
	}
	reg, err := RunAblationRegen(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Accs) != len(reg.Rates) {
		t.Fatal("ablReg wrong lengths")
	}
	// R=0 must leave effective D at the physical D.
	if reg.EffectiveDims[0] != 64 {
		t.Fatalf("R=0 effective dim %d, want physical 64", reg.EffectiveDims[0])
	}
	enc, err := RunAblationEncoder(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.RBFAcc) != 5 {
		t.Fatal("ablEnc wrong lengths")
	}
	var buf bytes.Buffer
	for _, r := range []Renderer{a2, reg, enc} {
		if err := r.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunDispatcher(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table1", QuickOptions(), &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("dispatcher produced no output")
	}
	if err := Run("nope", QuickOptions(), &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentIDsCoverDispatcher(t *testing.T) {
	// Every listed id must dispatch without "unknown experiment" errors.
	// (Run with an invalid scale so the experiment itself fails fast after
	// id resolution.)
	for _, id := range ExperimentIDs() {
		err := Run(id, Options{Scale: -1}, &bytes.Buffer{})
		if err == nil {
			t.Fatalf("%s ran with invalid options", id)
		}
		if strings.Contains(err.Error(), "unknown experiment") {
			t.Fatalf("listed id %q not wired in dispatcher", id)
		}
	}
}

func TestTableRenderer(t *testing.T) {
	tb := newTable("A", "LongHeader")
	tb.add("x", "y")
	tb.addf("%d\t%s", 12, "z")
	var buf bytes.Buffer
	if err := tb.render(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[1], "-") {
		t.Fatal("missing rule line")
	}
}

func TestGeoMeanRatio(t *testing.T) {
	r := geoMeanRatio([]float64{4, 9}, []float64{1, 1})
	if r < 5.9 || r > 6.1 { // sqrt(36) = 6
		t.Fatalf("geoMeanRatio = %v, want 6", r)
	}
	if geoMeanRatio(nil, nil) != 0 {
		t.Fatal("empty ratio should be 0")
	}
	if geoMeanRatio([]float64{1, 0}, []float64{1, 2}) != 1 {
		t.Fatal("zero entries should be skipped")
	}
}

func TestDimLabel(t *testing.T) {
	cases := map[int]string{512: "0.5k", 1024: "1k", 2048: "2k", 4096: "4k", 6144: "6k", 3000: "3k", 64: "64"}
	for d, want := range cases {
		if got := dimLabel(d); got != want {
			t.Fatalf("dimLabel(%d) = %q, want %q", d, got, want)
		}
	}
}

func TestHeadline(t *testing.T) {
	res, err := RunHeadline(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.DimReduction < 1 {
		t.Fatalf("dim reduction %v below 1", res.DimReduction)
	}
	if res.TrainSpeedupVsDNN <= 0 || res.InferSpeedupVsHDC <= 0 {
		t.Fatalf("degenerate speedups: %+v", res)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2.12%", "8.0x", "12.90x"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("headline render missing paper reference %q:\n%s", want, buf.String())
		}
	}
}

func TestGridSearch(t *testing.T) {
	res, err := RunGridSearch(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 5 {
		t.Fatalf("got %d datasets", len(res.Datasets))
	}
	for i := range res.Datasets {
		if res.DNNBest[i] == nil || res.SVMBest[i] == nil {
			t.Fatalf("dataset %s missing best points", res.Datasets[i])
		}
		for _, a := range [][]float64{res.DNNDefault, res.DNNTuned, res.SVMDefault, res.SVMTuned} {
			if a[i] < 0 || a[i] > 1 {
				t.Fatalf("accuracy out of range: %v", a[i])
			}
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeCostExperiment(t *testing.T) {
	res, err := RunEdgeCost(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) != 6 {
		t.Fatalf("got %d profiles", len(res.Profiles))
	}
	// the high-D float HDC must cost more than the low-D one
	if res.Profiles[2].EnergyPJ <= res.Profiles[3].EnergyPJ {
		t.Fatal("high-D baseline should cost more energy than low-D DistHD")
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestInputNoise(t *testing.T) {
	res, err := RunInputNoise(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DistHD) != len(res.NoiseLevels) || len(res.DNN) != len(res.NoiseLevels) {
		t.Fatal("curve lengths mismatch")
	}
	// Heavy noise must hurt both models relative to clean accuracy.
	last := len(res.NoiseLevels) - 1
	if res.DistHD[last] > res.CleanDist+0.01 {
		t.Fatalf("DistHD improved under heavy noise: %.3f vs clean %.3f", res.DistHD[last], res.CleanDist)
	}
	if res.DNN[last] > res.CleanDNN+0.01 {
		t.Fatalf("DNN improved under heavy noise: %.3f vs clean %.3f", res.DNN[last], res.CleanDNN)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig4Stats(t *testing.T) {
	res, err := RunFig4Stats(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 3 {
		t.Fatalf("quick mode should run 3 seeds, got %d", len(res.Seeds))
	}
	if len(res.Mean) != 6 || len(res.Std) != 6 {
		t.Fatal("aggregate lengths wrong")
	}
	for l, m := range res.Mean {
		if m <= 0 || m > 1 {
			t.Fatalf("learner %d mean %v out of range", l, m)
		}
		if res.Std[l] < 0 {
			t.Fatalf("negative std %v", res.Std[l])
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "±") {
		t.Fatal("render missing std column")
	}
}

func TestHDTrainers(t *testing.T) {
	res, err := RunHDTrainers(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 5 {
		t.Fatalf("got %d datasets", len(res.Datasets))
	}
	// At the tiny quick scale, bundling (a class-mean estimator) can beat
	// the error-driven rules — a small-sample effect. Only sanity-check
	// here: every trainer must beat chance on average; the full-scale
	// ordering (adaptive ≥ bundling) shows at hdbench scale.
	for name, accs := range map[string][]float64{
		"bundling": res.Bundling, "adaptive": res.Adaptive, "online": res.Online,
	} {
		var mean float64
		for _, a := range accs {
			mean += a / 5
		}
		if mean < 0.3 {
			t.Fatalf("%s trainer mean %.3f at or below chance", name, mean)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

// Experiments must be bitwise deterministic given identical options (the
// whole reproduction depends on it). Timing-free experiments are compared
// as rendered text.
func TestExperimentDeterminism(t *testing.T) {
	for _, id := range []string{"table1", "fig2b", "fig6", "edgecost", "ablReg"} {
		var a, b bytes.Buffer
		if err := Run(id, QuickOptions(), &a); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := Run(id, QuickOptions(), &b); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s renders differ across identical runs", id)
		}
	}
}
