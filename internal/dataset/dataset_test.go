package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/rng"
)

func tinySpec(seed uint64) *Spec {
	return &Spec{
		Name: "tiny", Features: 12, Classes: 3,
		Train: 300, Test: 120,
		Subclusters: 2, LatentDim: 4,
		CenterStd: 1.0, IntraStd: 0.3, Warp: 0.5, NoiseStd: 0.1,
		Seed: seed,
	}
}

func TestValidate(t *testing.T) {
	d := &Dataset{Name: "d", X: mat.New(2, 3), Y: []int{0, 1}, Classes: 2}
	if err := d.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	bad := &Dataset{Name: "d", X: mat.New(2, 3), Y: []int{0}, Classes: 2}
	if err := bad.Validate(); err == nil {
		t.Fatal("row/label mismatch accepted")
	}
	bad2 := &Dataset{Name: "d", X: mat.New(1, 3), Y: []int{5}, Classes: 2}
	if err := bad2.Validate(); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	bad3 := &Dataset{Name: "d", X: mat.New(0, 3), Y: nil, Classes: 0}
	if err := bad3.Validate(); err == nil {
		t.Fatal("zero classes accepted")
	}
}

func TestGenerateShapes(t *testing.T) {
	train, test, err := tinySpec(1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if train.N() != 300 || test.N() != 120 {
		t.Fatalf("sizes %d/%d, want 300/120", train.N(), test.N())
	}
	if train.Features() != 12 || test.Features() != 12 {
		t.Fatal("wrong feature count")
	}
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := test.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _, err := tinySpec(7).Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := tinySpec(7).Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatalf("same-seed generation diverged at element %d", i)
		}
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("labels diverged")
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _, _ := tinySpec(1).Generate()
	b, _, _ := tinySpec(2).Generate()
	same := 0
	for i := range a.X.Data {
		if a.X.Data[i] == b.X.Data[i] {
			same++
		}
	}
	if same == len(a.X.Data) {
		t.Fatal("different seeds generated identical data")
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []func(*Spec){
		func(s *Spec) { s.Features = 0 },
		func(s *Spec) { s.Classes = 1 },
		func(s *Spec) { s.Train = 0 },
		func(s *Spec) { s.Test = 0 },
		func(s *Spec) { s.Subclusters = 0 },
		func(s *Spec) { s.LatentDim = 0 },
	}
	for i, mutate := range cases {
		s := tinySpec(1)
		mutate(s)
		if _, _, err := s.Generate(); err == nil {
			t.Fatalf("case %d: invalid spec accepted", i)
		}
	}
}

// Nearest-centroid accuracy on generated data must be far above chance:
// the generator is supposed to produce learnable structure.
func TestGeneratedDataIsLearnable(t *testing.T) {
	train, test, err := tinySpec(3).Generate()
	if err != nil {
		t.Fatal(err)
	}
	NormalizePair(train, test)
	q := train.Features()
	centroids := mat.New(train.Classes, q)
	counts := make([]int, train.Classes)
	for i := 0; i < train.N(); i++ {
		mat.Axpy(centroids.Row(train.Y[i]), 1, train.X.Row(i))
		counts[train.Y[i]]++
	}
	for c := 0; c < train.Classes; c++ {
		if counts[c] > 0 {
			mat.Scale(centroids.Row(c), 1/float64(counts[c]))
		}
	}
	correct := 0
	for i := 0; i < test.N(); i++ {
		sims := make([]float64, test.Classes)
		for c := 0; c < test.Classes; c++ {
			sims[c] = mat.CosineSim(test.X.Row(i), centroids.Row(c))
		}
		if mat.ArgMax(sims) == test.Y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(test.N())
	if acc < 0.6 {
		t.Fatalf("nearest-centroid accuracy %.3f too close to chance (1/3)", acc)
	}
}

func TestAllClassesPresent(t *testing.T) {
	train, _, err := tinySpec(4).Generate()
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, train.Classes)
	for _, y := range train.Y {
		counts[y]++
	}
	for c, n := range counts {
		if n == 0 {
			t.Fatalf("class %d has no samples", c)
		}
	}
}

func TestSplit(t *testing.T) {
	d, _, _ := tinySpec(5).Generate()
	train, test := d.Split(0.75, 9)
	if train.N()+test.N() != d.N() {
		t.Fatal("split loses samples")
	}
	if train.N() != 225 {
		t.Fatalf("train size %d, want 225", train.N())
	}
	// Deterministic.
	tr2, _ := d.Split(0.75, 9)
	for i := range train.Y {
		if train.Y[i] != tr2.Y[i] {
			t.Fatal("split not deterministic")
		}
	}
}

func TestShufflePreservesPairs(t *testing.T) {
	d, _, _ := tinySpec(6).Generate()
	// Tag: first feature = label to verify rows move with labels.
	for i := 0; i < d.N(); i++ {
		d.X.Row(i)[0] = float64(d.Y[i])
	}
	d.Shuffle(rng.New(1))
	for i := 0; i < d.N(); i++ {
		if int(d.X.Row(i)[0]) != d.Y[i] {
			t.Fatal("shuffle separated a sample from its label")
		}
	}
}

func TestNormalizerStats(t *testing.T) {
	train, test, err := tinySpec(8).Generate()
	if err != nil {
		t.Fatal(err)
	}
	NormalizePair(train, test)
	// After z-scoring on train, train features must be ~N(0,1).
	for j := 0; j < train.Features(); j++ {
		col := make([]float64, train.N())
		for i := 0; i < train.N(); i++ {
			col[i] = train.X.At(i, j)
		}
		if m := mat.Mean(col); math.Abs(m) > 1e-9 {
			t.Fatalf("feature %d mean %v after z-score", j, m)
		}
		if v := mat.Variance(col); math.Abs(v-1) > 1e-6 {
			t.Fatalf("feature %d variance %v after z-score", j, v)
		}
	}
}

func TestNormalizerConstantFeature(t *testing.T) {
	d := &Dataset{Name: "c", X: mat.FromRows([][]float64{{5, 1}, {5, 3}}), Y: []int{0, 1}, Classes: 2}
	n := FitNormalizer(d)
	n.Apply(d)
	if d.X.At(0, 0) != 0 || d.X.At(1, 0) != 0 {
		t.Fatal("constant feature should map to 0")
	}
}

func TestPaperSpecsMatchTable1(t *testing.T) {
	specs := PaperSpecs(1, 42)
	want := map[string][2]int{
		"MNIST":    {784, 10},
		"UCIHAR":   {561, 12},
		"ISOLET":   {617, 26},
		"PAMAP2":   {54, 5},
		"DIABETES": {49, 3},
	}
	if len(specs) != len(want) {
		t.Fatalf("got %d specs, want %d", len(specs), len(want))
	}
	for _, s := range specs {
		nk, ok := want[s.Name]
		if !ok {
			t.Fatalf("unexpected dataset %q", s.Name)
		}
		if s.Features != nk[0] || s.Classes != nk[1] {
			t.Fatalf("%s: n=%d k=%d, want n=%d k=%d", s.Name, s.Features, s.Classes, nk[0], nk[1])
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSpecByName(t *testing.T) {
	if _, err := SpecByName("MNIST", 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := SpecByName("nope", 1, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestLoadSmallScale(t *testing.T) {
	train, test, err := Load("PAMAP2", 0.02, 11)
	if err != nil {
		t.Fatal(err)
	}
	if train.Features() != 54 || test.Classes != 5 {
		t.Fatal("Load returned wrong shape")
	}
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSubset(t *testing.T) {
	d, _, _ := tinySpec(10).Generate()
	sub := d.Subset([]int{5, 10, 15})
	if sub.N() != 3 {
		t.Fatal("subset wrong size")
	}
	for i, j := range []int{5, 10, 15} {
		if sub.Y[i] != d.Y[j] {
			t.Fatal("subset label mismatch")
		}
	}
	// copied, not aliased
	sub.X.Set(0, 0, 12345)
	if d.X.At(5, 0) == 12345 {
		t.Fatal("Subset aliases parent storage")
	}
}

// Property: generation is deterministic for arbitrary seeds.
func TestGenerateDeterminismProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := tinySpec(seed)
		s.Train, s.Test = 20, 10
		a, _, err := s.Generate()
		if err != nil {
			return false
		}
		b, _, err := s.Generate()
		if err != nil {
			return false
		}
		for i := range a.X.Data {
			if a.X.Data[i] != b.X.Data[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
