// Package dataset provides the data substrate for the DistHD reproduction:
// an in-memory dataset container, feature normalization, train/test
// splitting, file loaders (CSV and IDX/MNIST formats) and — because the
// paper's five evaluation datasets cannot be redistributed here — synthetic
// generators that are matched to each dataset's published shape (feature
// count n, class count k) and qualitative structure (multi-modal classes on
// nonlinear manifolds, with per-dataset overlap controlling difficulty).
//
// All generated learners in this repo consume the same samples, so the
// relative comparisons the paper makes (HDC vs DNN vs SVM, static vs
// dynamic encoders, dimensionality sweeps) are preserved even though the
// absolute accuracy values differ from the authors' testbed.
package dataset

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/rng"
)

// Dataset is a labeled classification dataset held in memory.
type Dataset struct {
	Name string
	// X holds one sample per row (N × Features).
	X *mat.Dense
	// Y holds the class label of each row, in [0, Classes).
	Y []int
	// Classes is the number of distinct labels.
	Classes int
}

// N returns the number of samples.
func (d *Dataset) N() int { return d.X.Rows }

// Features returns the feature dimensionality.
func (d *Dataset) Features() int { return d.X.Cols }

// Validate checks internal consistency and returns a descriptive error for
// any violation (row/label count mismatch, label out of range).
func (d *Dataset) Validate() error {
	if d.X == nil {
		return fmt.Errorf("dataset %q: nil feature matrix", d.Name)
	}
	if len(d.Y) != d.X.Rows {
		return fmt.Errorf("dataset %q: %d rows but %d labels", d.Name, d.X.Rows, len(d.Y))
	}
	if d.Classes <= 0 {
		return fmt.Errorf("dataset %q: non-positive class count %d", d.Name, d.Classes)
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.Classes {
			return fmt.Errorf("dataset %q: label %d at row %d outside [0,%d)", d.Name, y, i, d.Classes)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	y := make([]int, len(d.Y))
	copy(y, d.Y)
	return &Dataset{Name: d.Name, X: d.X.Clone(), Y: y, Classes: d.Classes}
}

// Subset returns a new dataset containing the given row indices (copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{
		Name:    d.Name,
		X:       mat.New(len(idx), d.Features()),
		Y:       make([]int, len(idx)),
		Classes: d.Classes,
	}
	for i, j := range idx {
		copy(out.X.Row(i), d.X.Row(j))
		out.Y[i] = d.Y[j]
	}
	return out
}

// Shuffle permutes the samples in place using the given stream.
func (d *Dataset) Shuffle(r *rng.Rand) {
	r.Shuffle(d.N(), func(i, j int) {
		ri, rj := d.X.Row(i), d.X.Row(j)
		for c := range ri {
			ri[c], rj[c] = rj[c], ri[c]
		}
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
}

// Split partitions d into train and test sets with the requested train
// fraction after a deterministic shuffle.
func (d *Dataset) Split(trainFrac float64, seed uint64) (train, test *Dataset) {
	c := d.Clone()
	c.Shuffle(rng.New(seed))
	nTrain := int(math.Round(trainFrac * float64(c.N())))
	if nTrain < 0 {
		nTrain = 0
	}
	if nTrain > c.N() {
		nTrain = c.N()
	}
	idx := make([]int, c.N())
	for i := range idx {
		idx[i] = i
	}
	train = c.Subset(idx[:nTrain])
	test = c.Subset(idx[nTrain:])
	return train, test
}

// Normalizer holds per-feature affine statistics fit on a training set and
// applied to any split, so test data never leaks into the statistics.
type Normalizer struct {
	Mean, InvStd []float64
}

// FitNormalizer computes per-feature mean and 1/std over d. Features with
// zero variance get InvStd = 0, mapping them to constant 0 after Apply.
func FitNormalizer(d *Dataset) *Normalizer {
	q := d.Features()
	n := &Normalizer{Mean: make([]float64, q), InvStd: make([]float64, q)}
	count := float64(d.N())
	if count == 0 {
		return n
	}
	for i := 0; i < d.N(); i++ {
		row := d.X.Row(i)
		for j, v := range row {
			n.Mean[j] += v
		}
	}
	for j := range n.Mean {
		n.Mean[j] /= count
	}
	variance := make([]float64, q)
	for i := 0; i < d.N(); i++ {
		row := d.X.Row(i)
		for j, v := range row {
			dv := v - n.Mean[j]
			variance[j] += dv * dv
		}
	}
	for j := range variance {
		sd := math.Sqrt(variance[j] / count)
		if sd > 1e-12 {
			n.InvStd[j] = 1 / sd
		}
	}
	return n
}

// Apply z-scores every sample of d in place using the fitted statistics.
func (n *Normalizer) Apply(d *Dataset) {
	if d.Features() != len(n.Mean) {
		panic(fmt.Sprintf("dataset: normalizer fitted for %d features applied to %d", len(n.Mean), d.Features()))
	}
	for i := 0; i < d.N(); i++ {
		row := d.X.Row(i)
		for j := range row {
			row[j] = (row[j] - n.Mean[j]) * n.InvStd[j]
		}
	}
}

// NormalizePair fits on train and applies to both splits, the standard
// leakage-free protocol used by every experiment in this repo.
func NormalizePair(train, test *Dataset) {
	n := FitNormalizer(train)
	n.Apply(train)
	n.Apply(test)
}
