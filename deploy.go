package disthd

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/rng"
)

// Deployed is the edge-deployment view of a trained model: the class
// hypervectors packed into a b-bit memory image (1, 2, 4 or 8 bits per
// dimension) plus the encoder needed to map inputs into hyperspace.
// It supports the robustness methodology of the paper's Fig. 8: inject
// random bit flips into the image and measure the surviving accuracy.
type Deployed struct {
	parent *Model
	bits   int
	image  *quant.Image
	// work is the unpacked model used for classification; refreshed after
	// every injection.
	work *model.Model
}

// Deploy packs the model's class hypervectors at the given precision.
// Lower precision means a smaller memory footprint and, per the paper,
// higher robustness per stored bit (a flipped low-order bit cannot move a
// weight far when there are no low-order bits).
func (m *Model) Deploy(bits int) (*Deployed, error) {
	if !quant.ValidBits(bits) {
		return nil, fmt.Errorf("disthd: unsupported precision %d bits (want 1, 2, 4 or 8)", bits)
	}
	img, err := quant.Pack(m.clf.Model.Weights.Data, bits)
	if err != nil {
		return nil, err
	}
	d := &Deployed{parent: m, bits: bits, image: img}
	d.refresh()
	return d, nil
}

// refresh rebuilds the working model from the (possibly injured) image.
func (d *Deployed) refresh() {
	vals := d.image.Unpack()
	w := model.New(d.parent.Classes(), d.parent.Dim())
	copy(w.Weights.Data, vals)
	w.RefreshNorms()
	d.work = w
}

// Bits returns the deployment precision.
func (d *Deployed) Bits() int { return d.bits }

// MemoryBits returns the size of the deployed model image in bits.
func (d *Deployed) MemoryBits() int { return d.image.TotalBits() }

// Inject flips rate·MemoryBits randomly chosen bits of the model image —
// the paper's hardware-error model — and refreshes the working model.
// Repeated calls accumulate damage; use Restore to heal.
func (d *Deployed) Inject(rate float64, seed uint64) error {
	if err := d.image.FlipBits(rate, rng.New(seed)); err != nil {
		return err
	}
	d.refresh()
	return nil
}

// Restore re-packs the image from the parent model, undoing all injected
// faults.
func (d *Deployed) Restore() error {
	img, err := quant.Pack(d.parent.clf.Model.Weights.Data, d.bits)
	if err != nil {
		return err
	}
	d.image = img
	d.refresh()
	return nil
}

// Predict classifies a feature vector with the deployed (quantized,
// possibly injured) model.
func (d *Deployed) Predict(x []float64) (int, error) {
	if len(x) != d.parent.Features() {
		return 0, fmt.Errorf("disthd: input has %d features, model expects %d", len(x), d.parent.Features())
	}
	h := make([]float64, d.parent.clf.Enc.Dim())
	d.parent.clf.Enc.Encode(x, h)
	return d.work.Predict(h), nil
}

// Evaluate returns the deployed model's accuracy over a labeled set.
func (d *Deployed) Evaluate(X [][]float64, y []int) (float64, error) {
	if len(X) != len(y) || len(X) == 0 {
		return 0, fmt.Errorf("disthd: bad evaluation set (%d samples, %d labels)", len(X), len(y))
	}
	if err := d.parent.checkBatch(X, nil); err != nil {
		return 0, err
	}
	H := d.parent.clf.Enc.EncodeBatch(mat.FromRows(X))
	return model.Accuracy(d.work, H, y), nil
}
