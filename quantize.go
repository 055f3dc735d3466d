package disthd

// The 1-bit quantized deployment tier. Quantize1Bit freezes a trained
// f32 model into its packed bipolar view — the paper's most robust
// quantized configuration (Fig. 8) — where class hypervectors are sign
// bits, queries are encoded straight to sign bits (the trig-free packed
// RBF epilogue), and scoring is XOR+popcount agreement instead of a
// float dot product. A quantized Model keeps the full Model interface:
// Predict/PredictBatch/Scores/Evaluate route to the packed kernels,
// Save emits the packed wire format, Replica serving runs zero-alloc
// through the Batcher, and the champion/challenger Gate measures its
// true 1-bit accuracy because Evaluate is already the packed path. What
// it gives up is training: a quantized model is frozen — Update and
// Retrain refuse, because the adaptive rule needs f32 weights. Keep the
// f32 champion for learning and quantize successors from it.

import (
	"fmt"

	"repro/internal/bitpack"
	"repro/internal/encoding"
	"repro/internal/mat"
)

// Quantize1Bit returns a frozen 1-bit deployment view of the model: the
// sign bits of every class hypervector, packed for the XOR+popcount
// kernels, over a deep copy of the encoder so the original can keep
// learning while the quantized successor serves. Only RBF-encoded
// models quantize (the packed query encoder needs the RBF sign rule).
//
// Quantization changes accuracy — usually slightly, catastrophically at
// low dimensionality. Measure the delta before deploying:
// Quantize1BitGated quantizes and judges in one step.
func (m *Model) Quantize1Bit() (*Model, error) {
	if m.Quantized() {
		return nil, fmt.Errorf("disthd: model is already 1-bit quantized")
	}
	if m.kind != EncoderRBF {
		return nil, fmt.Errorf("disthd: only RBF-encoded models can be quantized")
	}
	if _, err := encoding.NewPackedRBF(m.clf.Enc); err != nil {
		return nil, fmt.Errorf("disthd: quantize: %w", err)
	}
	clf := m.clf.CloneDetached(1)
	k, d := m.Classes(), m.Dim()
	packed := bitpack.NewMatrix(k, d)
	for c := 0; c < k; c++ {
		packed.PackRow(c, clf.Model.Weights.Row(c))
	}
	return &Model{clf: clf, kind: m.kind, packed: packed, Info: m.Info}, nil
}

// DefaultQuantizeMargin is the holdout-accuracy regression a 1-bit
// successor may cost against its f32 source and still publish: up to 2
// points, which the packed tier pays for with a multiple of the batch
// throughput. POST /quantize judges at it unless ?margin= overrides it;
// registry installs and disthd-serve -quantize always do.
const DefaultQuantizeMargin = -0.02

// Quantize1BitGated is the 1-bit publication decision: it quantizes m
// (Quantize1Bit) and judges the successor against m through a Gate with
// MinMargin margin on the holdout (X, y). The caller publishes q when
// v.Publish and keeps serving m otherwise; q is returned either way, so
// an operator override can still publish it. An empty holdout publishes
// by default (v.HoldoutSize == 0), as Gate.Evaluate does.
func (m *Model) Quantize1BitGated(X [][]float64, y []int, margin float64) (q *Model, v GateVerdict, err error) {
	if q, err = m.Quantize1Bit(); err != nil {
		return nil, GateVerdict{}, err
	}
	if v, err = NewGate(GateConfig{MinMargin: margin}).Evaluate(m, q, X, y); err != nil {
		return nil, GateVerdict{}, err
	}
	return q, v, nil
}

// Quantized reports whether the model is a frozen 1-bit packed view
// (built by Quantize1Bit or loaded from the packed wire format). A
// quantized model serves through the XOR+popcount kernels and cannot
// learn; its ClassHypervector/DimensionSaliency views reflect the float
// weights the packing was taken from (±1 for a loaded model).
func (m *Model) Quantized() bool { return m.packed != nil }

// packedEncoder builds the per-call packed query encoder view. Cheap
// (one wrapper + closure); the zero-alloc serving path instead holds one
// per Replica.
func (m *Model) packedEncoder() *encoding.PackedRBF {
	p, err := encoding.NewPackedRBF(m.clf.Enc)
	if err != nil {
		// Quantize1Bit and the packed loader verified the encoder family.
		panic(fmt.Sprintf("disthd: quantized model lost its RBF encoder: %v", err))
	}
	return p
}

// packedPredictBatch classifies every row of X on the packed tier,
// returning the predictions and the agreement matrix (rows × classes).
// It is the quantized model's one query path: single-row Predict,
// PredictTop2 and Scores run it as one-row batches.
func (m *Model) packedPredictBatch(X [][]float64) ([]int, []int32) {
	n := len(X)
	x32 := mat.NewDense32(n, m.Features())
	for i, row := range X {
		x32.SetRow(i, row)
	}
	qm := bitpack.NewMatrix(n, m.Dim())
	m.packedEncoder().EncodeBatchPackedInto(x32, mat.NewDense32(n, m.Dim()), qm)
	out := make([]int, n)
	scores := make([]int32, n*m.Classes())
	bitpack.PredictBatchInto(m.packed, qm, scores, out)
	return out, scores
}

// packedTop2 returns the two highest-agreement classes, best first,
// first index winning ties — the packed analogue of model.Top2.
func packedTop2(scores []int32) (int, int) {
	best, second := 0, -1
	for c := 1; c < len(scores); c++ {
		switch {
		case scores[c] > scores[best]:
			best, second = c, best
		case second < 0 || scores[c] > scores[second]:
			second = c
		}
	}
	return best, second
}
