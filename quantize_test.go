package disthd

import (
	"bytes"
	"testing"
)

// trainQuantFixture trains a small healthy-D model on PAMAP2 synth data.
func trainQuantFixture(t *testing.T, dim int) (*Model, DataSplit, DataSplit) {
	t.Helper()
	train, test, err := SyntheticBenchmark("PAMAP2", 0.15, 7)
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Dim = dim
	cfg.Iterations = 6
	m, err := TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return m, train, test
}

// TestQuantize1BitServesCloseToF32 checks the 1-bit tier loses little
// accuracy at a healthy dimensionality and that the quantized model
// reports itself as such. The gap shrinks as D grows (sign-quantization
// noise averages out across dimensions — the paper's Fig. 8 robustness
// claim); at D=4096 on the PAMAP2 stand-in it is ~3 points.
func TestQuantize1BitServesCloseToF32(t *testing.T) {
	m, _, test := trainQuantFixture(t, 4096)
	q, err := m.Quantize1Bit()
	if err != nil {
		t.Fatalf("Quantize1Bit: %v", err)
	}
	if !q.Quantized() || m.Quantized() {
		t.Fatal("Quantized flags wrong way around")
	}
	accF, err := m.Evaluate(test.X, test.Y)
	if err != nil {
		t.Fatalf("f32 evaluate: %v", err)
	}
	accQ, err := q.Evaluate(test.X, test.Y)
	if err != nil {
		t.Fatalf("1-bit evaluate: %v", err)
	}
	if accQ < accF-0.06 {
		t.Fatalf("1-bit accuracy %.3f collapsed vs f32 %.3f", accQ, accF)
	}
	if _, err := m.Quantize1Bit(); err != nil {
		t.Fatalf("re-quantizing the champion must keep working: %v", err)
	}
	if _, err := q.Quantize1Bit(); err == nil {
		t.Fatal("quantizing a quantized model must error")
	}
}

// TestQuantize1BitGated pins the 1-bit publication decision: the
// successor is Quantize1Bit's, the verdict is the Gate's at the given
// margin against the f32 source, an empty holdout publishes, and a
// quantized source is refused.
func TestQuantize1BitGated(t *testing.T) {
	m, _, test := trainQuantFixture(t, 256)
	X, y := test.X[:40], test.Y[:40]
	plain, err := m.Quantize1Bit()
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewGate(GateConfig{MinMargin: DefaultQuantizeMargin}).Evaluate(m, plain, X, y)
	if err != nil {
		t.Fatal(err)
	}
	q, v, err := m.Quantize1BitGated(X, y, DefaultQuantizeMargin)
	if err != nil {
		t.Fatal(err)
	}
	if v != want {
		t.Fatalf("verdict %+v, the gate says %+v", v, want)
	}
	got, _ := q.PredictBatch(X)
	ref, _ := plain.PredictBatch(X)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("row %d: gated successor predicts %d, Quantize1Bit %d", i, got[i], ref[i])
		}
	}
	for _, c := range []struct {
		margin  float64
		publish bool
	}{{v.Margin - 0.01, true}, {v.Margin + 0.01, false}} {
		if _, v, _ := m.Quantize1BitGated(X, y, c.margin); v.Publish != c.publish {
			t.Fatalf("margin %+.3f against measured %+.3f: publish %v", c.margin, v.Margin, v.Publish)
		}
	}
	if _, v, err := m.Quantize1BitGated(nil, nil, DefaultQuantizeMargin); err != nil || !v.Publish || v.HoldoutSize != 0 {
		t.Fatalf("empty holdout: %+v, %v; want an evidence-free publish", v, err)
	}
	if _, _, err := q.Quantize1BitGated(X, y, DefaultQuantizeMargin); err == nil {
		t.Fatal("quantizing a quantized model must error")
	}
}

// TestQuantizedModelIsFrozen pins the learning guards: Update and
// Retrain refuse on the packed tier.
func TestQuantizedModelIsFrozen(t *testing.T) {
	m, train, _ := trainQuantFixture(t, 256)
	q, err := m.Quantize1Bit()
	if err != nil {
		t.Fatalf("Quantize1Bit: %v", err)
	}
	if _, err := q.Update(train.X[0], train.Y[0]); err == nil {
		t.Fatal("Update on a quantized model must error")
	}
	if _, err := q.Retrain(train.X, train.Y, RetrainConfig{}); err == nil {
		t.Fatal("Retrain on a quantized model must error")
	}
}

// TestQuantizedSingleMatchesBatchAndReplica checks the three packed
// serving paths — single Predict, public PredictBatch, and the
// zero-alloc Replica — agree exactly, and that Scores stays on the
// cosine scale.
func TestQuantizedSingleMatchesBatchAndReplica(t *testing.T) {
	m, _, test := trainQuantFixture(t, 512)
	q, err := m.Quantize1Bit()
	if err != nil {
		t.Fatalf("Quantize1Bit: %v", err)
	}
	n := len(test.X)
	if n > 64 {
		n = 64
	}
	X := test.X[:n]

	batch, err := q.PredictBatch(X)
	if err != nil {
		t.Fatalf("PredictBatch: %v", err)
	}
	rep, err := q.NewReplica(7) // non-divisor chunk size: exercises chunking
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}
	out := make([]int, n)
	if _, err := rep.PredictBatch(q, X, out); err != nil {
		t.Fatalf("replica PredictBatch: %v", err)
	}
	for i, x := range X {
		single, err := q.Predict(x)
		if err != nil {
			t.Fatalf("Predict: %v", err)
		}
		if single != batch[i] || out[i] != batch[i] {
			t.Fatalf("row %d: single %d, batch %d, replica %d diverge", i, single, batch[i], out[i])
		}
		scores, err := q.Scores(x)
		if err != nil {
			t.Fatalf("Scores: %v", err)
		}
		for c, s := range scores {
			if s < -1 || s > 1 {
				t.Fatalf("row %d class %d: packed cosine %v outside [-1,1]", i, c, s)
			}
		}
		first, second, err := q.PredictTop2(x)
		if err != nil {
			t.Fatalf("PredictTop2: %v", err)
		}
		if first != single || second == first {
			t.Fatalf("row %d: top2 (%d,%d) inconsistent with predict %d", i, first, second, single)
		}
	}
	// An f32 replica of the same shape must also serve the quantized
	// model (the Swapper hot-swap scenario) with identical results.
	repF, err := m.NewReplica(16)
	if err != nil {
		t.Fatalf("NewReplica(f32): %v", err)
	}
	out2 := make([]int, n)
	if _, err := repF.PredictBatch(q, X, out2); err != nil {
		t.Fatalf("f32-built replica serving quantized: %v", err)
	}
	for i := range out {
		if out[i] != out2[i] {
			t.Fatalf("row %d: replica rebind diverged %d vs %d", i, out[i], out2[i])
		}
	}
}

// TestQuantizedSaveLoadRoundTrip checks the packed wire format: a
// quantized model round-trips through Save/Load with bit-identical
// packed classes and identical predictions.
func TestQuantizedSaveLoadRoundTrip(t *testing.T) {
	m, _, test := trainQuantFixture(t, 300) // non-multiple of 64: tail word on the wire
	q, err := m.Quantize1Bit()
	if err != nil {
		t.Fatalf("Quantize1Bit: %v", err)
	}
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	f32Size := func() int {
		var b bytes.Buffer
		if err := m.Save(&b); err != nil {
			t.Fatalf("f32 Save: %v", err)
		}
		return b.Len()
	}()
	if buf.Len() >= f32Size {
		t.Fatalf("packed export %dB not smaller than f32 export %dB", buf.Len(), f32Size)
	}
	ld, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !ld.Quantized() {
		t.Fatal("loaded model lost its quantized flag")
	}
	for c := 0; c < q.Classes(); c++ {
		a, b := q.packed.Row(c), ld.packed.Row(c)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("class %d word %d: %#x vs %#x after round trip", c, j, a[j], b[j])
			}
		}
	}
	n := len(test.X)
	if n > 32 {
		n = 32
	}
	want, err := q.PredictBatch(test.X[:n])
	if err != nil {
		t.Fatalf("PredictBatch: %v", err)
	}
	got, err := ld.PredictBatch(test.X[:n])
	if err != nil {
		t.Fatalf("loaded PredictBatch: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: loaded model predicts %d, original %d", i, got[i], want[i])
		}
	}
}

// TestQuantizeRejectsLinearEncoder pins the encoder-family guard.
func TestQuantizeRejectsLinearEncoder(t *testing.T) {
	train, _, err := SyntheticBenchmark("DIABETES", 0.2, 3)
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Dim = 128
	cfg.Iterations = 2
	cfg.Encoder = EncoderLinear
	m, err := TrainWithConfig(train.X, train.Y, train.Classes, cfg)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	if _, err := m.Quantize1Bit(); err == nil {
		t.Fatal("Quantize1Bit accepted a linear-encoded model")
	}
}
