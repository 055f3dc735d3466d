package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/mlp"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/rng"
)

// Fig8Result reproduces the Fig. 8 table: quality loss of the 8-bit DNN
// and of DistHD at D ∈ {0.5k, 1k, 2k, 4k} × precision ∈ {1, 2, 4, 8} bits
// under memory bit-flip rates of {1, 2, 5, 10, 15}%.
type Fig8Result struct {
	Dataset    string
	ErrorRates []float64
	Dims       []int
	Bits       []int
	Trials     int
	// DNN[e] is quality loss of the 8-bit DNN at ErrorRates[e].
	DNN []float64
	// DistHD[b][d][e] indexes Bits × Dims × ErrorRates.
	DistHD [][][]float64
	// CleanDNNAcc / CleanDistAcc record the fault-free accuracies.
	CleanDNNAcc  float64
	CleanDistAcc map[string]float64 // "bits/dim" -> accuracy
}

// RunFig8 trains the models once per dimensionality, then measures
// accuracy degradation across fault rates averaged over several injection
// trials.
func RunFig8(o Options) (*Fig8Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	p, err := loadOne(o, "UCIHAR")
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{
		Dataset:      p.Name,
		ErrorRates:   []float64{0.01, 0.02, 0.05, 0.10, 0.15},
		Bits:         []int{1, 2, 4, 8},
		Trials:       5,
		CleanDistAcc: map[string]float64{},
	}
	if o.Quick {
		res.Dims = []int{128, 256}
		res.Trials = 2
	} else {
		res.Dims = []int{512, 1024, 2048, 4096}
	}

	// --- DNN at 8-bit ---
	dnn := newDNN(o)
	if err := dnn.Train(p.Train); err != nil {
		return nil, err
	}
	cleanPred := dnn.Predict(p.Test.X)
	res.CleanDNNAcc, err = metrics.Accuracy(cleanPred, p.Test.Y)
	if err != nil {
		return nil, err
	}
	faultRNG := rng.New(o.Seed ^ 0xfa17)
	for _, rate := range res.ErrorRates {
		var lossSum float64
		for trial := 0; trial < res.Trials; trial++ {
			faulty, err := injureDNN(dnn.net, rate, faultRNG.Split())
			if err != nil {
				return nil, err
			}
			acc := faulty.Accuracy(p.Test.X, p.Test.Y)
			lossSum += metrics.QualityLoss(res.CleanDNNAcc, acc)
		}
		res.DNN = append(res.DNN, lossSum/float64(res.Trials))
	}

	// --- DistHD across dims × bits ---
	// Train one DistHD model per dimensionality, then deploy it at each
	// precision. The encoded test set is reused across precisions.
	res.DistHD = make([][][]float64, len(res.Bits))
	for bi := range res.Bits {
		res.DistHD[bi] = make([][]float64, len(res.Dims))
		for di := range res.Dims {
			res.DistHD[bi][di] = make([]float64, len(res.ErrorRates))
		}
	}
	for di, d := range res.Dims {
		cfg := core.DefaultConfig()
		cfg.Dim = d
		cfg.Iterations = hdcIterations(o)
		cfg.Seed = o.Seed
		enc := encoding.NewRBF(p.Train.Features(), d, o.Seed^0xf18)
		clf, _, err := core.Train(enc, p.Train.X, p.Train.Y, p.Train.Classes, cfg)
		if err != nil {
			return nil, err
		}
		Htest := clf.Enc.EncodeBatch(p.Test.X)

		for bi, bits := range res.Bits {
			// Clean (fault-free) deployed accuracy at this precision.
			img, err := quant.Pack(clf.Model.Weights.Data, bits)
			if err != nil {
				return nil, err
			}
			cleanAcc, err := deployedAccuracy(img, clf.Model.Classes(), d, Htest, p.Test.Y)
			if err != nil {
				return nil, err
			}
			res.CleanDistAcc[fmt.Sprintf("%d/%d", bits, d)] = cleanAcc

			for ei, rate := range res.ErrorRates {
				var lossSum float64
				for trial := 0; trial < res.Trials; trial++ {
					injured := img.Clone()
					if err := injured.FlipBits(rate, faultRNG.Split()); err != nil {
						return nil, err
					}
					acc, err := deployedAccuracy(injured, clf.Model.Classes(), d, Htest, p.Test.Y)
					if err != nil {
						return nil, err
					}
					lossSum += metrics.QualityLoss(cleanAcc, acc)
				}
				res.DistHD[bi][di][ei] = lossSum / float64(res.Trials)
			}
		}
	}
	return res, nil
}

// deployedAccuracy reconstitutes a class-hypervector model from a packed
// image and evaluates it on the encoded test set.
func deployedAccuracy(img *quant.Image, classes, dim int, Htest *mat.Dense, y []int) (float64, error) {
	vals := img.Unpack()
	m := model.New(classes, dim)
	copy(m.Weights.Data, vals)
	m.RefreshNorms()
	return model.Accuracy(m, Htest, y), nil
}

// injureDNN quantizes every layer of the network to 8 bits, flips bits at
// the given rate, and reconstitutes a faulty clone — the paper's DNN fault
// model ("all DNN weights are quantized to their effective 8-bit
// representation").
func injureDNN(net *mlp.Network, rate float64, r *rng.Rand) (*mlp.Network, error) {
	out := net.Clone()
	for l := 0; l < len(out.W); l++ {
		img, err := quant.Pack(out.W[l].Data, 8)
		if err != nil {
			return nil, err
		}
		if err := img.FlipBits(rate, r); err != nil {
			return nil, err
		}
		copy(out.W[l].Data, img.Unpack())

		bimg, err := quant.Pack(out.B[l], 8)
		if err != nil {
			return nil, err
		}
		if err := bimg.FlipBits(rate, r); err != nil {
			return nil, err
		}
		copy(out.B[l], bimg.Unpack())
	}
	return out, nil
}

// Render prints the Fig. 8 table in the paper's layout (rows = model ×
// precision × dimensionality, columns = error rates).
func (r *Fig8Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Fig. 8: quality loss under random memory bit flips on %s (avg of %d trials)\n",
		r.Dataset, r.Trials); err != nil {
		return err
	}
	header := []string{"Model", "Bits", "D"}
	for _, rate := range r.ErrorRates {
		header = append(header, fmt.Sprintf("%.1f%%", 100*rate))
	}
	t := newTable(header...)

	row := []string{"DNN", "8", "-"}
	for _, loss := range r.DNN {
		row = append(row, fmt.Sprintf("%.1f%%", 100*loss))
	}
	t.add(row...)

	for bi, bits := range r.Bits {
		for di, d := range r.Dims {
			row := []string{"DistHD", fmt.Sprintf("%d", bits), dimLabel(d)}
			for ei := range r.ErrorRates {
				row = append(row, fmt.Sprintf("%.1f%%", 100*r.DistHD[bi][di][ei]))
			}
			t.add(row...)
		}
	}
	if err := t.render(w); err != nil {
		return err
	}

	// Aggregate robustness ratio at the paper's highlighted operating
	// point: 10% flips, DistHD 1-bit at the largest D vs DNN.
	ei := 3 // 10%
	best := r.DistHD[0][len(r.Dims)-1][ei]
	dnn := r.DNN[ei]
	if best > 0 {
		_, err := fmt.Fprintf(w, "robustness ratio at 10%% flips (DNN loss / DistHD 1-bit max-D loss): %.2fx\n", dnn/best)
		return err
	}
	_, err := fmt.Fprintf(w, "DistHD 1-bit at max D lost no accuracy at 10%% flips (DNN lost %.1f%%)\n", 100*dnn)
	return err
}
