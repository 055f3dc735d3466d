// Package mlp implements the DNN comparator used throughout the DistHD
// paper's evaluation: a fully-connected multilayer perceptron (ref [27])
// with ReLU hidden activations, a softmax cross-entropy output, and
// minibatch SGD with momentum. The paper trains its DNN with TensorFlow;
// this from-scratch implementation provides the same model family, a small
// grid-search helper, and access to the raw weights for the 8-bit
// quantization used by the robustness study (Fig. 8).
package mlp

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/rng"
)

// Config describes the network and its optimizer.
type Config struct {
	// Hidden lists the hidden-layer widths, e.g. {128, 64}.
	Hidden []int
	// LearningRate for SGD.
	LearningRate float64
	// Momentum coefficient (0 disables momentum).
	Momentum float64
	// L2 weight decay coefficient (0 disables).
	WeightDecay float64
	// Epochs over the training set.
	Epochs int
	// BatchSize for minibatch SGD.
	BatchSize int
	// Seed for init and shuffling.
	Seed uint64
}

// DefaultConfig returns a single-hidden-layer network comparable to the
// small MLPs the paper grid-searches.
func DefaultConfig() Config {
	return Config{
		Hidden:       []int{128},
		LearningRate: 0.05,
		Momentum:     0.9,
		WeightDecay:  1e-4,
		Epochs:       30,
		BatchSize:    32,
		Seed:         1,
	}
}

// Validate reports the first configuration problem, or nil.
func (c *Config) Validate() error {
	switch {
	case len(c.Hidden) == 0:
		return fmt.Errorf("mlp: need at least one hidden layer")
	case c.LearningRate <= 0:
		return fmt.Errorf("mlp: LearningRate must be positive, got %v", c.LearningRate)
	case c.Momentum < 0 || c.Momentum >= 1:
		return fmt.Errorf("mlp: Momentum must be in [0,1), got %v", c.Momentum)
	case c.WeightDecay < 0:
		return fmt.Errorf("mlp: WeightDecay must be non-negative, got %v", c.WeightDecay)
	case c.Epochs <= 0:
		return fmt.Errorf("mlp: Epochs must be positive, got %d", c.Epochs)
	case c.BatchSize <= 0:
		return fmt.Errorf("mlp: BatchSize must be positive, got %d", c.BatchSize)
	}
	for i, h := range c.Hidden {
		if h <= 0 {
			return fmt.Errorf("mlp: hidden layer %d has non-positive width %d", i, h)
		}
	}
	return nil
}

// Network is a trained (or trainable) MLP.
type Network struct {
	// W[l] is the weight matrix of layer l (out × in); B[l] its bias.
	W []*mat.Dense
	B [][]float64
	// sizes caches the layer widths including input and output.
	sizes []int
	cfg   Config
}

// New builds a randomly initialized network mapping `in` features to `out`
// classes through cfg.Hidden layers, using He initialization.
func New(in, out int, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if in <= 0 || out < 2 {
		return nil, fmt.Errorf("mlp: invalid shape in=%d out=%d", in, out)
	}
	sizes := append(append([]int{in}, cfg.Hidden...), out)
	n := &Network{sizes: sizes, cfg: cfg}
	r := rng.New(cfg.Seed)
	for l := 0; l+1 < len(sizes); l++ {
		w := mat.New(sizes[l+1], sizes[l])
		// He init: std = sqrt(2 / fan_in), appropriate for ReLU.
		r.FillNorm(w.Data, 0, math.Sqrt(2/float64(sizes[l])))
		n.W = append(n.W, w)
		n.B = append(n.B, make([]float64, sizes[l+1]))
	}
	return n, nil
}

// Layers returns the number of weight layers.
func (n *Network) Layers() int { return len(n.W) }

// In returns the input width; Out the number of classes.
func (n *Network) In() int  { return n.sizes[0] }
func (n *Network) Out() int { return n.sizes[len(n.sizes)-1] }

// forward computes all layer activations for input x. acts[0] = x,
// acts[l+1] = activation after layer l. The final layer is returned as
// logits (no softmax applied).
func (n *Network) forward(x []float64, acts [][]float64) {
	copy(acts[0], x)
	for l := 0; l < n.Layers(); l++ {
		in := acts[l]
		out := acts[l+1]
		w := n.W[l]
		for j := 0; j < w.Rows; j++ {
			v := mat.Dot(w.Row(j), in) + n.B[l][j]
			if l < n.Layers()-1 && v < 0 {
				v = 0 // ReLU on hidden layers only
			}
			out[j] = v
		}
	}
}

// newActs allocates activation buffers matching the layer sizes.
func (n *Network) newActs() [][]float64 {
	acts := make([][]float64, len(n.sizes))
	for i, s := range n.sizes {
		acts[i] = make([]float64, s)
	}
	return acts
}

// softmaxInPlace converts logits to probabilities, numerically stable.
func softmaxInPlace(z []float64) {
	max := z[0]
	for _, v := range z {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range z {
		z[i] = math.Exp(v - max)
		sum += z[i]
	}
	for i := range z {
		z[i] /= sum
	}
}

// Fit trains the network with minibatch SGD + momentum and returns the
// per-epoch average cross-entropy loss.
func (n *Network) Fit(X *mat.Dense, y []int) ([]float64, error) {
	if X.Rows != len(y) {
		return nil, fmt.Errorf("mlp: %d samples but %d labels", X.Rows, len(y))
	}
	if X.Cols != n.In() {
		return nil, fmt.Errorf("mlp: input width %d != network input %d", X.Cols, n.In())
	}
	for i, label := range y {
		if label < 0 || label >= n.Out() {
			return nil, fmt.Errorf("mlp: label %d at row %d outside [0,%d)", label, i, n.Out())
		}
	}

	r := rng.New(n.cfg.Seed ^ 0x5eed)
	// Momentum velocity buffers.
	vW := make([]*mat.Dense, n.Layers())
	vB := make([][]float64, n.Layers())
	// Gradient accumulators per batch.
	gW := make([]*mat.Dense, n.Layers())
	gB := make([][]float64, n.Layers())
	for l := 0; l < n.Layers(); l++ {
		vW[l] = mat.New(n.W[l].Rows, n.W[l].Cols)
		vB[l] = make([]float64, len(n.B[l]))
		gW[l] = mat.New(n.W[l].Rows, n.W[l].Cols)
		gB[l] = make([]float64, len(n.B[l]))
	}
	acts := n.newActs()
	// delta[l] is dLoss/dPreactivation of layer l's output.
	deltas := make([][]float64, n.Layers())
	for l := 0; l < n.Layers(); l++ {
		deltas[l] = make([]float64, n.sizes[l+1])
	}

	var losses []float64
	for e := 0; e < n.cfg.Epochs; e++ {
		order := r.Perm(X.Rows)
		var epochLoss float64
		for start := 0; start < len(order); start += n.cfg.BatchSize {
			end := start + n.cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			for l := range gW {
				gW[l].Fill(0)
				for j := range gB[l] {
					gB[l][j] = 0
				}
			}
			for _, i := range batch {
				epochLoss += n.accumulateGradients(X.Row(i), y[i], acts, deltas, gW, gB)
			}
			scale := 1 / float64(len(batch))
			for l := 0; l < n.Layers(); l++ {
				// v = momentum*v - lr*(g/batch + decay*W); W += v
				for idx, g := range gW[l].Data {
					vW[l].Data[idx] = n.cfg.Momentum*vW[l].Data[idx] -
						n.cfg.LearningRate*(g*scale+n.cfg.WeightDecay*n.W[l].Data[idx])
					n.W[l].Data[idx] += vW[l].Data[idx]
				}
				for j, g := range gB[l] {
					vB[l][j] = n.cfg.Momentum*vB[l][j] - n.cfg.LearningRate*g*scale
					n.B[l][j] += vB[l][j]
				}
			}
		}
		losses = append(losses, epochLoss/float64(X.Rows))
	}
	return losses, nil
}

// accumulateGradients runs forward+backward for one sample, adds gradients
// into gW/gB, and returns the sample's cross-entropy loss.
func (n *Network) accumulateGradients(x []float64, label int, acts, deltas [][]float64, gW []*mat.Dense, gB [][]float64) float64 {
	n.forward(x, acts)
	logits := acts[len(acts)-1]
	probs := make([]float64, len(logits))
	copy(probs, logits)
	softmaxInPlace(probs)
	loss := -math.Log(math.Max(probs[label], 1e-12))

	// Output delta: softmax-CE gradient.
	last := n.Layers() - 1
	for j := range deltas[last] {
		deltas[last][j] = probs[j]
	}
	deltas[last][label] -= 1

	// Backpropagate through hidden layers.
	for l := last - 1; l >= 0; l-- {
		wNext := n.W[l+1]
		for j := 0; j < n.sizes[l+1]; j++ {
			if acts[l+1][j] <= 0 { // ReLU gate
				deltas[l][j] = 0
				continue
			}
			var s float64
			for k := 0; k < wNext.Rows; k++ {
				s += wNext.At(k, j) * deltas[l+1][k]
			}
			deltas[l][j] = s
		}
	}

	// Gradients: gW[l] += delta[l] ⊗ acts[l].
	for l := 0; l < n.Layers(); l++ {
		in := acts[l]
		for j, d := range deltas[l] {
			if d == 0 {
				continue
			}
			mat.Axpy(gW[l].Row(j), d, in)
			gB[l][j] += d
		}
	}
	return loss
}

// PredictBatch classifies every row of X in parallel.
func (n *Network) PredictBatch(X *mat.Dense) []int {
	out := make([]int, X.Rows)
	mat.ParallelFor(X.Rows, func(lo, hi int) {
		acts := n.newActs()
		for i := lo; i < hi; i++ {
			n.forward(X.Row(i), acts)
			out[i] = mat.ArgMax(acts[len(acts)-1])
		}
	})
	return out
}

// Accuracy returns classification accuracy over a labeled batch.
func (n *Network) Accuracy(X *mat.Dense, y []int) float64 {
	if X.Rows == 0 {
		return 0
	}
	pred := n.PredictBatch(X)
	correct := 0
	for i, p := range pred {
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// Clone returns a deep copy of the network (weights and config).
func (n *Network) Clone() *Network {
	c := &Network{sizes: append([]int(nil), n.sizes...), cfg: n.cfg}
	for l := range n.W {
		c.W = append(c.W, n.W[l].Clone())
		b := make([]float64, len(n.B[l]))
		copy(b, n.B[l])
		c.B = append(c.B, b)
	}
	return c
}
