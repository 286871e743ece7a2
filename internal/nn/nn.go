// Package nn is a small, dependency-free neural-network library sufficient
// for the Heimdall pipeline: fully-connected layers, the activation
// functions swept in Fig. 9d/9e, SGD and Adam training, binary and softmax
// outputs, and fixed-point quantized inference (§4.1).
//
// Everything is deterministic given a seed. The library is sized for
// latency-critical storage models (tens of thousands of parameters), not for
// deep learning at large.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Activation identifies a neuron activation function.
type Activation int

const (
	// ReLU is max(0, x).
	ReLU Activation = iota
	// LeakyReLU is x for x>0, 0.01x otherwise.
	LeakyReLU
	// PReLU is x for x>0, 0.25x otherwise (fixed-parameter variant).
	PReLU
	// SELU is the self-normalizing exponential linear unit.
	SELU
	// Sigmoid is 1/(1+e^-x).
	Sigmoid
	// Tanh is the hyperbolic tangent.
	Tanh
	// Linear is the identity.
	Linear
	// Softmax normalizes a layer to a probability simplex (output layers
	// only).
	Softmax
)

// String names the activation.
func (a Activation) String() string {
	switch a {
	case ReLU:
		return "relu"
	case LeakyReLU:
		return "leaky-relu"
	case PReLU:
		return "prelu"
	case SELU:
		return "selu"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	case Linear:
		return "linear"
	case Softmax:
		return "softmax"
	}
	return "unknown"
}

const (
	seluAlpha  = 1.6732632423543772
	seluLambda = 1.0507009873554805
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x > 0 {
			return x
		}
		return 0
	case LeakyReLU:
		if x > 0 {
			return x
		}
		return 0.01 * x
	case PReLU:
		if x > 0 {
			return x
		}
		return 0.25 * x
	case SELU:
		if x > 0 {
			return seluLambda * x
		}
		return seluLambda * seluAlpha * (math.Exp(x) - 1)
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case Tanh:
		return math.Tanh(x)
	default:
		return x
	}
}

// derivative in terms of pre-activation x and post-activation y.
func (a Activation) deriv(x, y float64) float64 {
	switch a {
	case ReLU:
		if x > 0 {
			return 1
		}
		return 0
	case LeakyReLU:
		if x > 0 {
			return 1
		}
		return 0.01
	case PReLU:
		if x > 0 {
			return 1
		}
		return 0.25
	case SELU:
		if x > 0 {
			return seluLambda
		}
		return y + seluLambda*seluAlpha // λα·e^x = y + λα
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	default:
		return 1
	}
}

// LayerSpec declares one layer.
type LayerSpec struct {
	Units int
	Act   Activation
}

// Optimizer selects the weight-update rule.
type Optimizer int

const (
	// SGD is stochastic gradient descent with momentum.
	SGD Optimizer = iota
	// Adam is the Adam optimizer.
	Adam
)

// Loss selects the training loss.
type Loss int

const (
	// BCE is binary cross-entropy over a single sigmoid output.
	BCE Loss = iota
	// CE is categorical cross-entropy over a softmax output.
	CE
	// MSE is mean squared error.
	MSE
)

// Config declares a network and its training hyperparameters.
type Config struct {
	Inputs int
	Layers []LayerSpec // hidden layers then output layer
	Seed   int64

	Optimizer Optimizer
	Loss      Loss
	LR        float64 // default 0.01
	Momentum  float64 // SGD only, default 0.9
	// WeightDecay is the L2 regularization coefficient applied to weights
	// (not biases); 0 disables it.
	WeightDecay float64
	Epochs      int // default 30
	Batch       int // default 64
	// PosWeight multiplies the gradient of positive (slow) samples; 1 means
	// unweighted. The paper's biased-training experiment (§3.6).
	PosWeight float64
	// Patience stops training early after this many epochs without
	// training-loss improvement; 0 disables.
	Patience int
}

// HeimdallConfig is the final NN design of Fig. 9f: 2 hidden ReLU layers of
// 128 and 16 neurons and a single-sigmoid output.
func HeimdallConfig(inputs int, seed int64) Config {
	return Config{
		Inputs: inputs,
		Layers: []LayerSpec{{128, ReLU}, {16, ReLU}, {1, Sigmoid}},
		Seed:   seed,
		Loss:   BCE, Optimizer: Adam, LR: 0.005, Epochs: 30, Batch: 64, PosWeight: 1,
	}
}

type layer struct {
	in, out int
	act     Activation
	w       []float64 // out*in, row-major by output neuron
	b       []float64 // out

	// training state
	z, a   []float64 // pre/post activation of last forward
	gw, gb []float64 // gradient accumulators
	// optimizer state
	mw, vw, mb, vb []float64
}

// Network is a trained or trainable feed-forward network. Train is not safe
// for concurrent use (it reuses per-layer buffers); once trained, Predict,
// PredictInto and PredictBatchInto are goroutine-safe with per-caller
// scratch.
type Network struct {
	cfg    Config
	layers []*layer
	step   int // Adam timestep
}

// New builds a network with deterministic He/Xavier initialization.
func New(cfg Config) (*Network, error) {
	if cfg.Inputs <= 0 {
		return nil, errors.New("nn: Inputs must be positive")
	}
	if len(cfg.Layers) == 0 {
		return nil, errors.New("nn: at least one layer required")
	}
	if cfg.LR == 0 {
		cfg.LR = 0.01
	}
	if cfg.Momentum == 0 {
		cfg.Momentum = 0.9
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 30
	}
	if cfg.Batch == 0 {
		cfg.Batch = 64
	}
	if cfg.PosWeight == 0 {
		cfg.PosWeight = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Network{cfg: cfg}
	in := cfg.Inputs
	for li, spec := range cfg.Layers {
		if spec.Units <= 0 {
			return nil, fmt.Errorf("nn: layer %d has %d units", li, spec.Units)
		}
		l := &layer{in: in, out: spec.Units, act: spec.Act}
		l.w = make([]float64, in*spec.Units)
		l.b = make([]float64, spec.Units)
		// He init for rectifiers, Xavier otherwise.
		scale := math.Sqrt(2 / float64(in))
		if spec.Act == Sigmoid || spec.Act == Tanh || spec.Act == Softmax || spec.Act == Linear {
			scale = math.Sqrt(1 / float64(in))
		}
		for i := range l.w {
			l.w[i] = rng.NormFloat64() * scale
		}
		l.z = make([]float64, spec.Units)
		l.a = make([]float64, spec.Units)
		l.gw = make([]float64, len(l.w))
		l.gb = make([]float64, len(l.b))
		l.mw = make([]float64, len(l.w))
		l.vw = make([]float64, len(l.w))
		l.mb = make([]float64, len(l.b))
		l.vb = make([]float64, len(l.b))
		n.layers = append(n.layers, l)
		in = spec.Units
	}
	return n, nil
}

// Config returns the configuration the network was built with.
func (n *Network) Config() Config { return n.cfg }

// Clone returns an independent deep copy of the network: weights, biases,
// optimizer state, and the Adam timestep. The clone can be trained further
// without disturbing the original — the warm-start half of continuous
// retraining (clone the champion, fine-tune on fresh data, compare). Train
// on a clone continues from the copied weights because New is the only
// place weights are initialized.
func (n *Network) Clone() *Network {
	c := &Network{cfg: n.cfg, step: n.step}
	c.cfg.Layers = append([]LayerSpec(nil), n.cfg.Layers...)
	for _, l := range n.layers {
		cl := &layer{in: l.in, out: l.out, act: l.act}
		cl.w = append([]float64(nil), l.w...)
		cl.b = append([]float64(nil), l.b...)
		cl.z = make([]float64, l.out)
		cl.a = make([]float64, l.out)
		cl.gw = make([]float64, len(l.w))
		cl.gb = make([]float64, len(l.b))
		cl.mw = append([]float64(nil), l.mw...)
		cl.vw = append([]float64(nil), l.vw...)
		cl.mb = append([]float64(nil), l.mb...)
		cl.vb = append([]float64(nil), l.vb...)
		c.layers = append(c.layers, cl)
	}
	return c
}

// Retune adjusts the training hyperparameters for a subsequent Train call —
// the knob a warm-start fine-tune turns (few epochs, smaller step) without
// rebuilding the network. Non-positive arguments keep the current value.
func (n *Network) Retune(epochs int, lr float64) {
	if epochs > 0 {
		n.cfg.Epochs = epochs
	}
	if lr > 0 {
		n.cfg.LR = lr
	}
}

// Outputs returns the width of the output layer.
func (n *Network) Outputs() int { return n.layers[len(n.layers)-1].out }

// ParamCount returns (weights, biases) — the paper's §6.6 accounting.
func (n *Network) ParamCount() (weights, biases int) {
	for _, l := range n.layers {
		weights += len(l.w)
		biases += len(l.b)
	}
	return weights, biases
}

// MulCount returns the multiply operations of one forward pass.
func (n *Network) MulCount() int {
	m := 0
	for _, l := range n.layers {
		m += l.in * l.out
	}
	return m
}

// MemoryBytes returns the resident size of the deployed float model at 8
// bytes per parameter — the paper's §6.6 accounting (28KB for Heimdall's
// 3617 parameters, 68KB for LinnOS's 8706).
func (n *Network) MemoryBytes() int {
	w, b := n.ParamCount()
	return 8 * (w + b)
}

func (l *layer) forward(x []float64) []float64 {
	for o := 0; o < l.out; o++ {
		sum := l.b[o]
		row := l.w[o*l.in : (o+1)*l.in]
		for i, v := range x {
			sum += row[i] * v
		}
		l.z[o] = sum
	}
	if l.act == Softmax {
		softmax(l.z, l.a)
	} else {
		for o, z := range l.z {
			l.a[o] = l.act.apply(z)
		}
	}
	return l.a
}

func softmax(z, out []float64) {
	maxz := z[0]
	for _, v := range z[1:] {
		if v > maxz {
			maxz = v
		}
	}
	var sum float64
	for i, v := range z {
		e := math.Exp(v - maxz)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// ScratchSize returns the length of the scratch buffers PredictInto needs:
// the widest layer of the network.
func (n *Network) ScratchSize() int {
	w := 0
	for _, l := range n.layers {
		if l.out > w {
			w = l.out
		}
	}
	return w
}

// PredictInto runs a forward pass using caller-provided scratch slices
// (each at least ScratchSize long) and returns the probability of the
// positive class — the float counterpart of QuantNetwork.PredictInto. It
// allocates nothing, does not modify x, and is safe for concurrent use with
// per-goroutine scratch.
//
//heimdall:hotpath
func (n *Network) PredictInto(x []float64, cur, next []float64) float64 {
	in := x
	for _, l := range n.layers {
		out := cur[:l.out]
		for o := 0; o < l.out; o++ {
			sum := l.b[o]
			row := l.w[o*l.in : (o+1)*l.in]
			for i, v := range in {
				sum += row[i] * v
			}
			out[o] = sum
		}
		if l.act == Softmax {
			softmax(out, out)
		} else {
			for o, z := range out {
				out[o] = l.act.apply(z)
			}
		}
		in = out
		cur, next = next, cur
	}
	if len(in) == 1 {
		return in[0]
	}
	return in[len(in)-1]
}

// Predict returns the probability of the positive (slow) class: the single
// sigmoid output, or the second softmax output for 2-class networks. It is
// the cold, goroutine-safe call — it allocates its own scratch; hot loops
// allocate scratch once and call PredictInto or PredictBatchInto instead.
func (n *Network) Predict(x []float64) float64 {
	w := n.ScratchSize()
	return n.PredictInto(x, make([]float64, w), make([]float64, w))
}

// TrainStats reports the training run.
type TrainStats struct {
	Epochs    int
	FinalLoss float64
}

// Train fits the network with mini-batch gradient descent. Labels y are
// 0/1 for BCE and class indices encoded as 0/1 for the 2-class CE case.
func (n *Network) Train(X [][]float64, y []float64) (TrainStats, error) {
	if len(X) == 0 {
		return TrainStats{}, errors.New("nn: empty training set")
	}
	if len(X) != len(y) {
		return TrainStats{}, fmt.Errorf("nn: %d rows vs %d labels", len(X), len(y))
	}
	for i, r := range X {
		if len(r) != n.cfg.Inputs {
			return TrainStats{}, fmt.Errorf("nn: row %d has width %d, want %d", i, len(r), n.cfg.Inputs)
		}
	}
	rng := rand.New(rand.NewSource(n.cfg.Seed + 1))
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	var stats TrainStats
	best := math.Inf(1)
	sinceBest := 0
	for epoch := 0; epoch < n.cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += n.cfg.Batch {
			end := start + n.cfg.Batch
			if end > len(idx) {
				end = len(idx)
			}
			epochLoss += n.trainBatch(X, y, idx[start:end])
		}
		epochLoss /= float64(len(idx))
		stats.Epochs = epoch + 1
		stats.FinalLoss = epochLoss
		if n.cfg.Patience > 0 {
			if epochLoss < best-1e-6 {
				best = epochLoss
				sinceBest = 0
			} else {
				sinceBest++
				if sinceBest >= n.cfg.Patience {
					break
				}
			}
		}
	}
	return stats, nil
}

func (n *Network) trainBatch(X [][]float64, y []float64, batch []int) float64 {
	for _, l := range n.layers {
		for i := range l.gw {
			l.gw[i] = 0
		}
		for i := range l.gb {
			l.gb[i] = 0
		}
	}
	var loss float64
	// delta buffers sized to the widest layer.
	maxw := n.cfg.Inputs
	for _, l := range n.layers {
		if l.out > maxw {
			maxw = l.out
		}
	}
	delta := make([]float64, maxw)
	prevDelta := make([]float64, maxw)

	acts := make([][]float64, len(n.layers)+1)
	for _, bi := range batch {
		x := X[bi]
		target := y[bi]
		acts[0] = x
		a := x
		for li, l := range n.layers {
			a = l.forward(a)
			// Copy activations: layer buffers are overwritten next sample,
			// but within one sample's backprop they survive; we only need
			// them during this sample, so aliasing is fine.
			acts[li+1] = a
		}
		out := n.layers[len(n.layers)-1]

		// Output delta (dL/dz of output layer) and loss.
		w := 1.0
		if target > 0.5 && n.cfg.PosWeight != 1 {
			w = n.cfg.PosWeight
		}
		switch n.cfg.Loss {
		case BCE:
			p := clampProb(out.a[0])
			loss += -w * (target*math.Log(p) + (1-target)*math.Log(1-p))
			delta[0] = w * (p - target) // sigmoid+BCE shortcut
		case CE:
			// Two-class softmax; target selects the class.
			cls := 0
			if target > 0.5 {
				cls = 1
			}
			loss += -w * math.Log(clampProb(out.a[cls]))
			for o := 0; o < out.out; o++ {
				t := 0.0
				if o == cls {
					t = 1
				}
				delta[o] = w * (out.a[o] - t)
			}
		default: // MSE
			d := out.a[0] - target
			loss += w * d * d / 2
			delta[0] = w * d * out.act.deriv(out.z[0], out.a[0])
		}

		// Backward pass.
		for li := len(n.layers) - 1; li >= 0; li-- {
			l := n.layers[li]
			in := acts[li]
			for o := 0; o < l.out; o++ {
				d := delta[o]
				if d == 0 {
					continue
				}
				row := l.gw[o*l.in : (o+1)*l.in]
				for i, v := range in {
					row[i] += d * v
				}
				l.gb[o] += d
			}
			if li > 0 {
				prev := n.layers[li-1]
				for i := 0; i < l.in; i++ {
					var s float64
					for o := 0; o < l.out; o++ {
						s += l.w[o*l.in+i] * delta[o]
					}
					prevDelta[i] = s * prev.act.deriv(prev.z[i], prev.a[i])
				}
				delta, prevDelta = prevDelta, delta
			}
		}
	}

	scale := 1 / float64(len(batch))
	n.step++
	for _, l := range n.layers {
		n.applyGrads(l, scale)
	}
	return loss
}

func (n *Network) applyGrads(l *layer, scale float64) {
	lr := n.cfg.LR
	wd := n.cfg.WeightDecay
	switch n.cfg.Optimizer {
	case Adam:
		const b1, b2, eps = 0.9, 0.999, 1e-8
		bc1 := 1 - math.Pow(b1, float64(n.step))
		bc2 := 1 - math.Pow(b2, float64(n.step))
		for i := range l.w {
			g := l.gw[i]*scale + wd*l.w[i]
			l.mw[i] = b1*l.mw[i] + (1-b1)*g
			l.vw[i] = b2*l.vw[i] + (1-b2)*g*g
			l.w[i] -= lr * (l.mw[i] / bc1) / (math.Sqrt(l.vw[i]/bc2) + eps)
		}
		for i := range l.b {
			g := l.gb[i] * scale
			l.mb[i] = b1*l.mb[i] + (1-b1)*g
			l.vb[i] = b2*l.vb[i] + (1-b2)*g*g
			l.b[i] -= lr * (l.mb[i] / bc1) / (math.Sqrt(l.vb[i]/bc2) + eps)
		}
	default: // SGD + momentum, reusing mw/mb as velocity
		mom := n.cfg.Momentum
		for i := range l.w {
			l.mw[i] = mom*l.mw[i] - lr*(l.gw[i]*scale+wd*l.w[i])
			l.w[i] += l.mw[i]
		}
		for i := range l.b {
			l.mb[i] = mom*l.mb[i] - lr*l.gb[i]*scale
			l.b[i] += l.mb[i]
		}
	}
}

func clampProb(p float64) float64 {
	const eps = 1e-12
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}
