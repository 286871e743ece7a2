package nn

import (
	"errors"
	"math"
)

// QuantScale is the fixed-point scale of §4.1: weights are multiplied by
// 1024, capturing the non-zero digits of most weights within 4 decimal
// points.
const QuantScale = 1024

const quantShift = 10 // log2(QuantScale)

type quantLayer struct {
	in, out int
	act     Activation
	w       []int32 // scale 2^10
	b       []int64 // scale 2^20 (weight scale * activation scale)
}

// QuantNetwork is the §4.1 fixed-point form of a Network: int32 weights,
// integer accumulation, one shift per layer — the arithmetic a kernel
// without an FPU runs, and the reference ExportC's C kernel matches. It
// allocates nothing per inference when used with PredictInto and is safe
// for concurrent use with per-goroutine scratch buffers.
type QuantNetwork struct {
	inputs int
	layers []quantLayer
	maxw   int
}

// Quantize converts a trained network to fixed point. Only ReLU-family
// hidden activations and sigmoid/softmax/linear outputs are supported — the
// configurations Heimdall deploys.
func (n *Network) Quantize() (*QuantNetwork, error) {
	q := &QuantNetwork{inputs: n.cfg.Inputs, maxw: n.cfg.Inputs}
	for _, l := range n.layers {
		switch l.act {
		case ReLU, LeakyReLU, PReLU, Linear, Sigmoid, Softmax:
		default:
			return nil, errors.New("nn: quantization supports relu-family hidden layers and sigmoid/softmax/linear outputs")
		}
		ql := quantLayer{in: l.in, out: l.out, act: l.act}
		ql.w = make([]int32, len(l.w))
		for i, w := range l.w {
			ql.w[i] = int32(math.Round(w * QuantScale))
		}
		ql.b = make([]int64, len(l.b))
		for i, b := range l.b {
			ql.b[i] = int64(math.Round(b * QuantScale * QuantScale))
		}
		q.layers = append(q.layers, ql)
		if l.out > q.maxw {
			q.maxw = l.out
		}
	}
	return q, nil
}

// ScratchSize returns the length of the scratch buffers PredictInto needs.
func (q *QuantNetwork) ScratchSize() int { return q.maxw }

// PredictInto runs a quantized forward pass using caller-provided scratch
// slices (each at least ScratchSize long): integer multiply-accumulate, one
// shift per layer, one float sigmoid at the end.
//
//heimdall:hotpath
func (q *QuantNetwork) PredictInto(x []float64, cur, next []int64) float64 {
	// Quantize the (already feature-scaled) inputs to 2^10.
	for i, v := range x {
		cur[i] = int64(v*QuantScale + 0.5)
	}
	width := len(x)
	for li := range q.layers {
		l := &q.layers[li]
		for o := 0; o < l.out; o++ {
			acc := l.b[o] // scale 2^20
			row := l.w[o*l.in : (o+1)*l.in]
			for i := 0; i < width; i++ {
				acc += int64(row[i]) * cur[i] // 2^10 * 2^10 = 2^20
			}
			if li < len(q.layers)-1 {
				// Hidden activation in integer domain, then rescale to 2^10.
				switch l.act {
				case ReLU:
					if acc < 0 {
						acc = 0
					}
				case LeakyReLU:
					if acc < 0 {
						acc /= 100
					}
				case PReLU:
					if acc < 0 {
						acc /= 4
					}
				}
				acc >>= quantShift
			}
			next[o] = acc
		}
		cur, next = next, cur
		width = l.out
	}
	// Output layer pre-activations are at 2^20.
	out := q.layers[len(q.layers)-1]
	const outScale = float64(QuantScale * QuantScale)
	switch out.act {
	case Sigmoid:
		z := float64(cur[0]) / outScale
		return 1 / (1 + math.Exp(-z))
	case Softmax:
		// Two-class: P(class 1).
		z0 := float64(cur[0]) / outScale
		z1 := float64(cur[1]) / outScale
		m := math.Max(z0, z1)
		e0, e1 := math.Exp(z0-m), math.Exp(z1-m)
		return e1 / (e0 + e1)
	default:
		return float64(cur[0]) / outScale
	}
}

// ParamCount mirrors Network.ParamCount for the quantized form.
func (q *QuantNetwork) ParamCount() (weights, biases int) {
	for _, l := range q.layers {
		weights += len(l.w)
		biases += len(l.b)
	}
	return weights, biases
}

// MemoryBytes is the honest deployed footprint: 4-byte weights, 8-byte
// biases, the two int64 scratch buffers one inference needs (2×8×ScratchSize
// — resident per serving thread), and the per-layer geometry/scale table
// (in, out, activation at 8 bytes each). Counting the working set keeps
// int32-vs-int8 footprint comparisons in bench output honest.
func (q *QuantNetwork) MemoryBytes() int {
	w, b := q.ParamCount()
	return 4*w + 8*b + 2*8*q.maxw + 24*len(q.layers)
}
