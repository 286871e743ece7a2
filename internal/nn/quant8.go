package nn

import (
	"errors"
	"fmt"
	"math"
)

// Int8Max is the symmetric int8 quantization bound: weights and activations
// live in [-127, 127] (−128 is unused so negation never overflows).
const Int8Max = 127

// quant8Layer is one layer of the int8 deployment form.
//
// Scales: with sa = actScales[l] (int8 units per real unit at this layer's
// input) and ws[o] output neuron o's symmetric weight scale, the integer
// accumulator acc_o = Σ w8·a8 + b_o sits at scale ws[o]·sa. Hidden layers
// apply the integer activation then requantize to the next layer's
// activation scale with one integer multiply-shift per output activation
// (mq[o] = round(2^16·actScales[l+1]/(ws[o]·sa)), applied as
// (acc·mq[o]) >> 16 with half-away-from-zero rounding) — no float ops on
// the hidden path. The output layer keeps the float m[o] = 1/(ws[o]·sa) to
// recover real pre-activations at full precision for the sigmoid/softmax.
type quant8Layer struct {
	in, out int
	act     Activation
	w       []int8    // out*in, row-major by output neuron, scale ws[o]
	b       []int32   // out, scale ws[o]·sa
	m       []float64 // out, float requant (hidden, reference) or dequant (output)
	mq      []int64   // out, hidden only: m at 2^16 fixed point, ≤ 2^32−1
}

// QuantNetwork8 is the int8 deployment form of a Network: per-output-channel
// symmetric weight scales, activation scales calibrated on data, int32
// accumulation, fixed-point hidden-layer requantization, and a batch-major
// forward pass that decides a whole micro-batch in one cache-friendly
// sweep. Everything up to the final dequant is exact integer arithmetic
// evaluated independently per (row, neuron), so results are bit-identical
// regardless of batch shape, on any platform — the property ExportC's C
// kernel is checked against.
type QuantNetwork8 struct {
	inputs    int
	layers    []quant8Layer
	actScales []float64 // int8 units per real unit at each layer's input
	maxw      int
}

// Quantize8 converts a trained network to the int8 form, calibrating
// per-layer activation scales on calib (feature-scaled rows of the network's
// input width — typically the scaled training set). With no calibration rows
// it falls back to conservative analytic interval bounds, which cost int8
// resolution; prefer calibrated scales. Hidden layers must be
// ReLU/LeakyReLU/PReLU/Linear and the output Sigmoid/Softmax/Linear — the
// configurations Heimdall deploys.
func (n *Network) Quantize8(calib [][]float64) (*QuantNetwork8, error) {
	return n.Quantize8Scales(n.calibrateActScales(calib))
}

// Quantize8Scales builds the int8 network from explicit activation scales
// (one per layer, int8 units per real unit at that layer's input) — the
// deserialization path: float weights plus stored scales rebuild the exact
// int8 network that was saved. Weight scales are derived deterministically
// from the float weights.
func (n *Network) Quantize8Scales(actScales []float64) (*QuantNetwork8, error) {
	if len(actScales) != len(n.layers) {
		return nil, fmt.Errorf("nn: %d activation scales for %d layers", len(actScales), len(n.layers))
	}
	for i, s := range actScales {
		if !(s > 0) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("nn: activation scale %d is %v, want positive finite", i, s)
		}
	}
	q := &QuantNetwork8{
		inputs:    n.cfg.Inputs,
		actScales: append([]float64(nil), actScales...),
		maxw:      n.cfg.Inputs,
	}
	for li, l := range n.layers {
		last := li == len(n.layers)-1
		if last {
			switch l.act {
			case Sigmoid, Softmax, Linear:
			default:
				return nil, errors.New("nn: int8 quantization supports sigmoid/softmax/linear outputs")
			}
		} else {
			switch l.act {
			case ReLU, LeakyReLU, PReLU, Linear:
			default:
				return nil, errors.New("nn: int8 quantization supports relu-family hidden layers")
			}
		}
		sa := actScales[li]
		ql := quant8Layer{in: l.in, out: l.out, act: l.act}
		ql.w = make([]int8, len(l.w))
		ql.b = make([]int32, len(l.b))
		ql.m = make([]float64, l.out)
		if !last {
			ql.mq = make([]int64, l.out)
		}
		for o := 0; o < l.out; o++ {
			row := l.w[o*l.in : (o+1)*l.in]
			maxAbsW := 0.0
			for _, w := range row {
				if a := math.Abs(w); a > maxAbsW {
					maxAbsW = a
				}
			}
			ws := 1.0
			if maxAbsW > 1e-12 {
				ws = Int8Max / maxAbsW
			}
			for i, w := range row {
				ql.w[o*l.in+i] = int8(clampI32(roundI32(w*ws), -Int8Max, Int8Max))
			}
			// Biases join the accumulator directly; clamp well inside int32
			// so the dot product (bounded by in·127·127) can never overflow.
			const bBound = 1 << 30
			ql.b[o] = clampI32(roundI32(l.b[o]*ws*sa), -bBound, bBound)
			if !last {
				ql.m[o] = actScales[li+1] / (ws * sa)
				ql.mq[o] = fixedMul16(ql.m[o])
			} else {
				ql.m[o] = 1 / (ws * sa)
			}
		}
		q.layers = append(q.layers, ql)
		if l.out > q.maxw {
			q.maxw = l.out
		}
	}
	return q, nil
}

// calibrateActScales returns per-layer activation scales: 127 over the
// max-abs value seen entering each layer across the calibration rows, or
// analytic interval bounds when no rows are given.
func (n *Network) calibrateActScales(calib [][]float64) []float64 {
	maxAbs := make([]float64, len(n.layers))
	if len(calib) == 0 {
		// Interval propagation: |x| ≤ 8 covers min-max features with 3 bits
		// to spare and standard-scaled features to ±8σ; downstream bounds
		// follow from |act(z)| ≤ |z| for the ReLU family.
		bound := 8.0
		for li, l := range n.layers {
			maxAbs[li] = bound
			worst := 0.0
			for o := 0; o < l.out; o++ {
				z := math.Abs(l.b[o])
				for _, w := range l.w[o*l.in : (o+1)*l.in] {
					z += math.Abs(w) * bound
				}
				if z > worst {
					worst = z
				}
			}
			bound = worst
		}
	} else {
		cur := make([]float64, n.ScratchSize())
		next := make([]float64, n.ScratchSize())
		for _, x := range calib {
			for _, v := range x {
				if a := math.Abs(v); a > maxAbs[0] {
					maxAbs[0] = a
				}
			}
			in := x
			for li, l := range n.layers {
				if li == len(n.layers)-1 {
					break // output activations never re-enter a layer
				}
				out := cur[:l.out]
				for o := 0; o < l.out; o++ {
					sum := l.b[o]
					row := l.w[o*l.in : (o+1)*l.in]
					for i, v := range in {
						sum += row[i] * v
					}
					out[o] = l.act.apply(sum)
				}
				for _, v := range out {
					if a := math.Abs(v); a > maxAbs[li+1] {
						maxAbs[li+1] = a
					}
				}
				in = out
				cur, next = next, cur
			}
		}
	}
	scales := make([]float64, len(n.layers))
	for i, a := range maxAbs {
		if a < 1e-6 || math.IsInf(a, 0) || math.IsNaN(a) {
			a = 1e-6
		}
		scales[i] = Int8Max / a
	}
	return scales
}

// ActScales returns the per-layer activation scales (a copy) — everything
// beyond the float weights needed to rebuild this network exactly.
func (q *QuantNetwork8) ActScales() []float64 {
	return append([]float64(nil), q.actScales...)
}

// Inputs returns the network's input width.
func (q *QuantNetwork8) Inputs() int { return q.inputs }

// Quant8Layer is the exported form of one int8 layer, for code generation.
// The slices alias the network's storage; treat them as read-only.
type Quant8Layer struct {
	In, Out int
	Act     Activation
	W       []int8    // out×in, row-major by output neuron
	B       []int32   // ws[o]·sa-scaled biases
	M       []float64 // per-neuron float requant (hidden, reference) / dequant (output)
	MQ      []int64   // hidden only: M at 2^16 fixed point — what the kernel uses
}

// ExportLayers returns the layer parameters for code generation.
func (q *QuantNetwork8) ExportLayers() []Quant8Layer {
	out := make([]Quant8Layer, len(q.layers))
	for i, l := range q.layers {
		out[i] = Quant8Layer{In: l.in, Out: l.out, Act: l.act, W: l.w, B: l.b, M: l.m, MQ: l.mq}
	}
	return out
}

// ScratchSize returns the widest layer — the per-row scratch requirement.
func (q *QuantNetwork8) ScratchSize() int { return q.maxw }

// ParamCount mirrors Network.ParamCount for the int8 form.
func (q *QuantNetwork8) ParamCount() (weights, biases int) {
	for _, l := range q.layers {
		weights += len(l.w)
		biases += len(l.b)
	}
	return weights, biases
}

// MemoryBytes is the honest deployed footprint: 1-byte weights, 4-byte
// biases, the per-neuron requant multipliers (float reference plus the
// fixed-point form the kernel reads, 8 bytes each), per-layer activation
// scales and geometry, and the single-row working set of the kernel (two
// int8 activation planes plus the int32 output accumulators).
func (q *QuantNetwork8) MemoryBytes() int {
	w, b := q.ParamCount()
	mult := 0
	for _, l := range q.layers {
		mult += len(l.m) + len(l.mq)
	}
	return w + 4*b + 8*mult + 32*len(q.layers) + 6*q.maxw
}

// PredictBatchInto scores a whole micro-batch in one sweep. Layout: int8
// activations are batch-major (row r occupies [r·width, (r+1)·width)), and
// hidden layers iterate output neurons in the outer loop, blocked four at a
// time, so one four-row weight tile stays hot across every row in the batch
// and each activation load feeds four int32 multiply-accumulate chains.
// Hidden-layer requantization is one integer multiply-shift per activation —
// the hot loop touches no floats until the output dequant. Allocation-free
// once the scratch has grown to the batch shape; bit-identical to scoring
// rows one at a time because every operation up to the output layer is
// exact integer arithmetic evaluated per (row, neuron).
//
//heimdall:hotpath
func (q *QuantNetwork8) PredictBatchInto(xs [][]float64, out []float64, s *Scratch) {
	rows := len(xs)
	if rows == 0 {
		return
	}
	need := q.maxw * rows
	if cap(s.a8) < need {
		s.a8 = make([]int8, need)
	}
	if cap(s.b8) < need {
		s.b8 = make([]int8, need)
	}
	if cap(s.acc) < q.maxw {
		s.acc = make([]int32, q.maxw)
	}
	cur := s.a8[:need]
	nxt := s.b8[:need]
	res := out[:rows]

	// Quantize the (feature-scaled) inputs to int8 at the input scale.
	in := q.inputs
	sa0 := q.actScales[0]
	for r, x := range xs {
		dst := cur[r*in : r*in+in : r*in+in]
		for i, v := range x[:in] {
			dst[i] = quant8(v * sa0)
		}
	}

	// Hidden layers: integer activation then fixed-point requant to the
	// next scale — no float ops anywhere on this path. Output neurons are
	// blocked four at a time so each activation byte is loaded once and fed
	// to four weight rows (1.25 loads per multiply-accumulate instead of 2),
	// and the four independent accumulator chains pipeline. Re-slicing the
	// weight rows to len(ar) lets the compiler drop the inner bounds checks.
	for li := 0; li < len(q.layers)-1; li++ {
		l := &q.layers[li]
		w, b, mq := l.w, l.b, l.mq
		lin, lout, act := l.in, l.out, l.act
		o := 0
		for ; o+4 <= lout; o += 4 {
			r0 := w[(o+0)*lin : (o+1)*lin : (o+1)*lin]
			r1 := w[(o+1)*lin : (o+2)*lin : (o+2)*lin]
			r2 := w[(o+2)*lin : (o+3)*lin : (o+3)*lin]
			r3 := w[(o+3)*lin : (o+4)*lin : (o+4)*lin]
			b0, b1, b2, b3 := b[o], b[o+1], b[o+2], b[o+3]
			m0, m1, m2, m3 := mq[o], mq[o+1], mq[o+2], mq[o+3]
			for r := 0; r < rows; r++ {
				ar := cur[r*lin : r*lin+lin : r*lin+lin]
				w0, w1, w2, w3 := r0[:len(ar)], r1[:len(ar)], r2[:len(ar)], r3[:len(ar)]
				var a0, a1, a2, a3 int32
				i := 0
				for ; i+2 <= len(ar); i += 2 {
					v0, v1 := int32(ar[i]), int32(ar[i+1])
					a0 += int32(w0[i])*v0 + int32(w0[i+1])*v1
					a1 += int32(w1[i])*v0 + int32(w1[i+1])*v1
					a2 += int32(w2[i])*v0 + int32(w2[i+1])*v1
					a3 += int32(w3[i])*v0 + int32(w3[i+1])*v1
				}
				if i < len(ar) {
					v := int32(ar[i])
					a0 += int32(w0[i]) * v
					a1 += int32(w1[i]) * v
					a2 += int32(w2[i]) * v
					a3 += int32(w3[i]) * v
				}
				base := r * lout
				nxt[base+o+0] = requant8(act8(a0+b0, act), m0)
				nxt[base+o+1] = requant8(act8(a1+b1, act), m1)
				nxt[base+o+2] = requant8(act8(a2+b2, act), m2)
				nxt[base+o+3] = requant8(act8(a3+b3, act), m3)
			}
		}
		// Remainder neurons (layer width not a multiple of four).
		for ; o < lout; o++ {
			row := w[o*lin : o*lin+lin : o*lin+lin]
			bo := b[o]
			mqo := mq[o]
			for r := 0; r < rows; r++ {
				ar := cur[r*lin : r*lin+lin : r*lin+lin]
				wr := row[:len(ar)]
				var acc int32
				for i, av := range ar {
					acc += int32(wr[i]) * int32(av)
				}
				nxt[r*lout+o] = requant8(act8(acc+bo, act), mqo)
			}
		}
		cur, nxt = nxt, cur
	}

	// Output layer: accumulate per row, one float transfer at the end.
	l := &q.layers[len(q.layers)-1]
	lin, lout := l.in, l.out
	acc := s.acc[:lout]
	for r := 0; r < rows; r++ {
		ar := cur[r*lin : r*lin+lin : r*lin+lin]
		for o := 0; o < lout; o++ {
			row := l.w[o*lin : o*lin+lin : o*lin+lin]
			wr := row[:len(ar)]
			var sum int32
			for i, av := range ar {
				sum += int32(wr[i]) * int32(av)
			}
			acc[o] = sum + l.b[o]
		}
		switch l.act {
		case Sigmoid:
			z := float64(acc[0]) * l.m[0]
			res[r] = 1 / (1 + math.Exp(-z))
		case Softmax:
			// Two-class: P(class 1).
			z0 := float64(acc[0]) * l.m[0]
			z1 := float64(acc[1]) * l.m[1]
			zm := math.Max(z0, z1)
			e0, e1 := math.Exp(z0-zm), math.Exp(z1-zm)
			res[r] = e1 / (e0 + e1)
		default:
			res[r] = float64(acc[0]) * l.m[0]
		}
	}
}

// act8 applies a ReLU-family hidden activation in the integer domain. It is
// a branch-light leaf so it inlines into the kernel; post-activation values
// are non-negative for ReLU, which keeps requant8's sign branch predictable.
//
//heimdall:hotpath
func act8(acc int32, act Activation) int32 {
	if acc >= 0 {
		return acc
	}
	switch act {
	case ReLU:
		return 0
	case LeakyReLU:
		return acc / 100
	case PReLU:
		return acc / 4
	}
	return acc
}

// requant8 rescales a hidden-layer accumulator to the next layer's int8
// activation scale: one widening multiply by the 2^16 fixed-point
// multiplier, a half-away-from-zero rounding shift, and a saturating clamp.
// mq is bounded by 2^32−1 at build time, so the product can never overflow
// int64 (|acc| ≤ 2^31).
//
//heimdall:hotpath
func requant8(acc int32, mq int64) int8 {
	p := int64(acc) * mq
	if p >= 0 {
		p = (p + 1<<15) >> 16
	} else {
		p = -((-p + 1<<15) >> 16)
	}
	if p >= Int8Max {
		return Int8Max
	}
	if p <= -Int8Max {
		return -Int8Max
	}
	return int8(p)
}

// fixedMul16 converts a positive float multiplier to 2^16 fixed point,
// rounding to nearest and capping at 2^32−1. The cap is exact with respect
// to requant8's saturating output: any multiplier at or above it maps every
// nonzero accumulator past ±127 anyway.
func fixedMul16(m float64) int64 {
	const cap16 = 1<<32 - 1
	f := m * (1 << 16)
	if f >= cap16 {
		return cap16
	}
	return int64(f + 0.5)
}

// quant8 rounds half away from zero and clamps to the symmetric int8 range.
// The clamp runs in the float domain so an out-of-range accumulator can
// never hit Go's implementation-specific float→int overflow conversion.
//
//heimdall:hotpath
func quant8(t float64) int8 {
	if t >= Int8Max {
		return Int8Max
	}
	if t <= -Int8Max {
		return -Int8Max
	}
	if t >= 0 {
		return int8(int32(t + 0.5))
	}
	return int8(int32(t - 0.5))
}

func roundI32(v float64) int32 {
	if v >= 0 {
		if v > math.MaxInt32 {
			return math.MaxInt32
		}
		return int32(v + 0.5)
	}
	if v < math.MinInt32 {
		return math.MinInt32
	}
	return int32(v - 0.5)
}

func clampI32(v, lo, hi int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
