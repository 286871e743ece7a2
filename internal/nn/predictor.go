package nn

// Predictor is the batch inference interface the admission path decides
// through. Three networks implement it:
//
//   - *Network: float64 arithmetic, the engine every core.Model decides
//     with;
//   - *QuantNetwork: int32 ×1024 fixed point, one shift per hidden layer —
//     the §4.1 kernel form, kept as the C-export reference;
//   - *QuantNetwork8: int8 weights with per-channel symmetric scales and a
//     batch-major tiled kernel, also a C-export reference.
//
// Callers program against Predictor so a measurement harness can time an
// engine, or wrap one, without call-site changes.
type Predictor interface {
	// PredictBatchInto scores a batch of feature-scaled rows into
	// out[:len(xs)] using caller-provided scratch. Implementations allocate
	// nothing once the scratch has grown to the batch shape, so hot loops
	// can pin allocation-freedom with testing.AllocsPerRun. Rows must all
	// have the network's input width; out must have at least len(xs) room.
	PredictBatchInto(xs [][]float64, out []float64, s *Scratch)

	// ScratchSize is the widest layer of the network — the per-row scratch
	// requirement of the forward pass.
	ScratchSize() int

	// MemoryBytes is the honest deployed footprint: parameters plus scale
	// tables plus the per-row scratch the kernel needs.
	MemoryBytes() int
}

// Compile-time checks: every network form is a Predictor.
var (
	_ Predictor = (*Network)(nil)
	_ Predictor = (*QuantNetwork)(nil)
	_ Predictor = (*QuantNetwork8)(nil)
)

// Scratch holds the per-caller buffers any Predictor needs. One Scratch
// serves any engine (it carries buffers for every network form), so a
// caller that swaps predictors at runtime keeps its scratch. Kernels grow
// the buffers on demand; undersizing costs a one-time allocation, never
// correctness.
type Scratch struct {
	// float network: layer ping-pong buffers
	//
	//heimdall:owner Network.PredictBatchInto,NewScratch
	fa, fb []float64
	// int32 network: layer ping-pong buffers
	//
	//heimdall:owner QuantNetwork.PredictBatchInto,NewScratch
	qa, qb []int64
	// int8 network: batch-major activation planes (width × batch)
	//
	//heimdall:owner QuantNetwork8.PredictBatchInto,NewScratch
	a8, b8 []int8
	// int8 network: output-layer accumulators for one row
	//
	//heimdall:owner QuantNetwork8.PredictBatchInto,NewScratch
	acc []int32
}

// NewScratch sizes a Scratch for p with room for batches of up to maxBatch
// rows (values below 1 are treated as 1).
func NewScratch(p Predictor, maxBatch int) *Scratch {
	if maxBatch < 1 {
		maxBatch = 1
	}
	w := p.ScratchSize()
	return &Scratch{
		fa:  make([]float64, w),
		fb:  make([]float64, w),
		qa:  make([]int64, w),
		qb:  make([]int64, w),
		a8:  make([]int8, w*maxBatch),
		b8:  make([]int8, w*maxBatch),
		acc: make([]int32, w),
	}
}

// PredictBatchInto implements Predictor for the float network: a row loop
// over the PredictInto kernel. Each row is scored independently, so the
// result is bit-identical at any batch size or order.
//
//heimdall:hotpath
func (n *Network) PredictBatchInto(xs [][]float64, out []float64, s *Scratch) {
	w := n.ScratchSize()
	if cap(s.fa) < w {
		s.fa = make([]float64, w)
		s.fb = make([]float64, w)
	}
	for r, x := range xs {
		out[r] = n.PredictInto(x, s.fa[:w], s.fb[:w])
	}
}

// PredictBatchInto implements Predictor for the int32 network: a row loop
// over the PredictInto kernel. Integer arithmetic is exact, so this is
// bit-identical to scoring the rows one at a time in any order.
//
//heimdall:hotpath
func (q *QuantNetwork) PredictBatchInto(xs [][]float64, out []float64, s *Scratch) {
	w := q.ScratchSize()
	if cap(s.qa) < w {
		s.qa = make([]int64, w)
		s.qb = make([]int64, w)
	}
	for r, x := range xs {
		out[r] = q.PredictInto(x, s.qa[:w], s.qb[:w])
	}
}
