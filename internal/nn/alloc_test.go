package nn

import "testing"

func allocNet(t testing.TB, layers []LayerSpec) *Network {
	t.Helper()
	net, err := New(Config{Inputs: 11, Layers: layers, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// predictOne scores one row through p's batch kernel with fresh scratch.
func predictOne(p Predictor, x []float64) float64 {
	var out [1]float64
	p.PredictBatchInto([][]float64{x}, out[:], NewScratch(p, 1))
	return out[0]
}

// trainForward scores x through the training-side forward pass (the layer
// buffers backprop reads), the reference inference must reproduce.
func trainForward(n *Network, x []float64) float64 {
	a := x
	for _, l := range n.layers {
		a = l.forward(a)
	}
	return a[len(a)-1]
}

// TestPredictIntoMatchesInfer pins the zero-alloc inference kernel to the
// cold Predict call and to the training forward pass across every supported
// output design.
func TestPredictIntoMatchesInfer(t *testing.T) {
	shapes := [][]LayerSpec{
		{{128, ReLU}, {16, ReLU}, {1, Sigmoid}},
		{{32, LeakyReLU}, {1, Linear}},
		{{16, Tanh}, {8, SELU}, {2, Softmax}},
	}
	for _, shape := range shapes {
		net := allocNet(t, shape)
		x := make([]float64, 11)
		for i := range x {
			x[i] = float64(i)*0.13 - 0.5
		}
		cur := make([]float64, net.ScratchSize())
		next := make([]float64, net.ScratchSize())
		got := net.PredictInto(x, cur, next)
		if want := net.Predict(x); got != want {
			t.Fatalf("%v: PredictInto %v != Predict %v", shape, got, want)
		}
		if fwd := trainForward(net, x); fwd != got {
			t.Fatalf("%v: training forward pass %v != PredictInto %v", shape, fwd, got)
		}
	}
}

// TestFloatPredictIntoZeroAlloc asserts the float deployment path allocates
// nothing per inference once scratch exists.
func TestFloatPredictIntoZeroAlloc(t *testing.T) {
	net := allocNet(t, []LayerSpec{{128, ReLU}, {16, ReLU}, {1, Sigmoid}})
	x := make([]float64, 11)
	cur := make([]float64, net.ScratchSize())
	next := make([]float64, net.ScratchSize())
	var sink float64
	if a := testing.AllocsPerRun(200, func() {
		sink = net.PredictInto(x, cur, next)
	}); a != 0 {
		t.Fatalf("float PredictInto allocates %.1f per run", a)
	}
	_ = sink
}

// TestQuantPredictIntoZeroAlloc asserts the quantized deployment path (§4.1)
// allocates nothing per inference.
func TestQuantPredictIntoZeroAlloc(t *testing.T) {
	net := allocNet(t, []LayerSpec{{128, ReLU}, {16, ReLU}, {1, Sigmoid}})
	q, err := net.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 11)
	cur := make([]int64, q.ScratchSize())
	next := make([]int64, q.ScratchSize())
	var sink float64
	if a := testing.AllocsPerRun(200, func() {
		sink = q.PredictInto(x, cur, next)
	}); a != 0 {
		t.Fatalf("quantized PredictInto allocates %.1f per run", a)
	}
	_ = sink
}

// TestPredictBatchIntoZeroAlloc asserts every Predictor's batch entry point
// allocates nothing once its Scratch has grown to the batch shape — the
// guarantee the serving layer's batched decide path is built on.
func TestPredictBatchIntoZeroAlloc(t *testing.T) {
	net := allocNet(t, []LayerSpec{{128, ReLU}, {16, ReLU}, {1, Sigmoid}})
	q32, err := net.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	q8, err := net.Quantize8(nil)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 64
	xs := make([][]float64, batch)
	for i := range xs {
		row := make([]float64, 11)
		for j := range row {
			row[j] = float64(i*11+j%7) * 0.01
		}
		xs[i] = row
	}
	out := make([]float64, batch)
	for _, tc := range []struct {
		name string
		p    Predictor
	}{
		{"float", net}, {"int32", q32}, {"int8", q8},
	} {
		s := NewScratch(tc.p, batch)
		if a := testing.AllocsPerRun(200, func() {
			tc.p.PredictBatchInto(xs, out, s)
		}); a != 0 {
			t.Fatalf("%s PredictBatchInto allocates %.1f per run", tc.name, a)
		}
	}
}
