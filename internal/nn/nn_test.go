package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func xorData() ([][]float64, []float64) {
	X := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	y := []float64{0, 1, 1, 0}
	// Replicate so batches are non-trivial.
	var XX [][]float64
	var yy []float64
	for i := 0; i < 64; i++ {
		XX = append(XX, X...)
		yy = append(yy, y...)
	}
	return XX, yy
}

func TestLearnsXORSigmoid(t *testing.T) {
	net, err := New(Config{
		Inputs: 2,
		Layers: []LayerSpec{{8, ReLU}, {1, Sigmoid}},
		Seed:   1, Loss: BCE, Optimizer: Adam, LR: 0.02, Epochs: 200, Batch: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	X, y := xorData()
	if _, err := net.Train(X, y); err != nil {
		t.Fatal(err)
	}
	for i, x := range [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		want := []float64{0, 1, 1, 0}[i]
		got := net.Predict(x)
		if math.Abs(got-want) > 0.3 {
			t.Fatalf("xor(%v) = %.3f, want %v", x, got, want)
		}
	}
}

func TestLearnsXORSoftmax(t *testing.T) {
	net, err := New(Config{
		Inputs: 2,
		Layers: []LayerSpec{{8, ReLU}, {2, Softmax}},
		Seed:   2, Loss: CE, Optimizer: Adam, LR: 0.02, Epochs: 200, Batch: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	X, y := xorData()
	if _, err := net.Train(X, y); err != nil {
		t.Fatal(err)
	}
	for i, x := range [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		want := []float64{0, 1, 1, 0}[i]
		got := net.Predict(x) // P(class 1)
		if math.Abs(got-want) > 0.3 {
			t.Fatalf("xor(%v) = %.3f, want %v", x, got, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	net, err := New(Config{
		Inputs: 2,
		Layers: []LayerSpec{{8, ReLU}, {1, Sigmoid}},
		Seed:   7, Loss: BCE, Optimizer: Adam, LR: 0.02, Epochs: 40, Batch: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	X, y := xorData()
	if _, err := net.Train(X, y); err != nil {
		t.Fatal(err)
	}

	probe := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0.5, 0.5}}
	before := make([]float64, len(probe))
	for i, x := range probe {
		before[i] = net.Predict(x)
	}

	clone := net.Clone()
	for i, x := range probe {
		if got := clone.Predict(x); got != before[i] {
			t.Fatalf("clone diverges before training: probe %d %v vs %v", i, got, before[i])
		}
	}

	// Fine-tune the clone: the original must be untouched, and the clone's
	// continued training must be deterministic (two identical clones stay
	// byte-identical).
	clone2 := net.Clone()
	clone.Retune(10, 0.01)
	clone2.Retune(10, 0.01)
	if _, err := clone.Train(X, y); err != nil {
		t.Fatal(err)
	}
	if _, err := clone2.Train(X, y); err != nil {
		t.Fatal(err)
	}
	moved := false
	for i, x := range probe {
		if got := net.Predict(x); got != before[i] {
			t.Fatalf("training a clone mutated the original: probe %d %v vs %v", i, got, before[i])
		}
		c1, c2 := clone.Predict(x), clone2.Predict(x)
		if c1 != c2 {
			t.Fatalf("identical clones diverged after identical training: %v vs %v", c1, c2)
		}
		if c1 != before[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("fine-tuning the clone changed nothing")
	}

	// Retune with non-positive args keeps current settings.
	cfg := clone.Config()
	clone.Retune(0, -1)
	if got := clone.Config(); got.Epochs != cfg.Epochs || got.LR != cfg.LR {
		t.Fatalf("Retune(0,-1) changed config: %+v vs %+v", got, cfg)
	}
}

// TestGradientCheck verifies backprop against finite differences on a tiny
// network with smooth activations.
func TestGradientCheck(t *testing.T) {
	// LR must be non-zero (zero takes the default) but tiny, so the weight
	// update applied after gradient accumulation cannot perturb the check.
	net, err := New(Config{
		Inputs: 3,
		Layers: []LayerSpec{{4, Tanh}, {1, Sigmoid}},
		Seed:   3, Loss: BCE, LR: 1e-12, Epochs: 1, Batch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -0.7, 0.5}
	target := 1.0

	loss := func() float64 {
		p := clampProb(trainForward(net, x))
		return -(target*math.Log(p) + (1-target)*math.Log(1-p))
	}

	// Compute analytic gradients by running one batch with LR=0 — gradients
	// land in gw/gb before applyGrads (which is a no-op at LR 0 with SGD).
	net.cfg.Optimizer = SGD
	net.cfg.Momentum = 0
	net.trainBatch([][]float64{x}, []float64{target}, []int{0})

	const eps = 1e-6
	for li, l := range net.layers {
		for wi := range l.w {
			orig := l.w[wi]
			l.w[wi] = orig + eps
			up := loss()
			l.w[wi] = orig - eps
			down := loss()
			l.w[wi] = orig
			numeric := (up - down) / (2 * eps)
			analytic := l.gw[wi]
			if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d weight %d: analytic %.8f vs numeric %.8f", li, wi, analytic, numeric)
			}
		}
		for bi := range l.b {
			orig := l.b[bi]
			l.b[bi] = orig + eps
			up := loss()
			l.b[bi] = orig - eps
			down := loss()
			l.b[bi] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-l.gb[bi]) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d bias %d: analytic %.8f vs numeric %.8f", li, bi, l.gb[bi], numeric)
			}
		}
	}
}

func TestParamAndMulCounts(t *testing.T) {
	heim, err := New(HeimdallConfig(11, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := heim.MulCount(); got != 3472 {
		t.Fatalf("heimdall multiplications %d, want 3472 (§6.6)", got)
	}
	w, b := heim.ParamCount()
	if w != 3472 || b != 145 {
		t.Fatalf("heimdall params %d+%d", w, b)
	}
	lin, err := New(Config{
		Inputs: 31,
		Layers: []LayerSpec{{256, ReLU}, {2, Softmax}},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, b = lin.ParamCount()
	if w+b != 8706 {
		t.Fatalf("linnos params %d, want 8706 (§6.6)", w+b)
	}
	if got := lin.MulCount(); got != 8448 {
		t.Fatalf("linnos multiplications %d, want 8448 (§6.6)", got)
	}
	if heim.MemoryBytes() >= lin.MemoryBytes() {
		t.Fatal("heimdall model not smaller than linnos")
	}
}

func TestActivations(t *testing.T) {
	cases := []struct {
		a    Activation
		x    float64
		want float64
	}{
		{ReLU, -1, 0}, {ReLU, 2, 2},
		{LeakyReLU, -1, -0.01}, {LeakyReLU, 2, 2},
		{PReLU, -4, -1}, {PReLU, 2, 2},
		{Linear, -3, -3},
		{Sigmoid, 0, 0.5},
		{Tanh, 0, 0},
	}
	for _, c := range cases {
		if got := c.a.apply(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v(%v) = %v, want %v", c.a, c.x, got, c.want)
		}
	}
	if SELU.apply(1) <= 1 {
		t.Error("selu(1) should exceed 1 (lambda > 1)")
	}
	for _, a := range []Activation{ReLU, LeakyReLU, PReLU, SELU, Sigmoid, Tanh, Linear, Softmax} {
		if a.String() == "unknown" {
			t.Errorf("activation %d unnamed", a)
		}
	}
}

func TestActivationDerivativeProperty(t *testing.T) {
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.Abs(raw) > 1e6 {
			return true // mod of astronomically large floats has no precision
		}
		x := math.Mod(raw, 5)
		const eps = 1e-6
		for _, a := range []Activation{ReLU, LeakyReLU, PReLU, SELU, Sigmoid, Tanh, Linear} {
			if math.Abs(x) < 1e-4 && (a == ReLU || a == LeakyReLU || a == PReLU || a == SELU) {
				continue // derivative kink at zero
			}
			y := a.apply(x)
			numeric := (a.apply(x+eps) - a.apply(x-eps)) / (2 * eps)
			if math.Abs(a.deriv(x, y)-numeric) > 1e-4*(1+math.Abs(numeric)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Inputs: 0, Layers: []LayerSpec{{1, Sigmoid}}}); err == nil {
		t.Fatal("zero inputs accepted")
	}
	if _, err := New(Config{Inputs: 2}); err == nil {
		t.Fatal("no layers accepted")
	}
	if _, err := New(Config{Inputs: 2, Layers: []LayerSpec{{0, ReLU}}}); err == nil {
		t.Fatal("zero units accepted")
	}
	net, _ := New(Config{Inputs: 2, Layers: []LayerSpec{{1, Sigmoid}}})
	if _, err := net.Train(nil, nil); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := net.Train([][]float64{{1}}, []float64{0}); err == nil {
		t.Fatal("wrong-width row accepted")
	}
	if _, err := net.Train([][]float64{{1, 2}}, []float64{0, 1}); err == nil {
		t.Fatal("mismatched labels accepted")
	}
}

func TestDeterministicTraining(t *testing.T) {
	build := func() *Network {
		net, _ := New(Config{
			Inputs: 2, Layers: []LayerSpec{{4, ReLU}, {1, Sigmoid}},
			Seed: 9, LR: 0.01, Epochs: 5, Batch: 8,
		})
		X, y := xorData()
		_, _ = net.Train(X, y)
		return net
	}
	a, b := build(), build()
	for li := range a.layers {
		for wi := range a.layers[li].w {
			if a.layers[li].w[wi] != b.layers[li].w[wi] {
				t.Fatal("training not deterministic")
			}
		}
	}
}

// TestInferMatchesForward pins inference (Predict) to the training forward
// pass bit for bit.
func TestInferMatchesForward(t *testing.T) {
	net, _ := New(Config{Inputs: 3, Layers: []LayerSpec{{5, ReLU}, {1, Sigmoid}}, Seed: 4})
	x := []float64{0.1, 0.2, 0.3}
	if net.Predict(x) != trainForward(net, x) {
		t.Fatal("Predict diverges from the training forward pass")
	}
}

func TestEarlyStopping(t *testing.T) {
	net, _ := New(Config{
		Inputs: 2, Layers: []LayerSpec{{4, ReLU}, {1, Sigmoid}},
		Seed: 5, LR: 0.05, Epochs: 500, Batch: 32, Patience: 3,
	})
	X, y := xorData()
	stats, err := net.Train(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epochs == 500 {
		t.Log("early stopping never triggered (possible but unusual)")
	}
	if stats.Epochs < 1 {
		t.Fatal("no epochs ran")
	}
}

func TestQuantizedMatchesFloat(t *testing.T) {
	net, _ := New(Config{
		Inputs: 4, Layers: []LayerSpec{{16, ReLU}, {8, ReLU}, {1, Sigmoid}},
		Seed: 6, LR: 0.01, Epochs: 30, Batch: 16,
	})
	rng := rand.New(rand.NewSource(7))
	X := make([][]float64, 256)
	y := make([]float64, 256)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		if X[i][0]+X[i][1] > 1 {
			y[i] = 1
		}
	}
	if _, err := net.Train(X, y); err != nil {
		t.Fatal(err)
	}
	q, err := net.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	var maxDiff float64
	cur := make([]int64, q.ScratchSize())
	next := make([]int64, q.ScratchSize())
	for i := range X {
		pf := net.Predict(X[i])
		pq := q.PredictInto(X[i], cur, next)
		if (pf >= 0.5) == (pq >= 0.5) {
			agree++
		}
		if d := math.Abs(pf - pq); d > maxDiff {
			maxDiff = d
		}
	}
	if agree < 250 {
		t.Fatalf("quantized decisions agree on %d/256", agree)
	}
	if maxDiff > 0.05 {
		t.Fatalf("max probability drift %.4f", maxDiff)
	}
}

func TestQuantizeSoftmax(t *testing.T) {
	net, _ := New(Config{
		Inputs: 2, Layers: []LayerSpec{{8, ReLU}, {2, Softmax}},
		Seed: 8, Loss: CE, LR: 0.02, Epochs: 100, Batch: 16,
	})
	X, y := xorData()
	if _, err := net.Train(X, y); err != nil {
		t.Fatal(err)
	}
	q, err := net.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	cur := make([]int64, q.ScratchSize())
	next := make([]int64, q.ScratchSize())
	for _, x := range [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		pf := net.Predict(x)
		pq := q.PredictInto(x, cur, next)
		if (pf >= 0.5) != (pq >= 0.5) {
			t.Fatalf("softmax quantized decision differs at %v: %v vs %v", x, pf, pq)
		}
	}
}

func TestQuantizeRejectsTanh(t *testing.T) {
	net, _ := New(Config{Inputs: 2, Layers: []LayerSpec{{4, Tanh}, {1, Sigmoid}}, Seed: 1})
	if _, err := net.Quantize(); err == nil {
		t.Fatal("tanh hidden layer quantized without error")
	}
}

func TestQuantMemoryAccounting(t *testing.T) {
	net, _ := New(HeimdallConfig(11, 1))
	q, err := net.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	w, b := q.ParamCount()
	if w != 3472 || b != 145 {
		t.Fatalf("quant params %d+%d", w, b)
	}
	// 28KB ballpark from the paper: 4B weights + 8B biases.
	if q.MemoryBytes() > 32<<10 {
		t.Fatalf("quantized memory %dB exceeds 32KB", q.MemoryBytes())
	}
}

func TestWeightedLossShiftsDecisions(t *testing.T) {
	// With a heavy positive weight the model should call more things slow.
	build := func(w float64) *Network {
		net, _ := New(Config{
			Inputs: 1, Layers: []LayerSpec{{4, ReLU}, {1, Sigmoid}},
			Seed: 11, LR: 0.02, Epochs: 60, Batch: 16, PosWeight: w,
		})
		rng := rand.New(rand.NewSource(12))
		X := make([][]float64, 400)
		y := make([]float64, 400)
		for i := range X {
			X[i] = []float64{rng.Float64()}
			// Noisy threshold at 0.7, positives rare.
			if X[i][0] > 0.7 && rng.Float64() < 0.8 {
				y[i] = 1
			}
		}
		_, _ = net.Train(X, y)
		return net
	}
	plain := build(1)
	weighted := build(8)
	var plainPos, weightedPos int
	for i := 0; i < 100; i++ {
		x := []float64{float64(i) / 100}
		if plain.Predict(x) >= 0.5 {
			plainPos++
		}
		if weighted.Predict(x) >= 0.5 {
			weightedPos++
		}
	}
	if weightedPos < plainPos {
		t.Fatalf("pos-weighted model predicts fewer positives (%d vs %d)", weightedPos, plainPos)
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	build := func(wd float64) *Network {
		net, _ := New(Config{
			Inputs: 2, Layers: []LayerSpec{{8, ReLU}, {1, Sigmoid}},
			Seed: 21, LR: 0.01, Epochs: 40, Batch: 16, WeightDecay: wd,
		})
		X, y := xorData()
		_, _ = net.Train(X, y)
		return net
	}
	norm := func(n *Network) float64 {
		var s float64
		for _, l := range n.layers {
			for _, w := range l.w {
				s += w * w
			}
		}
		return s
	}
	plain := norm(build(0))
	decayed := norm(build(0.01))
	if decayed >= plain {
		t.Fatalf("weight decay did not shrink weights: %v vs %v", decayed, plain)
	}
	// SGD path too.
	buildSGD := func(wd float64) *Network {
		net, _ := New(Config{
			Inputs: 2, Layers: []LayerSpec{{8, ReLU}, {1, Sigmoid}},
			Seed: 22, LR: 0.05, Epochs: 40, Batch: 16, WeightDecay: wd, Optimizer: SGD,
		})
		X, y := xorData()
		_, _ = net.Train(X, y)
		return net
	}
	if norm(buildSGD(0.01)) >= norm(buildSGD(0)) {
		t.Fatal("SGD weight decay did not shrink weights")
	}
}
