package nn

import (
	"math"
	"math/rand"
	"testing"
)

// trained8Net returns a small trained network (so weights are non-degenerate)
// plus a deterministic calibration/eval row set.
func trained8Net(t testing.TB, shape []LayerSpec, inputs int) (*Network, [][]float64) {
	t.Helper()
	net, err := New(Config{
		Inputs: inputs, Layers: shape, Seed: 42,
		LR: 0.02, Epochs: 30, Batch: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var X [][]float64
	var y []float64
	for i := 0; i < 512; i++ {
		row := make([]float64, inputs)
		sum := 0.0
		for j := range row {
			row[j] = rng.Float64()
			sum += row[j]
		}
		X = append(X, row)
		if sum > float64(inputs)/2 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	if _, err := net.Train(X, y); err != nil {
		t.Fatal(err)
	}
	return net, X
}

// TestQuant8BatchMatchesRow pins the core determinism property of the int8
// engine: the batch-major kernel is bit-identical to scoring rows one at a
// time (batch of 1), at every batch size, for every supported output design.
// This is what lets the serving layer batch without changing verdicts.
func TestQuant8BatchMatchesRow(t *testing.T) {
	shapes := [][]LayerSpec{
		{{128, ReLU}, {16, ReLU}, {1, Sigmoid}},
		{{32, LeakyReLU}, {1, Linear}},
		{{16, PReLU}, {8, ReLU}, {2, Softmax}},
		{{1, Sigmoid}}, // no hidden layer at all
	}
	for _, shape := range shapes {
		net, rows := trained8Net(t, shape, 11)
		q, err := net.Quantize8(rows)
		if err != nil {
			t.Fatal(err)
		}
		single := make([]float64, len(rows))
		s1 := NewScratch(q, 1)
		var out1 [1]float64
		for i, r := range rows {
			q.PredictBatchInto([][]float64{r}, out1[:], s1)
			single[i] = out1[0]
		}
		for _, bs := range []int{1, 3, 16, 64, len(rows)} {
			s := NewScratch(q, bs)
			got := make([]float64, len(rows))
			for off := 0; off < len(rows); off += bs {
				end := off + bs
				if end > len(rows) {
					end = len(rows)
				}
				q.PredictBatchInto(rows[off:end], got[off:], s)
			}
			for i := range got {
				if got[i] != single[i] {
					t.Fatalf("%v batch=%d row %d: batched %v != single %v", shape, bs, i, got[i], single[i])
				}
			}
		}
	}
}

// TestQuant8CloseToFloat checks calibrated int8 inference against the float
// reference: probabilities stay close and confident decisions never flip.
func TestQuant8CloseToFloat(t *testing.T) {
	net, rows := trained8Net(t, []LayerSpec{{128, ReLU}, {16, ReLU}, {1, Sigmoid}}, 11)
	q, err := net.Quantize8(rows)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch(q, len(rows))
	got := make([]float64, len(rows))
	q.PredictBatchInto(rows, got, s)
	worst, mean := 0.0, 0.0
	for i, r := range rows {
		pf := net.Predict(r)
		if math.IsNaN(got[i]) || got[i] < 0 || got[i] > 1 {
			t.Fatalf("row %d: non-probability int8 output %v", i, got[i])
		}
		d := math.Abs(pf - got[i])
		mean += d
		if d > worst {
			worst = d
		}
		if (pf >= 0.5) != (got[i] >= 0.5) && math.Abs(pf-0.5) > 0.03 {
			t.Fatalf("row %d: confident decision flipped (float %v, int8 %v)", i, pf, got[i])
		}
	}
	mean /= float64(len(rows))
	t.Logf("|float - int8| over %d calibration rows: max %v mean %v", len(rows), worst, mean)
	// Worst-case drift grows with fan-in (128-wide layers sum ~128 int8
	// rounding errors into a steep sigmoid); what deployment needs is that
	// typical drift is small and confident verdicts never flip (above).
	if worst > 0.15 {
		t.Fatalf("int8 max drift %v exceeds tolerance 0.15", worst)
	}
	if mean > 0.02 {
		t.Fatalf("int8 mean drift %v exceeds tolerance 0.02", mean)
	}
}

// TestQuant8ScaleRoundTrip pins the serialization contract: float weights
// plus the stored activation scales rebuild a bit-identical int8 network.
func TestQuant8ScaleRoundTrip(t *testing.T) {
	net, rows := trained8Net(t, []LayerSpec{{32, ReLU}, {8, ReLU}, {1, Sigmoid}}, 11)
	q, err := net.Quantize8(rows)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := net.Quantize8Scales(q.ActScales())
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch(q, len(rows))
	a := make([]float64, len(rows))
	b := make([]float64, len(rows))
	q.PredictBatchInto(rows, a, s)
	q2.PredictBatchInto(rows, b, s)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d: rebuilt network differs (%v != %v)", i, a[i], b[i])
		}
	}
}

// TestQuant8UncalibratedFallback checks the analytic-bound path: no
// calibration rows still yields a working (if coarser) network.
func TestQuant8UncalibratedFallback(t *testing.T) {
	net, rows := trained8Net(t, []LayerSpec{{16, ReLU}, {1, Sigmoid}}, 11)
	q, err := net.Quantize8(nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch(q, 1)
	var out [1]float64
	for _, r := range rows[:32] {
		q.PredictBatchInto([][]float64{r}, out[:], s)
		if math.IsNaN(out[0]) || out[0] < 0 || out[0] > 1 {
			t.Fatalf("fallback scales produced non-probability %v", out[0])
		}
	}
}

// TestQuant8Errors covers the rejection paths.
func TestQuant8Errors(t *testing.T) {
	net, _ := trained8Net(t, []LayerSpec{{8, SELU}, {1, Sigmoid}}, 4)
	if _, err := net.Quantize8(nil); err == nil {
		t.Fatal("SELU hidden layer quantized without error")
	}
	net2, _ := trained8Net(t, []LayerSpec{{8, ReLU}, {1, Sigmoid}}, 4)
	if _, err := net2.Quantize8Scales([]float64{1}); err == nil {
		t.Fatal("wrong scale count accepted")
	}
	if _, err := net2.Quantize8Scales([]float64{1, -3}); err == nil {
		t.Fatal("negative scale accepted")
	}
	if _, err := net2.Quantize8Scales([]float64{1, math.Inf(1)}); err == nil {
		t.Fatal("infinite scale accepted")
	}
}

// TestQuant8Accounting sanity-checks ParamCount, ScratchSize, MemoryBytes,
// and the int8-vs-int32 footprint ordering the bench output reports.
func TestQuant8Accounting(t *testing.T) {
	net, rows := trained8Net(t, []LayerSpec{{128, ReLU}, {16, ReLU}, {1, Sigmoid}}, 11)
	q8, err := net.Quantize8(rows)
	if err != nil {
		t.Fatal(err)
	}
	q32, err := net.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	w8, b8 := q8.ParamCount()
	w32, b32 := q32.ParamCount()
	if w8 != w32 || b8 != b32 {
		t.Fatalf("param counts differ: int8 %d/%d vs int32 %d/%d", w8, b8, w32, b32)
	}
	if q8.ScratchSize() != q32.ScratchSize() {
		t.Fatalf("scratch sizes differ: %d vs %d", q8.ScratchSize(), q32.ScratchSize())
	}
	if q8.MemoryBytes() >= q32.MemoryBytes() {
		t.Fatalf("int8 footprint %dB not smaller than int32 %dB", q8.MemoryBytes(), q32.MemoryBytes())
	}
	// The int32 footprint must now cover more than bare parameters (the
	// scratch-and-scale-table accounting fix).
	if q32.MemoryBytes() <= 4*w32+8*b32 {
		t.Fatalf("int32 MemoryBytes %dB ignores scratch/scale tables", q32.MemoryBytes())
	}
	exp := q8.ExportLayers()
	if len(exp) != 3 || q8.Inputs() != 11 || len(exp[2].M) != 1 || !(exp[2].M[0] > 0) {
		t.Fatal("export accessors inconsistent")
	}
}
