package nn

import (
	"math"
	"testing"
)

// FuzzQuantizedInference drives arbitrary (scaled-range) inputs through the
// float and quantized paths: both must stay finite, probabilities in [0,1],
// and decisions must agree except in a narrow probability band around 0.5
// where fixed-point rounding can legitimately flip them.
func FuzzQuantizedInference(f *testing.F) {
	net, err := New(Config{
		Inputs: 4,
		Layers: []LayerSpec{{16, ReLU}, {8, ReLU}, {1, Sigmoid}},
		Seed:   42, LR: 0.02, Epochs: 40, Batch: 16,
	})
	if err != nil {
		f.Fatal(err)
	}
	// Train on a simple separable rule so the network is non-degenerate.
	var X [][]float64
	var y []float64
	for i := 0; i < 256; i++ {
		v := float64(i%16) / 16
		w := float64((i/16)%16) / 16
		X = append(X, []float64{v, w, 1 - v, 0.5})
		if v+w > 1 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	if _, err := net.Train(X, y); err != nil {
		f.Fatal(err)
	}
	q, err := net.Quantize()
	if err != nil {
		f.Fatal(err)
	}

	f.Add(0.1, 0.9, 0.3, 0.5)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(1.0, 1.0, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		x := []float64{clamp01f(a), clamp01f(b), clamp01f(c), clamp01f(d)}
		pf := net.Predict(x)
		pq := predictOne(q, x)
		if math.IsNaN(pf) || math.IsNaN(pq) || pf < 0 || pf > 1 || pq < 0 || pq > 1 {
			t.Fatalf("non-probability output: float %v quant %v for %v", pf, pq, x)
		}
		if math.Abs(pf-pq) > 0.05 {
			t.Fatalf("quantization drift %v (float %v quant %v) at %v", pf-pq, pf, pq, x)
		}
		if (pf >= 0.5) != (pq >= 0.5) && math.Abs(pf-0.5) > 0.02 {
			t.Fatalf("confident decision flipped by quantization: float %v quant %v at %v", pf, pq, x)
		}
	})
}

// FuzzQuantize8 drives the int8 quantization round trip over arbitrary
// network seeds and calibration inputs: Quantize8 must never panic, every
// quantized weight must stay inside the symmetric ±127 bound, activation
// scales must stay positive and finite, rebuilding from ActScales must be
// exact, and inference on the calibration rows must stay a probability.
func FuzzQuantize8(f *testing.F) {
	f.Add(int64(1), 0.1, 0.9, 0.3)
	f.Add(int64(-7), 0.0, 0.0, 0.0)
	f.Add(int64(1<<40), 1e6, -1e6, 3.14)
	f.Fuzz(func(t *testing.T, seed int64, a, b, c float64) {
		net, err := New(Config{
			Inputs: 3,
			Layers: []LayerSpec{{8, ReLU}, {4, LeakyReLU}, {1, Sigmoid}},
			Seed:   seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		sane := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return v
		}
		calib := [][]float64{
			{sane(a), sane(b), sane(c)},
			{sane(b), sane(c), sane(a)},
		}
		q, err := net.Quantize8(calib)
		if err != nil {
			t.Fatal(err)
		}
		for li, l := range q.ExportLayers() {
			for _, w := range l.W {
				if w > Int8Max || w < -Int8Max {
					t.Fatalf("layer %d weight %d exceeds symmetric int8 bound", li, w)
				}
			}
		}
		for i, s := range q.ActScales() {
			if !(s > 0) || math.IsInf(s, 0) {
				t.Fatalf("activation scale %d is %v", i, s)
			}
		}
		q2, err := net.Quantize8Scales(q.ActScales())
		if err != nil {
			t.Fatal(err)
		}
		s := NewScratch(q, 2)
		out := make([]float64, 2)
		out2 := make([]float64, 2)
		q.PredictBatchInto(calib, out, s)
		q2.PredictBatchInto(calib, out2, s)
		for i := range out {
			if math.IsNaN(out[i]) || out[i] < 0 || out[i] > 1 {
				t.Fatalf("int8 output %d is %v, want probability", i, out[i])
			}
			if out[i] != out2[i] {
				t.Fatalf("scale round trip diverged: %v != %v", out[i], out2[i])
			}
		}
	})
}

func clamp01f(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
