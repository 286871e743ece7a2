package core

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/feature"
	"repro/internal/iolog"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	_, log := testLog(t, 21, 3*time.Second)
	m, err := Train(log, quickCfg(21))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Threshold() != m.Threshold() {
		t.Fatalf("threshold %v vs %v", m2.Threshold(), m.Threshold())
	}
	if m2.Spec() != m.Spec() {
		t.Fatal("feature spec changed")
	}
	if m2.Quantized() == nil {
		t.Fatal("quantized path not rebuilt")
	}
	// Every decision and score must survive the round trip exactly.
	reads := iolog.Reads(log)
	rows := feature.Extract(reads[:300], m.Spec())
	for i, raw := range rows {
		if m.Score(raw) != m2.Score(raw) {
			t.Fatalf("score diverged at row %d", i)
		}
		if m.Admit(raw) != m2.Admit(raw) {
			t.Fatalf("decision diverged at row %d", i)
		}
	}
	// Loaded models must be retrainable.
	if _, err := m2.Retrain(log); err != nil {
		t.Fatalf("retrain after load: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a model")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestExportC(t *testing.T) {
	_, log := testLog(t, 22, 3*time.Second)
	m, err := Train(log, quickCfg(22))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.ExportC(&buf, "hd"); err != nil {
		t.Fatal(err)
	}
	src := buf.String()
	for _, want := range []string{
		"float hd_score(const float raw[11])",
		"int hd_admit(const float raw[11])",
		"static const int32_t hd_w0[1408]", // 11 x 128
		"static const int32_t hd_w1[2048]", // 128 x 16
		"static const int32_t hd_w2[16]",   // 16 x 1
		"static const float hd_min[11]",
		"#include <stdint.h>",
		"acc >> 10",
		"expf(-z)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated C missing %q", want)
		}
	}
	// Balanced braces — a cheap well-formedness check.
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Error("unbalanced braces in generated C")
	}
	// Threshold constant must appear in the admit function.
	if !strings.Contains(src, "hd_score(raw) <") {
		t.Error("admit() does not compare against the threshold")
	}
}

func TestExportCRejectsUnsupported(t *testing.T) {
	_, log := testLog(t, 23, 3*time.Second)
	cfg := quickCfg(23)
	cfg.Scaler = feature.ScaleStandard
	cfg.Quantize = false
	m, err := Train(log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ExportC(&bytes.Buffer{}, ""); err == nil {
		t.Fatal("standard scaler accepted by C export")
	}
}

// TestCGenMatchesGo interprets the generated C semantics in Go (same
// operations) and checks it reproduces the quantized scores. This guards
// the generator's arithmetic without needing a C compiler.
func TestCGenMatchesGo(t *testing.T) {
	_, log := testLog(t, 24, 3*time.Second)
	m, err := Train(log, quickCfg(24))
	if err != nil {
		t.Fatal(err)
	}
	st := m.scaler.State()
	snap := m.net.Snapshot()

	cScore := func(raw []float64) float64 {
		maxw := snap.Inputs
		for _, l := range snap.Layers {
			if l.Units > maxw {
				maxw = l.Units
			}
		}
		cur := make([]int64, maxw)
		next := make([]int64, maxw)
		for i := 0; i < snap.Inputs; i++ {
			span := st.B[i] - st.A[i]
			v := 0.0
			if span > 0 {
				v = (raw[i] - st.A[i]) / span
			}
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			cur[i] = int64(v*1024 + 0.5)
		}
		in := snap.Inputs
		for li, spec := range snap.Layers {
			last := li == len(snap.Layers)-1
			for o := 0; o < spec.Units; o++ {
				acc := int64(math.Round(snap.Biases[li][o] * 1024 * 1024))
				for i := 0; i < in; i++ {
					w := int64(math.Round(snap.Weights[li][o*in+i] * 1024))
					acc += w * cur[i]
				}
				if !last {
					if acc < 0 {
						acc = 0
					}
					acc >>= 10
				}
				next[o] = acc
			}
			cur, next = next, cur
			in = spec.Units
		}
		z := float64(cur[0]) / (1024 * 1024)
		return 1 / (1 + math.Exp(-z))
	}

	reads := iolog.Reads(log)
	rows := feature.Extract(reads[:200], m.Spec())
	for i, raw := range rows {
		want := m.Score(append([]float64(nil), raw...))
		// m.Score uses the float net; compare against the quantized path,
		// which is what the C code reproduces.
		row := append([]float64(nil), raw...)
		m.scale(row)
		w := m.qnet.ScratchSize()
		got := m.qnet.PredictInto(row, make([]int64, w), make([]int64, w))
		emu := cScore(raw)
		if math.Abs(got-emu) > 1e-6 {
			t.Fatalf("row %d: C emulation %v vs quantized %v", i, emu, got)
		}
		if math.Abs(want-emu) > 0.05 {
			t.Fatalf("row %d: C emulation %v far from float %v", i, emu, want)
		}
	}
}
