package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/feature"
	"repro/internal/iolog"
	"repro/internal/nn"
)

// evalRows extracts a deterministic raw feature set from a fresh device log.
func evalRows(t *testing.T, m *Model, seed int64) [][]float64 {
	t.Helper()
	_, lg := testLog(t, seed, 3*time.Second)
	return feature.Extract(iolog.Reads(lg), m.Spec())
}

// TestAdmitBatchIntoMatchesAdmitInto pins the API contract the serving layer
// leans on: one batched pass returns exactly the verdicts one-row admission
// would, at every batch size — on the float engine whether or not the
// integer references were built, and on each integer reference pinned
// through WithPredictor.
func TestAdmitBatchIntoMatchesAdmitInto(t *testing.T) {
	for _, mode := range []struct {
		name          string
		quant, quant8 bool
		engine        func(m *Model) nn.Predictor
	}{
		{"float", false, false, func(m *Model) nn.Predictor { return m.Net() }},
		{"int32", true, false, func(m *Model) nn.Predictor { return m.Quantized() }},
		{"int8", false, true, func(m *Model) nn.Predictor { return m.Quantized8() }},
		{"int32+int8", true, true, func(m *Model) nn.Predictor { return nil }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			_, lg := testLog(t, 31, 3*time.Second)
			cfg := quickCfg(31)
			cfg.Quantize = mode.quant
			cfg.Quantize8 = mode.quant8
			trained, err := Train(lg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if mode.quant8 && trained.Quantized8() == nil {
				t.Fatal("Quantize8 set but no int8 network built")
			}
			m := trained.WithPredictor(mode.engine(trained))
			rows := evalRows(t, m, 32)[:400]
			want := make([]bool, len(rows))
			for i, r := range rows {
				want[i] = m.Admit(r)
			}
			for _, bs := range []int{1, 7, 64, len(rows)} {
				bscr := m.NewBatchScratch(bs)
				got := make([]bool, len(rows))
				for off := 0; off < len(rows); off += bs {
					end := off + bs
					if end > len(rows) {
						end = len(rows)
					}
					m.AdmitBatchInto(rows[off:end], got[off:], bscr)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s batch=%d row %d: batched %v != row-by-row %v",
							mode.name, bs, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestServedMatchesOffline is the offline-vs-served differential: on one
// seeded log, the offline pipeline's scores (Evaluate) thresholded at the
// calibrated boundary, batched admission at several batch sizes, one-row
// Admit, and the lifecycle judge's Score comparison all give the same
// verdict on every row.
func TestServedMatchesOffline(t *testing.T) {
	_, lg := testLog(t, 45, 3*time.Second)
	m, err := Train(lg, quickCfg(45))
	if err != nil {
		t.Fatal(err)
	}
	_, test := testLog(t, 46, 3*time.Second)
	reads := iolog.Reads(test)
	rows := feature.Extract(reads, m.Spec())
	scores, _ := m.evalScores(reads, iolog.GroundTruth(reads))
	offline := make([]bool, len(rows))
	for i, s := range scores {
		offline[i] = s < m.Threshold()
	}
	check := func(path string, got []bool) {
		t.Helper()
		for i := range offline {
			if got[i] != offline[i] {
				t.Fatalf("%s row %d: verdict %v, offline %v", path, i, got[i], offline[i])
			}
		}
	}
	for _, bs := range []int{1, 7, 64} {
		scr := m.NewBatchScratch(bs)
		got := make([]bool, len(rows))
		for off := 0; off < len(rows); off += bs {
			m.AdmitBatchInto(rows[off:min(off+bs, len(rows))], got[off:], scr)
		}
		check(fmt.Sprintf("AdmitBatchInto b%d", bs), got)
	}
	admit := make([]bool, len(rows))
	judge := make([]bool, len(rows))
	for i, r := range rows {
		admit[i] = m.Admit(r)
		judge[i] = m.Score(r) < m.Threshold()
	}
	check("Admit", admit)
	check("Score", judge)

	// The int32 reference network disagrees with the float engine on a few
	// rows of this log, so the agreement above is not vacuous: deciding
	// through any other engine would fail it.
	q := m.WithPredictor(m.Quantized())
	differ := 0
	for i, r := range rows {
		if q.Admit(r) != offline[i] {
			differ++
		}
	}
	t.Logf("%d rows; int32 reference differs on %d", len(rows), differ)
	if differ == 0 {
		t.Fatal("int32 reference agrees everywhere; the differential has no teeth on this log")
	}
}

// TestInt8VerdictAgreement is the golden gate: int8 verdicts against the
// int32 reference engine on a seeded eval set, with the exact agreement rate
// reported. The serving layer treats int8 as a drop-in engine, so agreement
// must stay near-total.
func TestInt8VerdictAgreement(t *testing.T) {
	_, lg := testLog(t, 33, 4*time.Second)
	cfg := quickCfg(33)
	cfg.Quantize = true
	cfg.Quantize8 = true
	m, err := Train(lg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := evalRows(t, m, 34)
	m32 := m.WithPredictor(m.Quantized())
	m8 := m.WithPredictor(m.Quantized8())
	s32 := m32.NewBatchScratch(len(rows))
	s8 := m8.NewBatchScratch(len(rows))
	v32 := make([]bool, len(rows))
	v8 := make([]bool, len(rows))
	m32.AdmitBatchInto(rows, v32, s32)
	m8.AdmitBatchInto(rows, v8, s8)
	agree := 0
	for i := range v32 {
		if v32[i] == v8[i] {
			agree++
		}
	}
	rate := float64(agree) / float64(len(rows))
	t.Logf("int8 vs int32 verdict agreement: %d/%d = %.4f", agree, len(rows), rate)
	if rate < 0.98 {
		t.Fatalf("int8 verdict agreement %.4f below gate 0.98", rate)
	}
}

// TestEnableInt8 covers post-training upgrade: a model trained without
// Quantize8 gains the int8 reference network from caller-supplied
// calibration rows, keeps deciding through the float network, and the int8
// network decides consistently when pinned through WithPredictor.
func TestEnableInt8(t *testing.T) {
	_, lg := testLog(t, 35, 3*time.Second)
	m, err := Train(lg, quickCfg(35))
	if err != nil {
		t.Fatal(err)
	}
	if m.Quantized8() != nil {
		t.Fatal("int8 network present before EnableInt8")
	}
	rows := evalRows(t, m, 36)[:300]
	scr := m.NewBatchScratch(len(rows))
	before := make([]bool, len(rows))
	m.AdmitBatchInto(rows, before, scr)
	if err := m.EnableInt8(rows); err != nil {
		t.Fatal(err)
	}
	q8 := m.Quantized8()
	if q8 == nil || m.Predictor() != nn.Predictor(m.Net()) {
		t.Fatal("EnableInt8 must build the int8 network and leave the float engine deciding")
	}
	after := make([]bool, len(rows))
	m.AdmitBatchInto(rows, after, scr)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("row %d: EnableInt8 changed the model's verdict", i)
		}
	}
	// Pinned, the int8 network decides batched == row-by-row.
	m8 := m.WithPredictor(q8)
	got := make([]bool, len(rows))
	m8.AdmitBatchInto(rows, got, m8.NewBatchScratch(len(rows)))
	for i, r := range rows {
		if m8.Admit(r) != got[i] {
			t.Fatalf("row %d: int8 Admit != AdmitBatchInto", i)
		}
	}
	// Idempotent: a second call keeps the same network.
	if err := m.EnableInt8(nil); err != nil {
		t.Fatal(err)
	}
	if m.Quantized8() != q8 {
		t.Fatal("second EnableInt8 rebuilt the network")
	}
}

// TestPredictorIsFloat pins the one inference path: every constructor —
// Train, TrainLiveRows, FinetuneLive, FinetuneLiveRows, Load — returns a
// model that decides through its float network even when it carries both
// integer references, and WithPredictor derives an independent model.
func TestPredictorIsFloat(t *testing.T) {
	_, lg := testLog(t, 37, 3*time.Second)
	cfg := quickCfg(37)
	cfg.Quantize = true
	cfg.Quantize8 = true
	m, err := Train(lg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Serving-style rows: queue depth, size, and a latency column that is
	// informative on two samples in three, so both classes stay learnable.
	samples := liveSamples(38, 1200, 2)
	for i := range samples {
		s := &samples[i]
		s.Row = make([]float64, cfg.Feature.Width())
		s.Row[0], s.Row[1] = float64(s.QueueLen), float64(s.Size)
		s.Row[2] = float64(s.LatencyNs) * float64(i%3) / 3
	}
	lcfg := liveTestConfig(38)
	lcfg.Quantize = true
	lcfg.Quantize8 = true
	live, err := TrainLiveRows(samples, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	tunedRows, err := live.FinetuneLiveRows(samples, 2)
	if err != nil {
		t.Fatal(err)
	}
	lrec, err := TrainLive(samples, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := lrec.FinetuneLive(samples, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, x := range map[string]*Model{
		"Train": m, "Load": loaded, "TrainLiveRows": live,
		"FinetuneLiveRows": tunedRows, "FinetuneLive": tuned,
	} {
		if x.Quantized() == nil || x.Quantized8() == nil {
			t.Fatalf("%s: integer references not built", name)
		}
		if x.Predictor() != nn.Predictor(x.Net()) {
			t.Fatalf("%s: model does not decide through its float network", name)
		}
	}
	// WithPredictor derives an independent model; the original is untouched.
	c := m.WithPredictor(m.Quantized())
	if c.Predictor() != nn.Predictor(m.Quantized()) || m.Predictor() != nn.Predictor(m.Net()) {
		t.Fatal("WithPredictor leaked into the original model")
	}
	if c.Threshold() != m.Threshold() {
		t.Fatal("WithPredictor lost the calibrated threshold")
	}
	if c.WithPredictor(nil).Predictor() != nn.Predictor(m.Net()) {
		t.Fatal("WithPredictor(nil) should decide through the float network")
	}
}

// TestSaveLoadInt8RoundTrip pins serialization exactness for the int8
// reference network: stored activation scales plus the float snapshot
// rebuild a network whose every verdict matches the original.
func TestSaveLoadInt8RoundTrip(t *testing.T) {
	_, lg := testLog(t, 39, 3*time.Second)
	cfg := quickCfg(39)
	cfg.Quantize8 = true
	m, err := Train(lg, cfg)
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
	if m2.Quantized8() == nil {
		t.Fatal("int8 network not rebuilt on Load")
	}
	m, m2 = m.WithPredictor(m.Quantized8()), m2.WithPredictor(m2.Quantized8())
	rows := evalRows(t, m, 40)[:500]
	s1 := m.NewBatchScratch(len(rows))
	s2 := m2.NewBatchScratch(len(rows))
	v1 := make([]bool, len(rows))
	v2 := make([]bool, len(rows))
	m.AdmitBatchInto(rows, v1, s1)
	m2.AdmitBatchInto(rows, v2, s2)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("row %d: verdict diverged across save/load", i)
		}
	}
}

// TestAdmitBatchIntoZeroAlloc pins 0 allocs/op on the batched decide path —
// the guarantee the serving layer's drain loop depends on.
func TestAdmitBatchIntoZeroAlloc(t *testing.T) {
	_, lg := testLog(t, 41, 3*time.Second)
	m, err := Train(lg, quickCfg(41))
	if err != nil {
		t.Fatal(err)
	}
	rows := evalRows(t, m, 42)[:64]
	scr := m.NewBatchScratch(len(rows))
	verdicts := make([]bool, len(rows))
	if a := testing.AllocsPerRun(200, func() {
		m.AdmitBatchInto(rows, verdicts, scr)
	}); a != 0 {
		t.Fatalf("AdmitBatchInto allocates %.1f per run", a)
	}
}

// TestExportCInt8 checks the generated file gains the int8 batch kernel when
// the model carries the engine, and stays well-formed.
func TestExportCInt8(t *testing.T) {
	_, lg := testLog(t, 43, 3*time.Second)
	cfg := quickCfg(43)
	cfg.Quantize8 = true
	m, err := Train(lg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.ExportC(&buf, "hd"); err != nil {
		t.Fatal(err)
	}
	src := buf.String()
	for _, want := range []string{
		"void hd_score_batch8(const float *raw, int n, float *out)",
		"void hd_admit_batch8(const float *raw, int n, int *out)",
		"static const int8_t hd_w8_0[1408]", // 11 x 128
		"static const int32_t hd_b8_0[128]",
		"static const int64_t hd_mq8_0[128]", // fixed-point hidden requant
		"static const double hd_m8_2[1]",     // float output dequant
		"static const double hd_sa8",
		"static int8_t hd_q8(double t)",
		"(p + 32768) >> 16",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated C missing %q", want)
		}
	}
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Error("unbalanced braces in generated C")
	}
}
