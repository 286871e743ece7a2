package linnos

import (
	"sync"
	"testing"
	"time"

	"repro/internal/feature"
	"repro/internal/iolog"
	"repro/internal/ssd"
	"repro/internal/trace"
)

func TestDigitize(t *testing.T) {
	row := digitize(nil, 123, 4)
	want := []float64{0, 1.0 / 9, 2.0 / 9, 3.0 / 9}
	if len(row) != 4 {
		t.Fatalf("row %v", row)
	}
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("digit %d = %v, want %v", i, row[i], want[i])
		}
	}
	// Saturation at the digit capacity.
	row = digitize(nil, 123456, 4)
	for _, d := range row {
		if d != 1 {
			t.Fatalf("saturated digits %v", row)
		}
	}
	// Negative clamps to zero.
	row = digitize(nil, -5, 3)
	for _, d := range row {
		if d != 0 {
			t.Fatalf("negative digits %v", row)
		}
	}
}

func TestFeaturesWidth(t *testing.T) {
	win := feature.NewWindow(HistDepth)
	row := Features(7, win)
	if len(row) != Inputs || Inputs != 31 {
		t.Fatalf("feature width %d, want 31", len(row))
	}
	for _, v := range row {
		if v < 0 || v > 1 {
			t.Fatalf("digitized value out of range: %v", v)
		}
	}
}

func TestInferencesFor(t *testing.T) {
	cases := []struct {
		size int32
		want int
	}{{4096, 1}, {4097, 2}, {2 << 20, 512}, {1, 1}}
	for _, c := range cases {
		if got := InferencesFor(c.size); got != c.want {
			t.Errorf("InferencesFor(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

var cached struct {
	once sync.Once
	m    *Model
	log  []iolog.Record
	err  error
}

// trainSmall trains one shared model for every test in this package:
// training dominates test wall time, and the tests only read the model.
func trainSmall(t *testing.T) (*Model, []iolog.Record) {
	t.Helper()
	cached.once.Do(func() {
		tr := trace.Generate(trace.MSRStyle(2, 2*time.Second))
		dev := ssd.New(ssd.Samsung970Pro(), 2)
		cached.log = iolog.Collect(tr, dev)
		cached.m, cached.err = Train(cached.log, 2)
	})
	if cached.err != nil {
		t.Fatal(cached.err)
	}
	return cached.m, cached.log
}

func TestTrainAndModelGeometry(t *testing.T) {
	m, _ := trainSmall(t)
	w, b := m.Net().ParamCount()
	if w+b != 8706 {
		t.Fatalf("linnos params %d, want 8706", w+b)
	}
	if m.Net().MulCount() != 8448 {
		t.Fatalf("multiplications %d, want 8448", m.Net().MulCount())
	}
}

func TestAdmitIOCountsPages(t *testing.T) {
	m, _ := trainSmall(t)
	win := feature.NewWindow(HistDepth)
	admit, inf := m.AdmitIO(0, 64<<10, win)
	if admit {
		if inf != 16 {
			t.Fatalf("admitted 64KB I/O with %d inferences, want 16", inf)
		}
	} else if inf < 1 || inf > 16 {
		t.Fatalf("declined with %d inferences", inf)
	}
}

func TestEvaluateAgainstTruth(t *testing.T) {
	m, log := trainSmall(t)
	reads := iolog.Reads(log)
	gt := iolog.GroundTruth(reads)
	rep := m.Evaluate(reads, gt)
	if rep.ROCAUC < 0.6 {
		t.Fatalf("LinnOS in-sample ROC %.3f; model is broken", rep.ROCAUC)
	}
}

func TestScoreAdmitConsistency(t *testing.T) {
	m, _ := trainSmall(t)
	win := feature.NewWindow(HistDepth)
	win.Push(feature.Hist{Latency: 5e6, QueueLen: 30})
	row := Features(25, win)
	score := m.Score(row)
	admit := m.Admit(row)
	if admit != (score < 0.5) {
		t.Fatalf("quantized admit %v vs float score %.3f", admit, score)
	}
}

// TestAdmitCountPinned pins LinnOS's admit count on a seeded trace, so a
// change to its int32 decide path that moves any verdict shows up here.
func TestAdmitCountPinned(t *testing.T) {
	m, _ := trainSmall(t)
	tr := trace.Generate(trace.MSRStyle(3, 2*time.Second))
	log := iolog.Collect(tr, ssd.New(ssd.Samsung970Pro(), 3))
	rows := Extract(iolog.Reads(log))
	admits := 0
	for _, r := range rows {
		if m.Admit(r) {
			admits++
		}
	}
	if len(rows) != 12329 || admits != 11759 {
		t.Fatalf("%d rows, %d admitted; want 12329 rows, 11759 admitted", len(rows), admits)
	}
}
