package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/feature"
)

// TestAdmitBatchIntoConcurrent drives one shared model from several
// goroutines, each with its own Scratch — the serving-shard usage. Run under
// -race this pins that model state really is read-only at decision time.
func TestAdmitBatchIntoConcurrent(t *testing.T) {
	_, log := testLog(t, 12, 3*time.Second)
	m, err := Train(log, quickCfg(12))
	if err != nil {
		t.Fatal(err)
	}
	// Reference decisions computed sequentially first.
	rows := make([][]float64, 300)
	want := make([]bool, len(rows))
	win := feature.NewWindow(m.Spec().Depth)
	for i := range rows {
		rows[i] = m.Features(i%16, int32(4096+512*(i%32)), win)
		want[i] = m.Admit(rows[i])
		win.Push(feature.Hist{Latency: float64(90000 + 700*i), QueueLen: float64(i % 16), Thpt: 40})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scr := m.NewBatchScratch(1)
			var got [1]bool
			for i, raw := range rows {
				if m.AdmitBatchInto([][]float64{raw}, got[:], scr); got[0] != want[i] {
					t.Errorf("row %d: concurrent AdmitBatchInto %v != sequential %v", i, got[0], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAdmitZeroAlloc pins 0 allocs/op on the one-row decide path once the
// model's internal scratch exists.
func TestAdmitZeroAlloc(t *testing.T) {
	_, log := testLog(t, 13, 3*time.Second)
	m, err := Train(log, quickCfg(13))
	if err != nil {
		t.Fatal(err)
	}
	win := feature.NewWindow(m.Spec().Depth)
	win.Push(feature.Hist{Latency: 95000, QueueLen: 4, Thpt: 60})
	raw := m.Features(3, 8192, win)
	sink := m.Admit(raw) // build the internal scratch outside the measurement
	if a := testing.AllocsPerRun(200, func() {
		sink = m.Admit(raw)
	}); a != 0 {
		t.Fatalf("Admit allocates %.1f per run", a)
	}
	_ = sink
}

// TestSetThreshold pins the deployment-time recalibration semantics: a
// threshold above every score admits everything, one below declines
// everything.
func TestSetThreshold(t *testing.T) {
	_, log := testLog(t, 14, 3*time.Second)
	m, err := Train(log, quickCfg(14))
	if err != nil {
		t.Fatal(err)
	}
	scr := m.NewBatchScratch(1)
	win := feature.NewWindow(m.Spec().Depth)
	raw := m.Features(2, 4096, win)
	var v [1]bool

	m.SetThreshold(2)
	if m.AdmitBatchInto([][]float64{raw}, v[:], scr); m.Threshold() != 2 || !v[0] || !m.Admit(raw) {
		t.Fatal("threshold 2 should admit every score in [0,1]")
	}
	m.SetThreshold(-1)
	if m.AdmitBatchInto([][]float64{raw}, v[:], scr); v[0] || m.Admit(raw) {
		t.Fatal("threshold -1 should decline every score in [0,1]")
	}
}
