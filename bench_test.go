package heimdall

// One benchmark per paper table/figure (each runs the corresponding
// experiment at SmallScale; use cmd/heimdall-bench for larger scales), plus
// microbenchmarks for the deployment-critical paths: admission through the
// float engine and the integer reference networks (§4.1), training
// throughput (§6.7), labeling, and the simulator itself.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/feature"
	"repro/internal/iolog"
	"repro/internal/label"
	"repro/internal/linnos"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/replay"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// ---- Microbenchmarks ----

func benchModel(b *testing.B) *core.Model {
	b.Helper()
	tr := trace.Generate(trace.MSRStyle(1, 2*time.Second))
	dev := ssd.New(ssd.Samsung970Pro(), 1)
	log := iolog.Collect(tr, dev)
	cfg := core.DefaultConfig(1)
	cfg.Epochs = 6
	cfg.MaxTrainSamples = 8000
	m, err := core.Train(log, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkInferenceQuantized measures one admission decision through the
// int32 fixed-point network of §4.1 (the paper reports 0.05-0.12µs in C),
// pinned with WithPredictor since the model decides through float.
func BenchmarkInferenceQuantized(b *testing.B) {
	m := benchModel(b)
	m = m.WithPredictor(m.Quantized())
	hist := feature.NewWindow(3)
	hist.Push(feature.Hist{Latency: 100_000, QueueLen: 2, Thpt: 40})
	raw := m.Features(3, 4096, hist)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Admit(raw)
	}
}

// BenchmarkInferenceInt8 measures one admission decision through the int8
// reference network.
func BenchmarkInferenceInt8(b *testing.B) {
	m := benchModel(b)
	if err := m.EnableInt8(nil); err != nil {
		b.Fatal(err)
	}
	m = m.WithPredictor(m.Quantized8())
	hist := feature.NewWindow(3)
	hist.Push(feature.Hist{Latency: 100_000, QueueLen: 2, Thpt: 40})
	raw := m.Features(3, 4096, hist)
	m.Admit(raw) // warm the scratch outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Admit(raw)
	}
}

// benchBatchAdmit times the batched admission path (scaling + forward pass +
// threshold) through the model's engine, reporting ns per row.
func benchBatchAdmit(b *testing.B, m *core.Model) {
	b.Helper()
	tr := trace.Generate(trace.MSRStyle(2, 2*time.Second))
	log := iolog.Collect(tr, ssd.New(ssd.Samsung970Pro(), 2))
	rows := feature.Extract(iolog.Reads(log), m.Spec())
	const batch = 64
	rows = rows[:len(rows)/batch*batch]
	scr := m.NewBatchScratch(batch)
	verdicts := make([]bool, batch)
	m.AdmitBatchInto(rows[:batch], verdicts, scr) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(rows); off += batch {
			m.AdmitBatchInto(rows[off:off+batch], verdicts, scr)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
}

// BenchmarkBatchAdmitFloat, BenchmarkBatchAdmitInt32 and
// BenchmarkBatchAdmitInt8 compare the batched admission path across the
// float engine and the two integer reference networks on identical rows —
// the rows behind the heimdall-bench int8 table.
func BenchmarkBatchAdmitFloat(b *testing.B) {
	benchBatchAdmit(b, benchModel(b))
}

func BenchmarkBatchAdmitInt32(b *testing.B) {
	m := benchModel(b)
	benchBatchAdmit(b, m.WithPredictor(m.Quantized()))
}

func BenchmarkBatchAdmitInt8(b *testing.B) {
	m := benchModel(b)
	if err := m.EnableInt8(nil); err != nil {
		b.Fatal(err)
	}
	benchBatchAdmit(b, m.WithPredictor(m.Quantized8()))
}

// BenchmarkInferenceFloat measures one admission decision through the
// float engine every model decides with (the paper's 20µs pre-optimization
// path, here fast because Go compiles natively). It must report 0
// allocs/op.
func BenchmarkInferenceFloat(b *testing.B) {
	m := benchModel(b)
	hist := feature.NewWindow(3)
	raw := m.Features(3, 4096, hist)
	m.Admit(raw) // warm the scratch buffers outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Admit(raw)
	}
}

// BenchmarkInferenceJoint measures one joint inference deciding 9 I/Os at
// once (§4.2).
func BenchmarkInferenceJoint(b *testing.B) {
	net, err := nn.New(nn.Config{
		Inputs: 19, // 10 head features + 9 sizes
		Layers: []nn.LayerSpec{{Units: 128, Act: nn.ReLU}, {Units: 16, Act: nn.ReLU}, {Units: 1, Act: nn.Sigmoid}},
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	q, err := net.Quantize()
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 19)
	cur := make([]int64, q.ScratchSize())
	next := make([]int64, q.ScratchSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.PredictInto(x, cur, next)
	}
}

// BenchmarkLinnOSInference measures one LinnOS per-page decision for
// comparison (8448 multiplications vs Heimdall's 3472, §6.6).
func BenchmarkLinnOSInference(b *testing.B) {
	tr := trace.Generate(trace.MSRStyle(2, 2*time.Second))
	dev := ssd.New(ssd.Samsung970Pro(), 2)
	m, err := linnos.Train(iolog.Collect(tr, dev), 2)
	if err != nil {
		b.Fatal(err)
	}
	hist := feature.NewWindow(linnos.HistDepth)
	row := linnos.Features(3, hist)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Admit(row)
	}
}

// BenchmarkTraining measures the full pipeline (§6.7) on a fixed log.
func BenchmarkTraining(b *testing.B) {
	tr := trace.Generate(trace.MSRStyle(3, 2*time.Second))
	dev := ssd.New(ssd.Samsung970Pro(), 3)
	log := iolog.Collect(tr, dev)
	cfg := core.DefaultConfig(3)
	cfg.Epochs = 6
	cfg.MaxTrainSamples = 8000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(log, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeriodLabeling measures §3.1 labeling including threshold search.
func BenchmarkPeriodLabeling(b *testing.B) {
	tr := trace.Generate(trace.MSRStyle(4, 2*time.Second))
	dev := ssd.New(ssd.Samsung970Pro(), 4)
	reads := iolog.Reads(iolog.Collect(tr, dev))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th := label.Search(reads, label.SearchOptions{})
		label.Period(reads, th)
	}
}

// BenchmarkFeatureExtraction measures §3.3 extraction at depth 3.
func BenchmarkFeatureExtraction(b *testing.B) {
	tr := trace.Generate(trace.MSRStyle(5, 2*time.Second))
	dev := ssd.New(ssd.Samsung970Pro(), 5)
	reads := iolog.Reads(iolog.Collect(tr, dev))
	spec := feature.DefaultSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feature.Extract(reads, spec)
	}
}

// BenchmarkDeviceSubmit measures the SSD simulator's per-I/O cost.
func BenchmarkDeviceSubmit(b *testing.B) {
	dev := ssd.New(ssd.Samsung970Pro(), 6)
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := trace.Read
		if i%3 == 0 {
			op = trace.Write
		}
		dev.Submit(now, op, 8192)
		now += 50_000
	}
}

// BenchmarkReplay measures the event-driven replayer end to end.
func BenchmarkReplay(b *testing.B) {
	cfg := trace.MSRStyle(7, time.Second)
	cfg.MeanIOPS = 10000
	tr := trace.Generate(cfg)
	devs := []ssd.Config{ssd.Samsung970Pro(), ssd.Samsung970Pro()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay.Run([]*trace.Trace{tr.Clone()}, replay.Options{
			Devices: devs, Seed: int64(i), Selector: policy.C3{},
		})
	}
}

// ---- One benchmark per paper table/figure (SmallScale) ----

func benchTable(b *testing.B, f func(experiments.Scale) experiments.Table) {
	b.Helper()
	scale := experiments.SmallScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := f(scale)
		if len(t.Rows) == 0 {
			b.Fatalf("%s produced no rows", t.Title)
		}
	}
}

func BenchmarkFig05aLabeling(b *testing.B)      { benchTable(b, experiments.Fig5a) }
func BenchmarkFig05bNoise(b *testing.B)         { benchTable(b, experiments.Fig5b) }
func BenchmarkFig07aCorrelation(b *testing.B)   { benchTable(b, experiments.Fig7a) }
func BenchmarkFig07bFeatures(b *testing.B)      { benchTable(b, experiments.Fig7b) }
func BenchmarkFig07cDepth(b *testing.B)         { benchTable(b, experiments.Fig7c) }
func BenchmarkFig07dScalers(b *testing.B)       { benchTable(b, experiments.Fig7d) }
func BenchmarkFig08Models(b *testing.B)         { benchTable(b, experiments.Fig8) }
func BenchmarkFig09aPerPage(b *testing.B)       { benchTable(b, experiments.Fig9a) }
func BenchmarkFig09bLayers(b *testing.B)        { benchTable(b, experiments.Fig9b) }
func BenchmarkFig09cNeuronGrid(b *testing.B)    { benchTable(b, experiments.Fig9c) }
func BenchmarkFig09dActivations(b *testing.B)   { benchTable(b, experiments.Fig9d) }
func BenchmarkFig09eOutputLayer(b *testing.B)   { benchTable(b, experiments.Fig9e) }
func BenchmarkFig10Heuristics(b *testing.B)     { benchTable(b, experiments.Fig10) }
func BenchmarkFig11LargeScale(b *testing.B)     { benchTable(b, experiments.Fig11) }
func BenchmarkFig12Kernel(b *testing.B)         { benchTable(b, experiments.Fig12) }
func BenchmarkFig13Cluster(b *testing.B)        { benchTable(b, experiments.Fig13) }
func BenchmarkFig14Ablation(b *testing.B)       { benchTable(b, experiments.Fig14) }
func BenchmarkFig15aThroughput(b *testing.B)    { benchTable(b, experiments.Fig15a) }
func BenchmarkFig15bJointAccuracy(b *testing.B) { benchTable(b, experiments.Fig15b) }
func BenchmarkFig15cJoint(b *testing.B)         { benchTable(b, experiments.Fig15c) }
func BenchmarkFig16Overhead(b *testing.B)       { benchTable(b, experiments.Fig16) }
func BenchmarkFig17Retraining(b *testing.B)     { benchTable(b, experiments.Fig17) }
func BenchmarkFig18AutoML(b *testing.B)         { benchTable(b, experiments.Fig18) }
func BenchmarkTrainingTime(b *testing.B)        { benchTable(b, experiments.TrainTime) }
