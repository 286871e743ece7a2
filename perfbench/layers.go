package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/feature"
	"repro/internal/filter"
	"repro/internal/iolog"
	"repro/internal/lifecycle"
	"repro/internal/nn"
	"repro/internal/serve"
)

// layerReps is how many times each re-driven layer measurement repeats; the
// median is reported.
const layerReps = 3

// layerInput is recorded traffic to re-drive through the public functions
// the serving shard and the harvester call: per-device frame logs in send
// order, a sample of the decide rows they produced, the drift reference, and
// the batch sizes forward passes ran at.
type layerInput struct {
	model    *core.Model
	logs     [][]frame
	rows     [][]float64
	rowDevs  []uint32
	ref      [][]float64
	batchMix []int
	harvest  lifecycle.Config
}

// timeReps runs f layerReps times and returns the median wall time in ns.
//
// Audited wall-clock use: the benchmark's measurements are wall time.
//
//heimdall:walltime
func timeReps(f func()) float64 {
	ts := make([]float64, layerReps)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = float64(time.Since(t0))
	}
	return median(ts)
}

// capturePredictor records the scaled rows a model hands its engine, so the
// engine can be timed alone on exactly the rows it sees in service.
type capturePredictor struct {
	nn.Predictor
	rows [][]float64
}

func (c *capturePredictor) PredictBatchInto(xs [][]float64, out []float64, s *nn.Scratch) {
	for _, x := range xs {
		c.rows = append(c.rows, append([]float64(nil), x...))
	}
	c.Predictor.PredictBatchInto(xs, out, s)
}

// nopPredictor stands in for an engine and does no work.
type nopPredictor struct{ nn.Predictor }

func (nopPredictor) PredictBatchInto(xs [][]float64, out []float64, _ *nn.Scratch) {
	for i := range xs {
		out[i] = 0
	}
}

// chunks splits rows into consecutive batches whose sizes cycle through mix.
func chunks(rows [][]float64, mix []int) [][][]float64 {
	var out [][][]float64
	for i, k := 0, 0; i < len(rows); k++ {
		n := mix[k%len(mix)]
		if i+n > len(rows) {
			n = len(rows) - i
		}
		out = append(out, rows[i:i+n])
		i += n
	}
	return out
}

// batchMixOf turns the server's power-of-two batch histogram into a cycle
// of 64 batch sizes in proportion to it, each bucket at its lower bound.
func batchMixOf(hist [8]uint64) []int {
	var total uint64
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return []int{1}
	}
	var mix []int
	for i, c := range hist {
		n := int(float64(c)/float64(total)*64 + 0.5)
		for j := 0; j < n; j++ {
			mix = append(mix, 1<<i)
		}
	}
	if len(mix) == 0 {
		return []int{1}
	}
	return mix
}

// measureLayers re-drives the recorded traffic through feature, drift, core,
// nn and lifecycle, timing each in bulk so clock reads do not swamp calls of
// a few nanoseconds.
func measureLayers(in layerInput, o *outcome) error {
	m := in.model
	spec := m.Spec()

	// feature: window pushes alone, then pushes plus row assembly.
	var pushes, decides int64
	for _, log := range in.logs {
		for _, f := range log {
			if f.decide {
				decides++
			} else {
				pushes++
			}
		}
	}
	win := feature.NewWindow(spec.Depth)
	row := make([]float64, 0, spec.Width())
	pushNs := timeReps(func() {
		for _, log := range in.logs {
			win.Reset()
			for _, f := range log {
				if !f.decide {
					win.Push(histOf(f))
				}
			}
		}
	})
	allNs := timeReps(func() {
		for _, log := range in.logs {
			win.Reset()
			for _, f := range log {
				if f.decide {
					row = spec.OnlineInto(row[:0], int(f.qlen), int32(f.size), 0, 0, win)
				} else {
					win.Push(histOf(f))
				}
			}
		}
	})
	o.metrics["feature.window_push_ns"] = perCall(pushNs, pushes)
	o.metrics["feature.online_into_ns"] = perCall(allNs-pushNs, decides)

	// drift: a fresh detector on the same reference the server used.
	det := drift.NewInputDetector(in.ref, 10)
	o.metrics["drift.observe_ns"] = perCall(timeReps(func() {
		for _, r := range in.rows {
			det.Observe(r)
		}
	}), int64(len(in.rows)))

	// core: batched admission at the recorded batch mix, and the engine's
	// share of it on the scaled rows the model hands the engine.
	capt := &capturePredictor{Predictor: m.Predictor()}
	capM := m.WithPredictor(capt)
	scr := capM.NewBatchScratch(64)
	verdicts := make([]bool, 64)
	want := make([]bool, 0, len(in.rows))
	for _, c := range chunks(in.rows, []int{64}) {
		capM.AdmitBatchInto(c, verdicts, scr)
		want = append(want, verdicts[:len(c)]...)
	}
	scaled := capt.rows
	mixed := chunks(in.rows, in.batchMix)
	scr = m.NewBatchScratch(64)
	admitNs := timeReps(func() {
		for _, c := range mixed {
			m.AdmitBatchInto(c, verdicts, scr)
		}
	})
	// AdmitBatchInto's self time: the same calls with an engine that does
	// no work, so the figure is not the difference of two noisy totals.
	nop := m.WithPredictor(nopPredictor{m.Predictor()})
	nscr := nop.NewBatchScratch(64)
	selfNs := timeReps(func() {
		for _, c := range mixed {
			nop.AdmitBatchInto(c, verdicts, nscr)
		}
	})
	o.metrics["core.admit_batch_ns_per_row"] = perCall(admitNs, int64(len(in.rows)))
	o.metrics["core.scale_ns_per_row"] = perCall(selfNs, int64(len(in.rows)))
	out := make([]float64, 64)

	// nn: the engine ladder at fixed batch sizes, and each engine's verdict
	// agreement with the default engine on the same rows.
	i8 := m.WithPredictor(nil)
	if err := i8.EnableInt8(in.ref); err != nil {
		return fmt.Errorf("int8 engine: %w", err)
	}
	preds := map[string]nn.Predictor{"float": m.Net(), "int32": m.Quantized(), "int8": i8.Quantized8()}
	for _, e := range engines {
		p := preds[e]
		if p == nil {
			return fmt.Errorf("model has no %s engine", e)
		}
		s := nn.NewScratch(p, 64)
		for _, b := range ladderBatches {
			cs := chunks(scaled, []int{b})
			o.metrics[fmt.Sprintf("nn.predict_ns_per_row.%s.b%d", e, b)] = perCall(timeReps(func() {
				for _, c := range cs {
					p.PredictBatchInto(c, out, s)
				}
			}), int64(len(scaled)))
		}
		if e == "int32" {
			continue
		}
		em := m.WithPredictor(p)
		escr := em.NewBatchScratch(64)
		agree := 0
		k := 0
		for _, c := range chunks(in.rows, []int{64}) {
			em.AdmitBatchInto(c, verdicts, escr)
			for _, v := range verdicts[:len(c)] {
				if v == want[k] {
					agree++
				}
				k++
			}
		}
		o.metrics["nn.agree_frac."+e] = float64(agree) / float64(max(len(want), 1))
	}

	// lifecycle: the harvester fed the same completion stream and decisions.
	var h *lifecycle.Harvester
	compNs := timeReps(func() {
		h = lifecycle.NewHarvester(in.harvest, spec)
		for d, log := range in.logs {
			for _, f := range log {
				if !f.decide {
					h.OnCompletion(uint32(d), f.val, f.qlen, f.size)
				}
			}
		}
	})
	o.metrics["lifecycle.on_completion_ns"] = perCall(compNs, pushes)
	o.metrics["lifecycle.on_decision_ns"] = perCall(timeReps(func() {
		for i, r := range in.rows {
			h.OnDecision(in.rowDevs[i], r, want[i])
		}
	}), int64(len(in.rows)))
	return nil
}

// perCall divides a total time by a call count, 0 when nothing ran.
func perCall(totalNs float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return totalNs / float64(n)
}

// measureTraining times the training pipeline's stages on one log by
// calling each stage's public function, and reads the model's own split of
// preprocessing and gradient descent.
func measureTraining(log []iolog.Record, m *core.Model, o *outcome) {
	reads := iolog.Reads(log)
	cfg := m.Config()
	var labels []int
	o.metrics["core.label_s"] = timeReps(func() { labels, _ = core.Label(reads, cfg) }) / 1e9
	var fres filter.Result
	o.metrics["filter.apply_s"] = timeReps(func() { fres = filter.Apply(reads, labels, cfg.Filter) }) / 1e9
	o.metrics["filter.kept_frac"] = float64(fres.Kept) / float64(max(len(reads), 1))
	o.metrics["feature.extract_s"] = timeReps(func() { feature.Extract(reads, m.Spec()) }) / 1e9
	rep := m.Report()
	o.metrics["nn.train_s"] = rep.TrainTime.Seconds()
	o.metrics["nn.train_epochs"] = float64(rep.TrainStats.Epochs)
	o.metrics["core.preprocess_s"] = rep.PreprocessTime.Seconds()
}

// zero sets metrics a workload cannot measure to 0 and says why.
func zero(o *outcome, why string, names ...string) {
	for _, n := range names {
		o.metrics[n] = 0
		o.absent[n] = why
	}
}

// serveLayers fills the per-layer metrics of a traced serve run.
func serveLayers(o *outcome, g *generator, st *serveSetup, stats serve.Stats, ver verification, tk *ticker, tr *tracer, p serveParams) error {
	harvest := st.mgrCfg
	if st.mgr == nil {
		harvest = lifecycle.Config{Seed: st.mgrCfg.Seed}
	}
	if err := measureLayers(layerInput{
		model: st.model, logs: g.logs, rows: ver.rows, rowDevs: ver.rowDevs, ref: st.ref,
		batchMix: batchMixOf(stats.BatchHist), harvest: harvest,
	}, o); err != nil {
		return err
	}
	measureTraining(st.trainLog, st.model, o)

	o.metrics["serve.client.submit_ns"] = tr.meanNs("serve.client.submit")
	o.metrics["serve.client.complete_ns"] = tr.meanNs("serve.client.complete")
	var batches uint64
	for _, c := range stats.BatchHist {
		batches += c
	}
	o.metrics["serve.batches"] = float64(batches)
	o.metrics["serve.batch_rows_mean"] = float64(g.sent) / float64(max(batches, 1))
	o.metrics["serve.sheds"] = float64(stats.Sheds)
	o.metrics["serve.deadline_sheds"] = float64(stats.DeadlineSheds)
	o.metrics["serve.breaker_answers"] = float64(stats.BreakerOpen)
	o.metrics["serve.partial_flushes"] = float64(stats.PartialFlush)
	o.metrics["ssd.submit_ns"] = tr.meanNs("ssd.submit")
	o.metrics["trace.generate_s"] = st.genS
	o.metrics["iolog.collect_s"] = st.collect

	total := g.sliceWall[0] + g.sliceWall[1]
	o.metrics["bench.gen_busy_frac"] = 1 - float64(g.waitNs)/float64(total)
	untraced := float64(g.decided[0]) / g.sliceWall[0].Seconds()
	traced := float64(g.decided[1]) / g.sliceWall[1].Seconds()
	o.metrics["bench.trace_overhead_frac"] = 1 - traced/untraced

	// The per-decide sum of the layers timed from outside: what is left of
	// the median RTT is the wire, the shard queue and the scheduler.
	var decides, completions int64
	for _, log := range g.logs {
		for _, f := range log {
			if f.decide {
				decides++
			} else {
				completions++
			}
		}
	}
	cpd := float64(completions) / float64(max(decides, 1))
	layerNs := o.metrics["serve.client.submit_ns"] + cpd*o.metrics["serve.client.complete_ns"] +
		o.metrics["feature.online_into_ns"] + cpd*o.metrics["feature.window_push_ns"] +
		o.metrics["drift.observe_ns"] + o.metrics["core.admit_batch_ns_per_row"]
	p50 := summarize(append([]float64(nil), g.rtt[0]...)).P50
	o.metrics["serve.unaccounted_us"] = p50 - layerNs/1e3
	o.detail["unaccounted_basis"] = map[string]any{"untraced_p50_us": p50, "layers_ns_per_decide": layerNs,
		"completions_per_decide": cpd, "note": "core.admit_batch includes the nn forward pass and core scaling"}

	if p.Drift {
		o.metrics["lifecycle.tick_s"] = median(tk.tickS)
		o.metrics["lifecycle.rounds"] = float64(len(tk.trainS))
		o.metrics["lifecycle.candidates"] = float64(tk.cands)
		o.metrics["lifecycle.judged"] = float64(tk.judged)
		o.metrics["lifecycle.promotions"] = float64(tk.promos)
		o.metrics["lifecycle.promote_ratio"] = float64(tk.promos) / float64(max(tk.judged, 1))
		o.detail["promote_ratio_base"] = map[string]int{"promotions": tk.promos, "judged": tk.judged}
	} else {
		zero(o, "serve-steady runs no lifecycle manager", "lifecycle.tick_s", "lifecycle.rounds",
			"lifecycle.candidates", "lifecycle.judged", "lifecycle.promotions", "lifecycle.promote_ratio")
	}
	zero(o, "serve workloads route through the server, not a replay policy", "policy.decide_ns",
		"policy.inferences_per_read", "policy.decline_frac", "replay.baseline_s", "replay.self_s")
	return nil
}
