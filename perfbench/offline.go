package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/iolog"
	"repro/internal/lifecycle"
	"repro/internal/policy"
	"repro/internal/replay"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// offlineParams is the resolved shape of offline-fig11.
type offlineParams struct {
	// CorpusDur is each of the heavy and light training-corpus traces,
	// split into a training half and a holdout half.
	CorpusDur time.Duration `json:"corpus_trace"`
	// Experiments is how many heavy/light pairs are drawn from the run seed
	// and replayed, each TestDur long. Latency ratios are averaged over
	// them, as Fig. 11 averages over experiments: one pair's p99 ratio
	// swung between 0.6 and 0.97 across seeds.
	Experiments int           `json:"experiments"`
	TestDur     time.Duration `json:"test_trace"`
	// HeavyUtil is the read utilization the heavy stream is normalized to
	// on the device, as experiments.makePair does.
	HeavyUtil  float64 `json:"heavy_util"`
	LightShare float64 `json:"light_rate_share"`
	Device     string  `json:"device"`
	Setups     int     `json:"setups"`
}

func fig11Params() offlineParams {
	return offlineParams{CorpusDur: 4 * time.Second, Experiments: 4, TestDur: 16 * time.Second, HeavyUtil: 0.45, LightShare: 0.85,
		Device: ssd.Samsung970Pro().Name, Setups: 5}
}

// offlineSetup is the generated pair: the training corpus's logs collected
// on each device, their holdout logs, and the seeded traffic to replay.
type offlineSetup struct {
	devices   []ssd.Config
	tests     [][]*trace.Trace // one heavy/light pair per experiment
	trainLogs [][]iolog.Record
	holdLogs  [][]iolog.Record
	seed      int64
	genS      float64
	collectS  float64
}

// replaySeed seeds experiment k's replay devices, so the experiments'
// device-internal events are independent draws.
func (st *offlineSetup) replaySeed(k int) int64 { return st.seed + 999 + int64(k)*7919 }

// readUtil estimates a style's read utilization of a device's flash
// channels, the normalization experiments.makePair applies.
func readUtil(style trace.GenConfig, dev ssd.Config) float64 {
	var meanSize, totalW float64
	for _, b := range style.Sizes {
		meanSize += float64(b.Size) * b.Weight
		totalW += b.Weight
	}
	meanSize /= totalW
	pagesPerIO := meanSize/4096 + 0.5
	pagesCap := float64(dev.Channels) / dev.ReadPage.Seconds()
	return style.MeanIOPS * style.ReadRatio * pagesPerIO / pagesCap
}

// pairStyles returns the Fig. 11 heavy/light pair for one seed: a heavy
// MSR-style stream normalized to HeavyUtil of the device, and a light one
// at LightShare of its rate bursting in phase with it.
func pairStyles(p offlineParams, seed int64, dur time.Duration, dev ssd.Config) []trace.GenConfig {
	heavy := trace.MSRStyle(seed*977+1, dur)
	heavy.MeanIOPS *= p.HeavyUtil / readUtil(heavy, dev)
	heavy.BurstSeed = seed*7717 + 3
	light := heavy
	light.Seed += 5
	light.MeanIOPS *= p.LightShare
	return []trace.GenConfig{heavy, light}
}

// setupOffline follows the Fig. 11 recipe: each device's training and
// holdout logs are collected from the training corpus's pair, and the pair
// to replay is drawn from the run seed.
//
// Audited wall-clock use: the benchmark's measurements are wall time.
//
//heimdall:walltime
func setupOffline(p offlineParams, seed int64) *offlineSetup {
	dev := ssd.Samsung970Pro()
	st := &offlineSetup{devices: []ssd.Config{dev, dev}, seed: seed*1313 + 7}
	t0 := time.Now()
	var train, hold []*trace.Trace
	for _, cfg := range pairStyles(p, corpusSeed, p.CorpusDur, dev) {
		tr, ho := trace.Generate(cfg).SplitHalf()
		train, hold = append(train, tr), append(hold, ho)
	}
	for k := 0; k < p.Experiments; k++ {
		var pair []*trace.Trace
		for _, cfg := range pairStyles(p, seed*64+1000+int64(k), p.TestDur, dev) {
			pair = append(pair, trace.Generate(cfg))
		}
		st.tests = append(st.tests, pair)
	}
	st.genS = time.Since(t0).Seconds()
	t1 := time.Now()
	for d := range st.devices {
		_, log := replay.CollectLog(train[d], st.devices[d], corpusSeed+int64(d)*7)
		st.trainLogs = append(st.trainLogs, log)
		_, hlog := replay.CollectLog(hold[d], st.devices[d], corpusSeed+int64(d)*7+3)
		st.holdLogs = append(st.holdLogs, hlog)
	}
	st.collectS = time.Since(t1).Seconds()
	return st
}

// timedSelector times every decision of the policy it wraps. It keeps the
// wrapped policy's Validate, so replay still rejects a bad configuration.
type timedSelector struct {
	inner  policy.Selector
	lat    []float64 // µs per decision
	tr     *tracer
	parent uint64
}

func (t *timedSelector) Name() string { return t.inner.Name() }

func (t *timedSelector) Validate(replicas int) error {
	if v, ok := t.inner.(policy.Validator); ok {
		return v.Validate(replicas)
	}
	return nil
}

// Audited wall-clock use: the benchmark's measurements are wall time.
//
//heimdall:walltime
func (t *timedSelector) Decide(now int64, size int32, primary int, views []policy.View) policy.Decision {
	t0 := time.Now()
	d := t.inner.Decide(now, size, primary, views)
	t1 := time.Now()
	t.lat = append(t.lat, float64(t1.Sub(t0))/1e3)
	if t.tr != nil {
		t.tr.record(0, "policy.decide", t.parent, "replay.run.heimdall", 0, int64(t0.Sub(t.tr.base)), int64(t1.Sub(t.tr.base)))
	}
	return d
}

// checkingSelector runs policy.Heimdall and checks every decision as it is
// made: both replicas' feature rows are rescored through the batched
// admission path and the decision §4.2's joint inference must make is
// rebuilt from the two verdicts. It keeps a sample of primary rows for the
// per-layer measurements.
type checkingSelector struct {
	h          *policy.Heimdall
	scrs       []*core.Scratch
	verdict    []bool
	checked    int
	mismatches int
	rows       [][]float64
	rowDevs    []uint32
}

func newCheckingSelector(models []*core.Model) *checkingSelector {
	c := &checkingSelector{h: &policy.Heimdall{Models: models}, verdict: make([]bool, 1)}
	for _, m := range models {
		c.scrs = append(c.scrs, m.NewBatchScratch(1))
	}
	return c
}

func (c *checkingSelector) Name() string { return c.h.Name() }

func (c *checkingSelector) Validate(replicas int) error { return c.h.Validate(replicas) }

func (c *checkingSelector) admit(d int, row []float64) bool {
	c.h.Models[d].AdmitBatchInto([][]float64{row}, c.verdict, c.scrs[d])
	return c.verdict[0]
}

func (c *checkingSelector) Decide(now int64, size int32, primary int, views []policy.View) policy.Decision {
	got := c.h.Decide(now, size, primary, views)
	alt := (primary + 1) % len(views)
	row := c.h.Models[primary].Features(views[primary].QueueLen, size, views[primary].Hist)
	want := policy.Decision{Target: primary, Inferences: 1}
	if !c.admit(primary, row) {
		want = policy.Decision{Target: alt, Inferences: 2}
		if !c.admit(alt, c.h.Models[alt].Features(views[alt].QueueLen, size, views[alt].Hist)) {
			want.Target = primary
		}
	}
	c.checked++
	if want != got {
		c.mismatches++
	}
	if len(c.rows) < maxSampleRows {
		c.rows = append(c.rows, row)
		c.rowDevs = append(c.rowDevs, uint32(primary))
	}
	return got
}

// replayPass is one pass of the replay loop: every seeded pair through
// policy.Heimdall and through always-admit, one result per experiment.
type replayPass struct {
	traced    bool
	heimdall  []replay.Result
	heimdallS float64
	baseline  []replay.Result
	baselineS float64
	decideUs  []float64
}

// totals sums reads, failures, reroutes and inferences over experiments.
func totals(rs []replay.Result) (reads, failed, reroutes, inferences int) {
	for _, r := range rs {
		reads += r.Reads
		failed += r.Failed
		reroutes += r.Reroutes
		inferences += r.Inferences
	}
	return
}

// sameResults reports whether two passes replayed every experiment
// identically.
func sameResults(a, b []replay.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].Reads != b[k].Reads || a[k].Reroutes != b[k].Reroutes || a[k].Inferences != b[k].Inferences ||
			a[k].ReadLat.Mean != b[k].ReadLat.Mean || a[k].ReadLat.P99 != b[k].ReadLat.P99 {
			return false
		}
	}
	return true
}

// meanRatio averages a latency figure of Heimdall over always-admit across
// experiments.
func meanRatio(h, b []replay.Result, f func(replay.Result) time.Duration) float64 {
	sum := 0.0
	for k := range h {
		sum += float64(f(h[k])) / float64(f(b[k]))
	}
	return sum / float64(len(h))
}

// runOffline trains one model per device of the pair, then replays the
// seeded traffic under both policies until the phase ends (at least once).
//
// Audited wall-clock use: the benchmark's measurements are wall time.
//
//heimdall:walltime
func runOffline(rs runSpec, p offlineParams) (*outcome, error) {
	o := newOutcome()
	var st *offlineSetup
	var setupS []float64
	for i := 0; i < p.Setups; i++ {
		t0 := time.Now()
		st = setupOffline(p, rs.Seed)
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	var tr *tracer
	phase := time.Duration(rs.Seconds) * time.Second
	if rs.Trace {
		tr = newTracer()
		phase *= 2 // alternating untraced and traced replay passes
	}
	start := time.Now()
	models, trainS, err := trainPair(st, tr)
	if err != nil {
		return nil, err
	}
	sel := &timedSelector{inner: &policy.Heimdall{Models: models}}
	var passes []replayPass
	var attempted, failed int64
	for len(passes) == 0 || time.Since(start) < phase {
		pass := replayOnce(st, sel, tr != nil && len(passes)%2 == 1, tr)
		reads, fails, _, _ := totals(pass.heimdall)
		attempted += int64(reads)
		failed += int64(fails)
		passes = append(passes, pass)
	}

	// Checks: every pass replays identically, every read is replayed and
	// none fails, and every decision matches the models' batched rescoring.
	first, base := passes[0].heimdall, passes[0].baseline
	same := true
	for _, ps := range passes[1:] {
		same = same && sameResults(first, ps.heimdall)
	}
	o.check("replay_deterministic", same)
	o.check("no_failed_reads", failed == 0)
	want := 0
	for _, pair := range st.tests {
		for _, t := range pair {
			for _, r := range t.Reqs {
				if r.Op == trace.Read {
					want++
				}
			}
		}
	}
	firstReads, firstFailed, firstReroutes, firstInf := totals(first)
	o.check("every_read_replayed", firstReads == want)
	rec := newCheckingSelector(models)
	var recRes []replay.Result
	for k, pair := range st.tests {
		recRes = append(recRes, replay.Run(pair, replay.Options{Devices: st.devices, Seed: st.replaySeed(k), Selector: rec}))
	}
	o.check("zero_verdict_mismatches", rec.mismatches == 0 && rec.checked == firstReads)
	o.check("checked_replay_matches", sameResults(first, recRes))

	var readsPerS, decideUs []float64
	for _, ps := range passes {
		if !ps.traced {
			readsPerS = append(readsPerS, float64(firstReads)/ps.heimdallS)
			decideUs = append(decideUs, ps.decideUs...)
		}
	}
	lat := summarize(decideUs)
	auc := 0.0
	for d, m := range models {
		auc += holdoutAUC(m, st.holdLogs[d], m.Config()) / float64(len(models))
	}
	o.attempted, o.failed = attempted, failed
	o.metrics["setup_s"] = median(setupS)
	o.metrics["decides_per_s"] = median(readsPerS)
	o.metrics["decide_p50_us"] = lat.P50
	o.metrics["decide_p99_us"] = lat.P99
	o.metrics["decide_ok_frac"] = float64(firstReads-firstFailed) / float64(firstReads)
	o.metrics["retrain_round_s"] = median(trainS)
	o.metrics["train_s"] = trainS[0] + trainS[1]
	o.metrics["replay_reads_per_s"] = median(readsPerS)
	o.metrics["ssd.read_mean_vs_baseline"] = meanRatio(first, base, func(r replay.Result) time.Duration { return r.ReadLat.Mean })
	o.metrics["ssd.read_tail_vs_baseline"] = meanRatio(first, base, func(r replay.Result) time.Duration { return r.ReadLat.P95 })
	o.metrics["holdout_auc"] = auc

	o.detail["params"] = p
	o.detail["replay_passes"] = len(passes)
	o.detail["setup_s_each"] = setupS
	o.detail["train_s_each"] = trainS
	o.detail["decide_latency_us"] = lat
	o.detail["decision_check"] = map[string]int{"checked": rec.checked, "mismatches": rec.mismatches}
	var hd, bd []map[string]any
	for k := range first {
		hd, bd = append(hd, resultDetail(first[k])), append(bd, resultDetail(base[k]))
	}
	o.detail["heimdall"], o.detail["baseline"] = hd, bd
	o.detail["reroutes"], o.detail["inferences"] = firstReroutes, firstInf
	o.detail["read_p99_vs_baseline"] = meanRatio(first, base, func(r replay.Result) time.Duration { return r.ReadLat.P99 })
	o.detail["models"] = []map[string]any{modelDetail(models[0]), modelDetail(models[1])}

	if rs.Trace {
		if err := offlineLayers(o, st, models, passes, rec, tr); err != nil {
			return nil, err
		}
		n, dropped, err := tr.write(fmt.Sprintf("%s/%s.spans.jsonl", rs.OutDir, rs.Workload))
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		o.detail["spans_written"] = n
		o.detail["spans_dropped"] = dropped
	}
	return o, nil
}

// trainPair trains one model per device on its corpus log with
// core.DefaultConfig and returns the models with each training's wall time.
//
// Audited wall-clock use: the benchmark's measurements are wall time.
//
//heimdall:walltime
func trainPair(st *offlineSetup, tr *tracer) ([]*core.Model, []float64, error) {
	var models []*core.Model
	var secs []float64
	for d := range st.devices {
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		w0 := time.Now()
		m, err := core.Train(st.trainLogs[d], core.DefaultConfig(corpusSeed+int64(d)))
		if err != nil {
			return nil, nil, fmt.Errorf("train device %d: %w", d, err)
		}
		secs = append(secs, time.Since(w0).Seconds())
		if tr != nil {
			tr.record(0, "core.train", 0, "", 0, t0, tr.now())
		}
		models = append(models, m)
	}
	return models, secs, nil
}

// replayOnce replays the seeded pair under Heimdall, timing every decision,
// and under always-admit. A traced pass records a span per decision.
//
// Audited wall-clock use: the benchmark's measurements are wall time.
//
//heimdall:walltime
func replayOnce(st *offlineSetup, sel *timedSelector, traced bool, tr *tracer) replayPass {
	ps := replayPass{traced: traced}
	sel.tr, sel.lat = nil, sel.lat[:0]
	var hid uint64
	var h0 int64
	if traced {
		hid, h0 = tr.id(), tr.now()
		sel.tr, sel.parent = tr, hid
	}
	w0 := time.Now()
	for k, pair := range st.tests {
		ps.heimdall = append(ps.heimdall, replay.Run(pair, replay.Options{Devices: st.devices, Seed: st.replaySeed(k), Selector: sel}))
	}
	ps.heimdallS = time.Since(w0).Seconds()
	ps.decideUs = append([]float64(nil), sel.lat...)
	if traced {
		tr.record(hid, "replay.run.heimdall", 0, "", 0, h0, tr.now())
	}
	var b0 int64
	if traced {
		b0 = tr.now()
	}
	w1 := time.Now()
	for k, pair := range st.tests {
		ps.baseline = append(ps.baseline, replay.Run(pair, replay.Options{Devices: st.devices, Seed: st.replaySeed(k), Selector: policy.Baseline{}}))
	}
	ps.baselineS = time.Since(w1).Seconds()
	if traced {
		tr.record(0, "replay.run.baseline", 0, "", 0, b0, tr.now())
	}
	return ps
}

func resultDetail(r replay.Result) map[string]any {
	return map[string]any{"reads": r.Reads, "writes": r.Writes, "reroutes": r.Reroutes, "inferences": r.Inferences,
		"failed": r.Failed, "read_mean_ms": r.ReadLat.Mean.Seconds() * 1e3, "read_p95_ms": r.ReadLat.P95.Seconds() * 1e3,
		"read_p99_ms":  r.ReadLat.P99.Seconds() * 1e3,
		"busy_primary": r.BusyPrimary, "busy_avoided": r.BusyAvoided}
}

func modelDetail(m *core.Model) map[string]any {
	rep := m.Report()
	return map[string]any{"train_reads": rep.Samples, "kept": rep.Kept, "slow_fraction": rep.SlowFraction,
		"epochs": rep.TrainStats.Epochs, "threshold": m.Threshold()}
}

// eventLog rebuilds a device's history stream from a collected log the way
// feature.Extract sees it: a decide at each read's arrival and its
// completion at arrival plus latency, completions first at equal times.
func eventLog(log []iolog.Record) []frame {
	type ev struct {
		at int64
		f  frame
	}
	var evs []ev
	for _, r := range iolog.Reads(log) {
		evs = append(evs, ev{r.Arrival, frame{decide: true, qlen: uint32(r.QueueLen), size: uint32(r.Size)}})
		evs = append(evs, ev{r.Arrival + r.Latency, frame{qlen: uint32(r.QueueLen), size: uint32(r.Size), val: uint64(r.Latency)}})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return !evs[i].f.decide && evs[j].f.decide
	})
	out := make([]frame, len(evs))
	for i, e := range evs {
		out[i] = e.f
	}
	return out
}

// offlineLayers fills the per-layer metrics of a traced offline run.
func offlineLayers(o *outcome, st *offlineSetup, models []*core.Model, passes []replayPass, rec *checkingSelector, tr *tracer) error {
	logs := [][]frame{eventLog(st.holdLogs[0]), eventLog(st.holdLogs[1])}
	ref := feature.Extract(iolog.Reads(st.trainLogs[0]), models[0].Spec())
	if err := measureLayers(layerInput{model: models[0], logs: logs, rows: rec.rows, rowDevs: rec.rowDevs, ref: ref,
		batchMix: []int{1}, harvest: lifecycle.Config{Seed: st.seed}}, o); err != nil {
		return err
	}
	measureTraining(st.trainLogs[0], models[0], o)
	// The pair trains two models; the training-stage split covers both.
	trainS, prepS := 0.0, 0.0
	for _, m := range models {
		trainS += m.Report().TrainTime.Seconds()
		prepS += m.Report().PreprocessTime.Seconds()
	}
	o.metrics["nn.train_s"], o.metrics["core.preprocess_s"] = trainS, prepS

	reads, _, reroutes, inferences := totals(passes[0].heimdall)
	o.metrics["policy.decide_ns"] = tr.meanNs("policy.decide")
	o.metrics["policy.inferences_per_read"] = float64(inferences) / float64(reads)
	o.metrics["policy.decline_frac"] = float64(reroutes) / float64(reads)
	var base, up, tp []float64
	for _, ps := range passes {
		base = append(base, ps.baselineS)
		rate := float64(reads) / ps.heimdallS
		if ps.traced {
			tp = append(tp, rate)
		} else {
			up = append(up, rate)
		}
	}
	o.metrics["replay.baseline_s"] = median(base)
	o.metrics["replay.self_s"] = float64(tr.selfNs("replay.run.heimdall")) / 1e9 / float64(max(len(tp), 1))

	// ssd: the first experiment's traces submitted straight to fresh
	// devices.
	var submits int64
	for _, t := range st.tests[0] {
		submits += int64(len(t.Reqs))
	}
	o.metrics["ssd.submit_ns"] = perCall(timeReps(func() {
		for d, t := range st.tests[0] {
			dev := ssd.New(st.devices[d], st.seed+int64(d))
			for _, r := range t.Reqs {
				dev.Submit(r.Arrival, r.Op, r.Size)
			}
		}
	}), submits)
	o.metrics["trace.generate_s"] = st.genS
	o.metrics["iolog.collect_s"] = st.collectS
	if len(tp) > 0 && len(up) > 0 {
		o.metrics["bench.trace_overhead_frac"] = 1 - median(tp)/median(up)
	} else {
		zero(o, "the timed phase ran a single replay pass, so no traced pass compares with an untraced one", "bench.trace_overhead_frac")
	}

	zero(o, "offline-fig11 has no wire: no client, server shards or batches", "serve.client.submit_ns",
		"serve.client.complete_ns", "serve.batch_rows_mean", "serve.batches", "serve.sheds", "serve.deadline_sheds",
		"serve.breaker_answers", "serve.partial_flushes", "serve.unaccounted_us", "bench.gen_busy_frac")
	zero(o, "offline-fig11 runs no lifecycle manager", "lifecycle.tick_s", "lifecycle.rounds",
		"lifecycle.candidates", "lifecycle.judged", "lifecycle.promotions", "lifecycle.promote_ratio")
	return nil
}
