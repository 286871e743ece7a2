package main

import (
	"container/heap"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/iolog"
	"repro/internal/lifecycle"
	"repro/internal/serve"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// serveParams is the resolved shape of one serve workload.
type serveParams struct {
	Name string `json:"name"`
	// Window is the number of decides in flight on the one connection: the
	// storage I/O threads, each waiting for its verdict before it issues
	// its read.
	Window  int `json:"window"`
	Devices int `json:"devices"`
	// Drift splices each device's reads from Tencent-style to MSR-style a
	// third of the way into the stream and attaches the lifecycle manager.
	Drift bool `json:"drift"`
	// TrainDur is the training corpus trace, split in halves: the first
	// trains the served model, the second is its holdout.
	TrainDur time.Duration `json:"train_trace"`
	// StreamDur is each device's trace length; the stream wraps after it.
	StreamDur time.Duration `json:"stream_trace"`
	// Setups is how many times set-up runs; setup_s is their median.
	Setups int `json:"setups"`
	// Tick is the lifecycle ticker period (Drift only).
	Tick time.Duration `json:"tick"`
	// TrainWorkers bounds challenger training (heimdall-serve
	// -managed-parallel). One worker leaves a core to serving, so the share
	// of the run spent training does not swing throughput from run to run.
	TrainWorkers int `json:"train_workers"`
}

func steadyParams() serveParams {
	return serveParams{Name: "serve-steady", Window: 8, Devices: 16,
		TrainDur: 1200 * time.Millisecond, StreamDur: 4 * time.Second, Setups: 5}
}

func driftParams() serveParams {
	return serveParams{Name: "serve-drift", Window: 1, Devices: 8, Drift: true,
		TrainDur: 2400 * time.Millisecond, StreamDur: 6 * time.Second, Setups: 5, Tick: time.Second, TrainWorkers: 1}
}

// streamEntry is one request of the merged per-device traces.
type streamEntry struct {
	at   int64
	dev  uint32
	op   trace.Op
	size int32
}

// stream walks the arrival-ordered merge of every device's trace, wrapping
// around with a time offset so it never runs dry.
type stream struct {
	entries []streamEntry
	cycle   int64
	pos     int
	offset  int64
	wraps   int
}

func (s *stream) next() streamEntry {
	if s.pos == len(s.entries) {
		s.pos = 0
		s.offset += s.cycle
		s.wraps++
	}
	e := s.entries[s.pos]
	s.pos++
	e.at += s.offset
	return e
}

// corpusSeed seeds every training corpus. Models are trained on the same
// corpus whatever the run seed, which varies only the traffic: at the
// corpus sizes a run can afford, a model's holdout ROC-AUC swings between
// about 0.1 and 0.95 from one training seed to the next, so a seeded corpus
// would make training time and every quality figure a draw rather than a
// measurement of the code.
const corpusSeed = 1

// deviceSeed derives device d's trace seed from the run seed.
func deviceSeed(seed int64, d int) int64 { return seed*1_000_003 + int64(d)*101 }

// buildStream generates every device's trace and merges them by arrival.
func buildStream(p serveParams, seed int64) *stream {
	per := make([][]trace.Request, p.Devices)
	for d := range per {
		ds := deviceSeed(seed, d)
		if p.Drift {
			durA := p.StreamDur / 3
			a := trace.Generate(trace.TencentStyle(ds, durA))
			b := trace.Generate(trace.MSRStyle(ds+17, p.StreamDur-durA))
			reqs := append([]trace.Request(nil), a.Reqs...)
			for _, r := range b.Reqs {
				r.Arrival += int64(durA)
				reqs = append(reqs, r)
			}
			per[d] = reqs
		} else {
			per[d] = trace.Generate(trace.MSRStyle(ds, p.StreamDur)).Reqs
		}
	}
	total := 0
	for _, r := range per {
		total += len(r)
	}
	out := make([]streamEntry, 0, total)
	heads := make([]int, len(per))
	for len(out) < total {
		best := -1
		for d, h := range heads {
			if h < len(per[d]) && (best < 0 || per[d][h].Arrival < per[best][heads[best]].Arrival) {
				best = d
			}
		}
		r := per[best][heads[best]]
		heads[best]++
		out = append(out, streamEntry{at: r.Arrival, dev: uint32(best), op: r.Op, size: r.Size})
	}
	return &stream{entries: out, cycle: int64(p.StreamDur)}
}

// serveSetup is everything set-up builds: the model, its holdout score, the
// running server, the lifecycle manager (Drift), and a connected client.
type serveSetup struct {
	model    *core.Model
	auc      float64
	ref      [][]float64
	cfg      serve.Config
	srv      *serve.Server
	done     chan error
	client   *serve.Client
	mgr      *lifecycle.Manager
	mgrCfg   lifecycle.Config
	swaps    *swapRecorder
	stream   *stream
	trainLog []iolog.Record
	trainS   float64
	report   core.Report
	genS     float64
	collect  float64
}

// swapRecorder is the lifecycle's promotion target: it publishes through
// Server.Swap and remembers which model each version number carries, so
// every served verdict can be rescored with the model that made it.
type swapRecorder struct {
	srv    *serve.Server
	mu     sync.Mutex
	models map[uint32]*core.Model
}

func (r *swapRecorder) Swap(m *core.Model) uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.srv.Swap(m)
	r.models[v] = m
	return v
}

// setupServe generates the traces, collects the training log, trains the
// model, and starts the server configured the way heimdall-serve ships it:
// default shards, adaptive batching off, DriftRef from the training rows,
// and under Drift the lifecycle wired as heimdall-serve -managed wires it.
//
// Audited wall-clock use: the benchmark's measurements are wall time.
//
//heimdall:walltime
func setupServe(p serveParams, seed int64) (*serveSetup, error) {
	st := &serveSetup{}
	t0 := time.Now()
	st.stream = buildStream(p, seed)
	style := trace.MSRStyle(corpusSeed, p.TrainDur)
	if p.Drift {
		style = trace.TencentStyle(corpusSeed, p.TrainDur)
	}
	trainTr, testTr := trace.Generate(style).SplitHalf()
	st.genS = time.Since(t0).Seconds()

	t1 := time.Now()
	trainLog := iolog.Collect(trainTr, ssd.New(ssd.Samsung970Pro(), corpusSeed))
	testLog := iolog.Collect(testTr, ssd.New(ssd.Samsung970Pro(), corpusSeed+1))
	st.collect = time.Since(t1).Seconds()

	cfg := core.DefaultConfig(corpusSeed)
	t2 := time.Now()
	model, err := core.Train(trainLog, cfg)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	st.trainS = time.Since(t2).Seconds()
	st.model, st.report, st.trainLog = model, model.Report(), trainLog
	st.auc = holdoutAUC(model, testLog, cfg)
	st.ref = feature.Extract(iolog.Reads(trainLog), model.Spec())

	st.cfg = serve.Config{DriftRef: st.ref}
	if p.Drift {
		train := core.DefaultConfig(corpusSeed)
		train.Labeling = core.LabelCutoffSize
		train.SearchThresholds = false
		st.mgrCfg = lifecycle.Config{Seed: seed, Train: train, OnlineRecalibration: true, Workers: p.TrainWorkers}
		st.mgr, err = lifecycle.New(st.mgrCfg, model, nil)
		if err != nil {
			return nil, err
		}
		st.cfg.Completions = st.mgr.Harvester()
		st.cfg.Decisions = st.mgr.Harvester()
		st.cfg.OnDrift = st.mgr.DriftAlert
	}
	st.srv = serve.NewServer(model, st.cfg)
	st.swaps = &swapRecorder{srv: st.srv, models: map[uint32]*core.Model{1: model}}
	if st.mgr != nil {
		st.mgr.Retarget(st.swaps)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.done = make(chan error, 1)
	go func() { st.done <- st.srv.Serve(l) }()
	st.client, err = serve.Dial("tcp:" + l.Addr().String())
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// close stops the client and the server and waits for the server to exit.
func (st *serveSetup) close() error {
	if st.client != nil {
		_ = st.client.Close()
	}
	err := st.srv.Close()
	if serr := <-st.done; err == nil {
		err = serr
	}
	return err
}

// holdoutAUC scores a model's ROC-AUC on a held-out log against period
// labels.
func holdoutAUC(m *core.Model, testLog []iolog.Record, cfg core.Config) float64 {
	reads := iolog.Reads(testLog)
	labels, _ := core.Label(reads, cfg)
	return m.Evaluate(reads, labels).ROCAUC
}

// frame is one message of a device's history in send order: a completion
// (val is its latency in ns) or a decide (val is its request id).
type frame struct {
	decide bool
	qlen   uint32
	size   uint32
	val    uint64
}

// verdictRec is the answer a decide got.
type verdictRec struct {
	got     bool
	admit   bool
	flags   uint8
	version uint32
}

// completion is an issued read waiting for its completion frame.
type completion struct {
	at   int64
	dev  uint32
	lat  uint64
	qlen uint32
	size uint32
	id   uint64
}

type completionHeap []completion

func (h completionHeap) Len() int            { return len(h) }
func (h completionHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h completionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x interface{}) { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() interface{} {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

// pending is a stream entry waiting to be issued in stream order; id is its
// decide (0 for writes, which are not subject to admission).
type pending struct {
	e  streamEntry
	id uint64
}

// generator is the closed-loop load source. One goroutine runs it.
type generator struct {
	p      serveParams
	st     *serveSetup
	client *serve.Client
	devs   []*ssd.Device
	// shadow devices see the same submissions except that every read goes
	// to its primary: the always-admit baseline simulated latency is
	// compared against.
	shadow []*ssd.Device

	logs     [][]frame
	verdicts []verdictRec // indexed by decide id
	submitAt []int64
	rootSpan []uint64

	fifo     []pending
	comps    completionHeap
	inflight int

	// Measurements, split by whether the slice that sent them was traced.
	rtt       [2][]float64 // µs
	decided   [2]int64
	sliceWall [2]time.Duration
	waitNs    int64
	// simLatMs and baseLatMs hold the simulated latency of each issued
	// read under the served verdicts and on the always-admit shadows.
	simLatMs, baseLatMs []float64
	issued              int64
	// compBuckets counts each device's completions per progressBucket
	// decides sent, so growth is judged against the loop's progress rather
	// than wall time, which a training round can starve.
	compBuckets [][]int32
	sent        int64 // decide and complete frames routed to shards
}

func newGenerator(p serveParams, st *serveSetup, seed int64) *generator {
	g := &generator{p: p, st: st, client: st.client,
		logs:        make([][]frame, p.Devices),
		verdicts:    []verdictRec{{}},
		submitAt:    []int64{0},
		rootSpan:    []uint64{0},
		compBuckets: make([][]int32, p.Devices),
	}
	for d := 0; d < p.Devices; d++ {
		g.devs = append(g.devs, ssd.New(ssd.Samsung970Pro(), deviceSeed(seed, d)+999))
		g.shadow = append(g.shadow, ssd.New(ssd.Samsung970Pro(), deviceSeed(seed, d)+999))
	}
	return g
}

// replica returns the other device of d's replica pair.
func replica(d uint32) uint32 { return d ^ 1 }

// run drives the closed loop for total wall time. With tr set, alternate
// one-second slices are traced, so traced and untraced slices see the same
// stretch of the workload and their difference is the tracing overhead.
//
// Audited wall-clock use: the benchmark's measurements are wall time.
//
//heimdall:walltime
func (g *generator) run(total time.Duration, tr *tracer) error {
	start := time.Now()
	deadline := start.Add(total)
	sliceStart := start
	traced := false
	stopping := false
	for {
		// Issue every head-of-line entry whose verdict is in, in stream
		// order, so each device sees non-decreasing submit times.
		for len(g.fifo) > 0 {
			h := g.fifo[0]
			if h.id != 0 && !g.verdicts[h.id].got {
				break
			}
			g.issue(h, traced, tr)
			g.fifo = g.fifo[1:]
		}
		now := time.Now()
		if tr != nil && !stopping && now.Sub(sliceStart) >= time.Second {
			g.sliceWall[b2i(traced)] += now.Sub(sliceStart)
			sliceStart = now
			traced = !traced
		}
		if !stopping && !now.Before(deadline) {
			stopping = true
			g.sliceWall[b2i(traced)] += now.Sub(sliceStart)
		}
		if stopping && g.inflight == 0 {
			break
		}
		if !stopping && g.inflight < g.p.Window {
			if err := g.submitNext(start, traced, tr); err != nil {
				return err
			}
			continue
		}
		if err := g.await(start, traced, tr); err != nil {
			return err
		}
	}
	for len(g.fifo) > 0 {
		g.issue(g.fifo[0], traced, tr)
		g.fifo = g.fifo[1:]
	}
	if tr == nil {
		g.sliceWall[0] = time.Since(start)
	}
	return nil
}

// progressBucket is the decide-count granularity of completion counting.
const progressBucket = 256

// completionQuarters splits the decides sent into four equal parts and
// returns each device's completions in each.
func (g *generator) completionQuarters() [][4]int64 {
	buckets := len(g.verdicts)/progressBucket + 1
	out := make([][4]int64, len(g.compBuckets))
	for d, bs := range g.compBuckets {
		for b, n := range bs {
			out[d][min(4*b/buckets, 3)] += int64(n)
		}
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// submitNext takes the next stream entry: completions due by its arrival go
// out first, then a read is sent as a decide and a write is queued.
//
// Audited wall-clock use: the benchmark's measurements are wall time.
//
//heimdall:walltime
func (g *generator) submitNext(start time.Time, traced bool, tr *tracer) error {
	e := g.st.stream.next()
	bucket := len(g.verdicts) / progressBucket
	for len(g.comps) > 0 && g.comps[0].at <= e.at {
		c := heap.Pop(&g.comps).(completion)
		t0 := int64(0)
		if traced {
			t0 = tr.now()
		}
		if err := g.client.Complete(c.dev, c.lat, int(c.qlen), int32(c.size)); err != nil {
			return fmt.Errorf("complete: %w", err)
		}
		if traced {
			tr.record(0, "serve.client.complete", g.rootSpan[c.id], "", c.id, t0, tr.now())
		}
		g.logs[c.dev] = append(g.logs[c.dev], frame{qlen: c.qlen, size: c.size, val: c.lat})
		for len(g.compBuckets[c.dev]) <= bucket {
			g.compBuckets[c.dev] = append(g.compBuckets[c.dev], 0)
		}
		g.compBuckets[c.dev][bucket]++
		g.sent++
	}
	if e.op == trace.Write {
		g.fifo = append(g.fifo, pending{e: e})
		return nil
	}
	qlen := g.devs[e.dev].QueueLen(e.at)
	id := uint64(len(g.verdicts))
	g.verdicts = append(g.verdicts, verdictRec{})
	var root uint64
	t0 := int64(0)
	if traced {
		root = tr.id()
		t0 = tr.now()
	}
	g.rootSpan = append(g.rootSpan, root)
	g.submitAt = append(g.submitAt, int64(time.Since(start)))
	if err := g.client.Send(id, e.dev, qlen, e.size); err != nil {
		return fmt.Errorf("send: %w", err)
	}
	if traced {
		tr.record(0, "serve.client.submit", root, "serve.decide", id, t0, tr.now())
	}
	g.logs[e.dev] = append(g.logs[e.dev], frame{decide: true, qlen: uint32(qlen), size: uint32(e.size), val: id})
	g.fifo = append(g.fifo, pending{e: e, id: id})
	g.inflight++
	g.sent++
	return nil
}

// await flushes queued frames and blocks for one verdict.
//
// Audited wall-clock use: the benchmark's measurements are wall time.
//
//heimdall:walltime
func (g *generator) await(start time.Time, traced bool, tr *tracer) error {
	w0 := time.Now()
	if err := g.client.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	v, err := g.client.Recv()
	if err != nil {
		return fmt.Errorf("recv: %w", err)
	}
	w1 := time.Now()
	g.waitNs += int64(w1.Sub(w0))
	if v.ID == 0 || v.ID >= uint64(len(g.verdicts)) || g.verdicts[v.ID].got {
		return fmt.Errorf("verdict for unknown or answered decide %d", v.ID)
	}
	g.verdicts[v.ID] = verdictRec{got: true, admit: v.Admit, flags: v.Flags, version: v.ModelVersion}
	g.inflight--
	end := int64(w1.Sub(start))
	g.rtt[b2i(traced)] = append(g.rtt[b2i(traced)], float64(end-g.submitAt[v.ID])/1e3)
	g.decided[b2i(traced)]++
	if traced {
		base := int64(start.Sub(tr.base))
		root := g.rootSpan[v.ID]
		tr.record(0, "bench.wait", root, "serve.decide", v.ID, int64(w0.Sub(tr.base)), int64(w1.Sub(tr.base)))
		tr.record(root, "serve.decide", 0, "", v.ID, base+g.submitAt[v.ID], base+end)
	}
	return nil
}

// issue submits one entry to the simulated devices at its arrival time: a
// write to both replicas, a read to its primary when admitted and to the
// replica when declined. A read's completion is queued for the device that
// served it.
func (g *generator) issue(h pending, traced bool, tr *tracer) {
	e := h.e
	if h.id == 0 {
		for _, devs := range [][]*ssd.Device{g.devs, g.shadow} {
			devs[e.dev].Submit(e.at, e.op, e.size)
			devs[replica(e.dev)].Submit(e.at, e.op, e.size)
		}
		return
	}
	target := e.dev
	if !g.verdicts[h.id].admit {
		target = replica(e.dev)
	}
	t0 := int64(0)
	if traced {
		t0 = tr.now()
	}
	res := g.devs[target].Submit(e.at, e.op, e.size)
	if traced {
		tr.record(0, "ssd.submit", g.rootSpan[h.id], "", h.id, t0, tr.now())
	}
	lat := res.Complete - e.at
	base := g.shadow[e.dev].Submit(e.at, e.op, e.size)
	g.simLatMs = append(g.simLatMs, float64(lat)/1e6)
	g.baseLatMs = append(g.baseLatMs, float64(base.Complete-e.at)/1e6)
	g.issued++
	heap.Push(&g.comps, completion{at: res.Complete, dev: target, lat: uint64(lat),
		qlen: uint32(res.QueueLen), size: uint32(e.size), id: h.id})
}

// runServe is one serve workload end to end: set up (several times, for a
// steady setup_s), drive the timed phase, check every verdict, and reduce.
//
// Audited wall-clock use: the benchmark's measurements are wall time.
//
//heimdall:walltime
func runServe(rs runSpec, p serveParams) (*outcome, error) {
	o := newOutcome()
	var st *serveSetup
	var setupS, trainS []float64
	for i := 0; i < p.Setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("close setup: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		st, err = setupServe(p, rs.Seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		trainS = append(trainS, st.trainS)
	}

	var tr *tracer
	phase := time.Duration(rs.Seconds) * time.Second
	if rs.Trace {
		tr = newTracer()
		phase *= 2 // alternating untraced and traced slices
	}
	g := newGenerator(p, st, rs.Seed)

	ticks := startTicker(st, p, tr)
	runErr := g.run(phase, tr)
	ticks.stop()
	stats := st.srv.Stats()
	closeErr := st.close()
	if runErr != nil {
		return nil, runErr
	}
	if closeErr != nil {
		return nil, fmt.Errorf("close: %w", closeErr)
	}

	ver := verify(g, st)
	o.check("zero_verdict_mismatches", ver.Mismatches == 0)
	o.check("every_decide_answered", ver.Unanswered == 0)
	quarters := g.completionQuarters()
	grows := true
	for _, q := range quarters {
		for _, n := range q {
			grows = grows && n > 0
		}
	}
	o.check("every_device_completions_grow", grows)
	if p.Drift {
		o.check("lifecycle_trained", len(ticks.trainS) > 0)
	}

	attempted := int64(len(g.verdicts) - 1)
	o.attempted = attempted
	o.failed = ver.FailOpen
	wall := g.sliceWall[0]
	allRTT := g.rtt[0]
	decided := g.decided[0]
	o.metrics["setup_s"] = median(setupS)
	o.metrics["decides_per_s"] = float64(decided) / wall.Seconds()
	rttSum := summarize(append([]float64(nil), allRTT...))
	o.metrics["decide_p50_us"] = rttSum.P50
	o.metrics["decide_p99_us"] = rttSum.P99
	o.metrics["decide_ok_frac"] = float64(attempted-ver.FailOpen) / float64(attempted)
	if p.Drift {
		o.metrics["retrain_round_s"] = median(ticks.trainS)
	} else {
		o.metrics["retrain_round_s"] = median(trainS)
	}
	o.metrics["train_s"] = median(trainS)
	o.metrics["replay_reads_per_s"] = float64(g.issued) / (g.sliceWall[0] + g.sliceWall[1]).Seconds()
	sim, base := simSummary(g.simLatMs), simSummary(g.baseLatMs)
	o.metrics["ssd.read_mean_vs_baseline"] = sim.Mean / base.Mean
	o.metrics["ssd.read_tail_vs_baseline"] = sim.P99 / base.P99
	o.detail["sim_read_latency_ms"] = map[string]simLatency{"served": sim, "always_admit": base}
	o.metrics["holdout_auc"] = st.auc

	o.detail["params"] = p
	o.detail["server_config"] = serverConfigDetail(st.cfg)
	if p.Drift {
		o.detail["lifecycle_config"] = map[string]any{"seed": st.mgrCfg.Seed, "labeling": st.mgrCfg.Train.Labeling.String(),
			"search_thresholds": st.mgrCfg.Train.SearchThresholds, "online_recalibration": st.mgrCfg.OnlineRecalibration,
			"workers":      st.mgrCfg.Workers,
			"other_fields": "package defaults", "tick": p.Tick.String()}
		o.detail["lifecycle"] = ticks.summary()
	}
	o.detail["model"] = map[string]any{"threshold": st.model.Threshold(), "train_reads": st.report.Samples,
		"kept": st.report.Kept, "slow_fraction": st.report.SlowFraction, "epochs": st.report.TrainStats.Epochs,
		"engine": "int32 (core.DefaultConfig ladder default)"}
	o.detail["decide_rtt_us"] = rttSum
	o.detail["setup_s_each"] = setupS
	o.detail["verdicts"] = ver
	o.detail["stream_wraps"] = st.stream.wraps
	o.detail["completions_per_quarter"] = quarters
	o.detail["admit_share"] = ver.admitShare()
	o.detail["server_stats"] = map[string]any{"decisions": stats.Decisions(), "sheds": stats.Sheds,
		"deadline_sheds": stats.DeadlineSheds, "breaker_answers": stats.BreakerOpen,
		"partial_flushes": stats.PartialFlush, "swaps": stats.Swaps, "max_psi": stats.MaxPSI, "batch_hist": stats.BatchHist}

	if rs.Trace {
		if err := serveLayers(o, g, st, stats, ver, ticks, tr, p); err != nil {
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

// simLatency is a simulated read-latency sample reduced to what results
// report.
type simLatency struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean_ms"`
	P95  float64 `json:"p95_ms"`
	P99  float64 `json:"p99_ms"`
}

func simSummary(ms []float64) simLatency {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return simLatency{N: len(s), Mean: mean(s), P95: percentile(s, 95), P99: percentile(s, 99)}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// serverConfigDetail is the resolved server configuration for the result.
func serverConfigDetail(c serve.Config) map[string]any {
	return map[string]any{
		"shards": "default (4)", "queue_len": "default (256)", "batch_window": c.BatchWindow.String(),
		"max_batch": "default (64)", "adaptive_batch": c.AdaptiveBatch, "budget": c.Budget.String(),
		"breaker": "default (on)", "drift_ref_rows": len(c.DriftRef), "on_drift": c.OnDrift != nil,
		"completions_sink": c.Completions != nil, "decisions_tap": c.Decisions != nil,
		"transport": "tcp 127.0.0.1",
	}
}

// ticker runs the lifecycle Tick on a wall-clock period, as heimdall-serve
// -managed does, and records what each Tick did.
type ticker struct {
	stopCh chan struct{}
	done   chan struct{}
	trainS []float64
	tickS  []float64
	cands  int
	judged int
	promos int
	recals int
}

// Audited wall-clock use: the benchmark's measurements are wall time.
//
//heimdall:walltime
func startTicker(st *serveSetup, p serveParams, tr *tracer) *ticker {
	t := &ticker{stopCh: make(chan struct{}), done: make(chan struct{})}
	if st.mgr == nil {
		close(t.done)
		return t
	}
	go func() {
		defer close(t.done)
		tk := time.NewTicker(p.Tick)
		defer tk.Stop()
		for {
			select {
			case <-t.stopCh:
				return
			case <-tk.C:
			}
			var t0 int64
			if tr != nil {
				t0 = tr.now()
			}
			w0 := time.Now()
			rep := st.mgr.Tick()
			d := time.Since(w0).Seconds()
			if tr != nil {
				tr.record(0, "lifecycle.tick", 0, "", 0, t0, tr.now())
			}
			t.tickS = append(t.tickS, d)
			if rep.Trained {
				t.trainS = append(t.trainS, d)
				t.cands += rep.Candidates
			}
			if rep.Judged {
				t.judged++
			}
			if rep.Promoted {
				t.promos++
			}
			if rep.Recalibrated {
				t.recals++
			}
		}
	}()
	return t
}

// stop ends the ticker and waits for an in-progress Tick to return.
func (t *ticker) stop() {
	select {
	case <-t.done:
	default:
		close(t.stopCh)
		<-t.done
	}
}

func (t *ticker) summary() map[string]any {
	return map[string]any{"ticks": len(t.tickS), "training_rounds": len(t.trainS), "round_s": t.trainS,
		"candidates": t.cands, "judged": t.judged, "promotions": t.promos, "recalibrations": t.recals}
}

// verification is the outcome of rescoring every served verdict.
type verification struct {
	Checked    int64          `json:"checked"`
	Mismatches int64          `json:"mismatches"`
	FailOpen   int64          `json:"fail_open"`
	Unanswered int64          `json:"unanswered"`
	Admits     int64          `json:"admits"`
	Versions   map[uint32]int `json:"decides_per_model_version"`
	// rows is a sample of the raw decide rows, with their devices and the
	// default-engine verdicts, for the per-layer measurements.
	rows    [][]float64
	rowDevs []uint32
}

func (v verification) admitShare() float64 {
	if v.Checked == 0 {
		return 0
	}
	return float64(v.Admits) / float64(v.Checked)
}

// maxSampleRows bounds the decide rows kept for per-layer measurements.
const maxSampleRows = 1 << 14

// verify rebuilds each device's feature window from its logged frames in
// send order and rescores every model-answered verdict with the model of
// the version it carries. Decide rows use arrival 0 and offset 0 as the
// shard does, so a row depends only on its device's frames.
func verify(g *generator, st *serveSetup) verification {
	v := verification{Versions: map[uint32]int{}}
	st.swaps.mu.Lock()
	models := st.swaps.models
	st.swaps.mu.Unlock()
	spec := st.model.Spec()
	type batch struct {
		m        *core.Model
		scr      *core.Scratch
		flat     []float64
		rows     [][]float64
		want     []bool
		verdicts []bool
	}
	batches := map[uint32]*batch{}
	flush := func(b *batch) {
		if len(b.want) == 0 {
			return
		}
		b.rows = b.rows[:0]
		w := spec.Width()
		for i := range b.want {
			b.rows = append(b.rows, b.flat[i*w:(i+1)*w])
		}
		b.m.AdmitBatchInto(b.rows, b.verdicts[:len(b.want)], b.scr)
		for i, want := range b.want {
			if b.verdicts[i] != want {
				v.Mismatches++
			}
		}
		b.flat, b.want = b.flat[:0], b.want[:0]
	}
	win := feature.NewWindow(spec.Depth)
	row := make([]float64, 0, spec.Width())
	for d, log := range g.logs {
		win.Reset()
		for _, f := range log {
			if !f.decide {
				win.Push(histOf(f))
				continue
			}
			rec := g.verdicts[f.val]
			if !rec.got {
				v.Unanswered++
				continue
			}
			if rec.flags != 0 {
				v.FailOpen++
				continue
			}
			row = spec.OnlineInto(row[:0], int(f.qlen), int32(f.size), 0, 0, win)
			if len(v.rows) < maxSampleRows {
				v.rows = append(v.rows, append([]float64(nil), row...))
				v.rowDevs = append(v.rowDevs, uint32(d))
			}
			b := batches[rec.version]
			if b == nil {
				m := models[rec.version]
				if m == nil {
					v.Mismatches++
					continue
				}
				b = &batch{m: m, scr: m.NewBatchScratch(64), verdicts: make([]bool, 64)}
				batches[rec.version] = b
			}
			b.flat = append(b.flat, row...)
			b.want = append(b.want, rec.admit)
			v.Checked++
			v.Versions[rec.version]++
			if rec.admit {
				v.Admits++
			}
			if len(b.want) == 64 {
				flush(b)
			}
		}
	}
	for _, b := range batches {
		flush(b)
	}
	return v
}

// histOf turns a completion frame into the history entry the shard pushes,
// with the shard's exact throughput arithmetic.
func histOf(f frame) feature.Hist {
	thpt := 0.0
	if f.val > 0 {
		thpt = float64(f.size) / (1 << 20) / (float64(f.val) / 1e9)
	}
	return feature.Hist{Latency: float64(f.val), QueueLen: float64(f.qlen), Thpt: thpt}
}
