package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/iolog"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// runServeBench is the `heimdall-bench serve` subcommand: a client-side load
// generator for the online admission service. Each connection goroutine
// owns a disjoint set of devices, each backed by its own simulated SSD —
// admitted I/Os are submitted to it and their completions reported back, so
// the server's feature trackers see a live-looking queue/latency history.
//
// Two load shapes:
//
//   - synchronous (always run): one Decide round trip at a time per
//     connection — the per-request latency floor;
//   - pipelined (-pipeline N): the windowed Pipeline API keeps N decides in
//     flight per connection. By default this phase consolidates the whole
//     device population onto -pipeline-conns connections (one, unless
//     overridden) — the point of the windowed API is that one connection
//     saturates a shard, where the synchronous shape needs a connection per
//     outstanding request.
//
// With both phases run, the report carries the before/after pair and the
// speedup — the number the zero-copy datapath work is accountable to.
func runServeBench(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "", "server address (empty: self-host an in-process server on a unix socket)")
	dur := fs.Duration("dur", 3*time.Second, "load duration per phase")
	conns := fs.Int("conns", 4, "client connections (one goroutine each)")
	devices := fs.Int("devices", 4, "devices per connection")
	pipeline := fs.Int("pipeline", 0, "also run an open-loop pipelined phase with N in-flight decides per connection (0 = sync only)")
	pipeConns := fs.Int("pipeline-conns", 1, "connections for the pipelined phase; the conns×devices population is spread across them (0 = same conns as the sync phase)")
	seed := fs.Int64("seed", 1, "workload seed")
	trainDur := fs.Duration("train-dur", 4*time.Second, "self-host: training-trace duration")
	jsonOut := fs.Bool("json", false, "write BENCH_serve.json")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	target := *addr
	var srv *serve.Server
	if target == "" {
		tmp, err := os.MkdirTemp("", "heimdall-serve-bench")
		if err != nil {
			fatalServe(err)
		}
		defer func() {
			_ = os.RemoveAll(tmp)
		}()
		target = "unix:" + filepath.Join(tmp, "serve.sock")
		srv = selfHost(target, *seed, *trainDur)
		defer func() {
			if err := srv.Close(); err != nil {
				fatalServe(err)
			}
		}()
	}

	syncPhase := runServePhase(target, 0, *dur, *conns, *devices, *seed)
	printPhase(syncPhase)
	var pipePhase *servePhase
	speedup := 0.0
	if *pipeline > 0 {
		// Same device population, consolidated onto fewer connections: the
		// windowed API's claim is that one pipelined connection does the
		// work several synchronous connections needed.
		pc := *pipeConns
		if pc < 1 || pc > *conns**devices {
			pc = *conns
		}
		pdev := *conns * *devices / pc
		p := runServePhase(target, *pipeline, *dur, pc, pdev, *seed+7777)
		printPhase(p)
		if syncPhase.PerSec > 0 {
			speedup = p.PerSec / syncPhase.PerSec
			fmt.Printf("  pipelined/sync speedup: %.2fx (p99 %v vs %v)\n",
				speedup, p.RTT.P99, syncPhase.RTT.P99)
		}
		pipePhase = &p
	}

	var server serve.Stats
	if c, err := serve.Dial(target); err == nil {
		if s, err := c.Stats(); err == nil {
			server = s
			fmt.Printf("  server: %s\n", s)
		}
		_ = c.Close()
	}

	if *jsonOut {
		rec := struct {
			Experiment string      `json:"experiment"`
			Sync       servePhase  `json:"sync"`
			Pipelined  *servePhase `json:"pipelined,omitempty"`
			Speedup    float64     `json:"speedup,omitempty"`
			Server     serve.Stats `json:"server"`
		}{
			Experiment: "serve",
			Sync:       syncPhase,
			Pipelined:  pipePhase,
			Speedup:    speedup,
			Server:     server,
		}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fatalServe(err)
		}
		if err := os.WriteFile("BENCH_serve.json", append(data, '\n'), 0o644); err != nil {
			fatalServe(err)
		}
		fmt.Println("(wrote BENCH_serve.json)")
	}
}

// servePhase is one load phase's client-side measurement.
type servePhase struct {
	Mode      string               `json:"mode"`    // "sync" or "pipelined"
	Window    int                  `json:"window"`  // in-flight decides per conn (1 = sync)
	Conns     int                  `json:"conns"`   // connections this phase ran over
	Devices   int                  `json:"devices"` // devices per connection
	ElapsedMS float64              `json:"elapsed_ms"`
	Decisions int                  `json:"decisions"`
	Admits    int                  `json:"admits"`
	Degraded  int                  `json:"degraded"`
	PerSec    float64              `json:"decisions_per_sec"`
	RTT       metrics.LatencyStats `json:"rtt"`
}

type connResult struct {
	rtts    []int64
	admits  int
	degrade int
	err     error
}

// pendingCtx is what a pipelined connection remembers about an in-flight
// decide so its verdict can be timed and, on admit, completed. id == 0
// marks a free slot (the pipeline assigns ids from 1).
type pendingCtx struct {
	id   uint64
	t0   time.Time
	di   int
	size int32
}

// runServePhase drives one load phase (window == 0 → synchronous Decide
// loop; window > 0 → windowed Pipeline) and aggregates the client-side view.
func runServePhase(target string, window int, dur time.Duration, conns, devices int, seed int64) servePhase {
	results := make([]connResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			res := &results[ci]
			// Preallocate the sample buffer: growth copies of a
			// hundreds-of-thousands-element slice are multi-millisecond
			// pauses that would land in the tail of every in-flight decide.
			res.rtts = make([]int64, 0, int(dur.Seconds()*300_000))
			c, err := serve.Dial(target)
			if err != nil {
				res.err = err
				return
			}
			defer func() {
				_ = c.Close()
			}()
			rng := rand.New(rand.NewSource(seed + int64(ci)))
			// Each device gets its own simulated SSD and clock; Submit
			// requires non-decreasing timestamps per device.
			devs := make([]*ssd.Device, devices)
			clocks := make([]int64, devices)
			queues := make([]int, devices)
			for i := range devs {
				devs[i] = ssd.New(ssd.Samsung970Pro(), seed+int64(ci*1000+i))
			}
			deadline := time.Now().Add(dur)
			if window > 0 {
				res.err = drivePipelined(c, res, rng, devs, clocks, queues, uint32(ci*devices), window, deadline)
			} else {
				res.err = driveSync(c, res, rng, devs, clocks, queues, uint32(ci*devices), deadline)
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []int64
	admits, degraded := 0, 0
	for ci := range results {
		if results[ci].err != nil {
			fatalServe(fmt.Errorf("conn %d: %w", ci, results[ci].err))
		}
		all = append(all, results[ci].rtts...)
		admits += results[ci].admits
		degraded += results[ci].degrade
	}
	mode := "sync"
	effWindow := 1
	if window > 0 {
		mode, effWindow = "pipelined", window
	}
	return servePhase{
		Mode:      mode,
		Window:    effWindow,
		Conns:     conns,
		Devices:   devices,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		Decisions: len(all),
		Admits:    admits,
		Degraded:  degraded,
		PerSec:    float64(len(all)) / elapsed.Seconds(),
		RTT:       metrics.Latencies(all),
	}
}

// driveSync is the one-round-trip-at-a-time load loop.
func driveSync(c *serve.Client, res *connResult, rng *rand.Rand, devs []*ssd.Device, clocks []int64, queues []int, devBase uint32, deadline time.Time) error {
	for time.Now().Before(deadline) {
		di := rng.Intn(len(devs))
		size := 4096 * int32(1+rng.Intn(16))
		t0 := time.Now()
		v, err := c.Decide(devBase+uint32(di), queues[di], size)
		if err != nil {
			return err
		}
		res.rtts = append(res.rtts, time.Since(t0).Nanoseconds())
		if v.Shed() {
			res.degrade++
		}
		if v.Admit {
			res.admits++
			if err := completeIO(c, devs, clocks, queues, rng, devBase, di, size); err != nil {
				return err
			}
		}
	}
	return c.Flush()
}

// drivePipelined keeps window decides in flight through the Pipeline API.
// Per-id context lives in a window-sized slot array scanned linearly: at
// most window ids are outstanding at once, but a slow shard can sit on an
// old id while fast shards keep answering fresh ones, so the outstanding
// set is bounded in count only — never in id span. A modular ring would
// eventually collide two live ids in one slot; the scan (window is small)
// stays alloc-free without that failure mode.
func drivePipelined(c *serve.Client, res *connResult, rng *rand.Rand, devs []*ssd.Device, clocks []int64, queues []int, devBase uint32, window int, deadline time.Time) error {
	p := c.Pipeline(window)
	pending := make([]pendingCtx, window)
	reap := func(v serve.Verdict) error {
		ctx := (*pendingCtx)(nil)
		for i := range pending {
			if pending[i].id == v.ID {
				ctx = &pending[i]
				break
			}
		}
		if ctx == nil {
			return fmt.Errorf("verdict for unknown id %d", v.ID)
		}
		di, size := ctx.di, ctx.size
		res.rtts = append(res.rtts, time.Since(ctx.t0).Nanoseconds())
		*ctx = pendingCtx{}
		if v.Shed() {
			res.degrade++
		}
		if v.Admit {
			res.admits++
			return completeIO(c, devs, clocks, queues, rng, devBase, di, size)
		}
		return nil
	}
	for time.Now().Before(deadline) {
		di := rng.Intn(len(devs))
		size := 4096 * int32(1+rng.Intn(16))
		t0 := time.Now()
		id, reaped, err := p.Submit(devBase+uint32(di), queues[di], size)
		if err != nil {
			return err
		}
		// Record before reaping: devices fan out across shards, so a reaped
		// verdict can be any outstanding id — including the one just sent
		// (e.g. its shard was idle while older decides sat queued elsewhere).
		// A free slot always exists: Submit leaves at most window-1 decides
		// outstanding, so with this one the array is at worst exactly full.
		for i := range pending {
			if pending[i].id == 0 {
				pending[i] = pendingCtx{id: id, t0: t0, di: di, size: size}
				break
			}
		}
		for _, v := range reaped {
			if err := reap(v); err != nil {
				return err
			}
		}
	}
	rest, err := p.Drain(nil)
	if err != nil {
		return err
	}
	for _, v := range rest {
		if err := reap(v); err != nil {
			return err
		}
	}
	return c.Flush()
}

// completeIO submits one admitted I/O to the device simulator and reports
// its completion back to the server.
func completeIO(c *serve.Client, devs []*ssd.Device, clocks []int64, queues []int, rng *rand.Rand, devBase uint32, di int, size int32) error {
	clocks[di] += int64(10_000 + rng.Intn(100_000))
	r := devs[di].Submit(clocks[di], trace.Read, size)
	queues[di] = r.QueueLen
	return c.Complete(devBase+uint32(di), uint64(r.Latency(clocks[di])), r.QueueLen, size)
}

func printPhase(p servePhase) {
	fmt.Printf("serve bench [%s, window %d]: %d decisions in %.0fms over %d conns × %d devices\n",
		p.Mode, p.Window, p.Decisions, p.ElapsedMS, p.Conns, p.Devices)
	fmt.Printf("  throughput %.0f decisions/s, admits %d, degraded %d\n", p.PerSec, p.Admits, p.Degraded)
	fmt.Printf("  decision RTT p50 %v p90 %v p99 %v p99.9 %v max %v\n",
		p.RTT.P50, p.RTT.P90, p.RTT.P99, p.RTT.P999, p.RTT.Max)
}

// selfHost trains a quick model and serves it on addr in-process.
func selfHost(addr string, seed int64, trainDur time.Duration) *serve.Server {
	tr := trace.Generate(trace.MSRStyle(seed, trainDur))
	log := iolog.Collect(tr, ssd.New(ssd.Samsung970Pro(), seed))
	cfg := core.DefaultConfig(seed)
	cfg.Epochs = 10
	cfg.MaxTrainSamples = 10000
	model, err := core.Train(log, cfg)
	if err != nil {
		fatalServe(err)
	}
	srv := serve.NewServer(model, serve.Config{AdaptiveBatch: true, Shards: runtime.NumCPU()})
	l, err := serve.Listen(addr)
	if err != nil {
		fatalServe(err)
	}
	go func() {
		if err := srv.Serve(l); err != nil {
			fmt.Fprintln(os.Stderr, "heimdall-bench serve:", err)
		}
	}()
	return srv
}

func fatalServe(err error) {
	fmt.Fprintln(os.Stderr, "heimdall-bench serve:", err)
	os.Exit(1)
}
