package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/iolog"
	"repro/internal/ssd"
	"repro/internal/trace"
)

func testModel(t *testing.T, seed int64, joint int) *core.Model {
	t.Helper()
	tr := trace.Generate(trace.MSRStyle(seed, 3*time.Second))
	dev := ssd.New(ssd.Samsung970Pro(), seed)
	log := iolog.Collect(tr, dev)
	cfg := core.DefaultConfig(seed)
	cfg.Epochs = 8
	cfg.MaxTrainSamples = 8000
	if joint > 1 {
		cfg.JointSize = joint
	}
	m, err := core.Train(log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// startServer runs srv on a unix socket in a test dir and returns its
// address. The server is closed with the test.
func startServer(t *testing.T, srv *Server) string {
	t.Helper()
	addr := "unix:" + filepath.Join(t.TempDir(), "serve.sock")
	l, err := Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return addr
}

// op is one step of a device's scripted workload.
type op struct {
	decide   bool
	queueLen int
	size     int32
	latency  uint64
}

// deviceOps scripts a deterministic workload: a mix of decide and complete
// messages, with the decide count padded to a multiple of group so joint
// groups always fill.
func deviceOps(seed int64, n, group int) []op {
	rng := rand.New(rand.NewSource(seed))
	var ops []op
	decides := 0
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			ops = append(ops, op{
				queueLen: rng.Intn(16),
				size:     4096 * int32(1+rng.Intn(8)),
				latency:  uint64(50_000 + rng.Intn(400_000)),
			})
		} else {
			ops = append(ops, op{
				decide:   true,
				queueLen: rng.Intn(16),
				size:     4096 * int32(1+rng.Intn(8)),
			})
			decides++
		}
	}
	for group > 1 && decides%group != 0 {
		ops = append(ops, op{decide: true, queueLen: rng.Intn(16), size: 4096})
		decides++
	}
	return ops
}

// runDevice plays a device's script over one pipelined connection and
// returns its verdicts indexed by decide sequence.
func runDevice(t *testing.T, addr string, device uint32, ops []op) []Verdict {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Errorf("client close: %v", err)
		}
	}()
	ndecide := 0
	for _, o := range ops {
		if o.decide {
			if err := c.Send(uint64(ndecide), device, o.queueLen, o.size); err != nil {
				t.Fatal(err)
			}
			ndecide++
		} else {
			if err := c.Complete(device, o.latency, o.queueLen, o.size); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	out := make([]Verdict, ndecide)
	for i := 0; i < ndecide; i++ {
		v, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d/%d: %v", i, ndecide, err)
		}
		if v.ID >= uint64(ndecide) {
			t.Fatalf("verdict id %d out of range", v.ID)
		}
		out[v.ID] = v
	}
	return out
}

// decisionTrace runs every device's script against one server config and
// returns the admit sequences keyed by device.
func decisionTrace(t *testing.T, m *core.Model, cfg Config, devs int, opsPer int, joint int) map[uint32][]bool {
	t.Helper()
	srv := NewServer(m, cfg)
	addr := startServer(t, srv)
	var wg sync.WaitGroup
	var mu sync.Mutex
	got := make(map[uint32][]bool)
	for d := 0; d < devs; d++ {
		wg.Add(1)
		go func(device uint32) {
			defer wg.Done()
			verdicts := runDevice(t, addr, device, deviceOps(int64(device)+100, opsPer, joint))
			admits := make([]bool, len(verdicts))
			for i, v := range verdicts {
				if v.Flags != 0 {
					t.Errorf("device %d verdict %d unexpectedly degraded (flags %#x)", device, i, v.Flags)
				}
				admits[i] = v.Admit
			}
			mu.Lock()
			got[device] = admits
			mu.Unlock()
		}(uint32(d))
	}
	wg.Wait()
	return got
}

// TestServeDeterminism pins the tentpole contract: batched group inference
// answers byte-identically to sequential single-request inference, at any
// shard count and batch window, because group membership and feature
// history depend only on each device's message order — never on batch
// timing.
func TestServeDeterminism(t *testing.T) {
	const devs, opsPer = 6, 200
	for _, joint := range []int{1, 4} {
		m := testModel(t, 21, joint)
		// Queues sized above the whole pipelined workload: determinism is
		// specified for the below-capacity regime (sheds are documented
		// timing-dependent escape hatches).
		const q = 8192
		configs := []Config{
			// Sequential reference: one shard, one request per wakeup.
			{Shards: 1, MaxBatch: 1, QueueLen: q, GroupTimeout: time.Minute},
			{Shards: 4, BatchWindow: 2 * time.Millisecond, MaxBatch: 64, QueueLen: q, GroupTimeout: time.Minute},
			{Shards: 8, MaxBatch: 16, QueueLen: q, GroupTimeout: time.Minute},
		}
		ref := decisionTrace(t, m, configs[0], devs, opsPer, joint)
		for _, cfg := range configs[1:] {
			got := decisionTrace(t, m, cfg, devs, opsPer, joint)
			for d := uint32(0); d < devs; d++ {
				if len(got[d]) != len(ref[d]) {
					t.Fatalf("joint=%d shards=%d device %d: %d verdicts, reference %d",
						joint, cfg.Shards, d, len(got[d]), len(ref[d]))
				}
				for i := range ref[d] {
					if got[d][i] != ref[d][i] {
						t.Fatalf("joint=%d shards=%d device %d decision %d: batched %v != sequential %v",
							joint, cfg.Shards, d, i, got[d][i], ref[d][i])
					}
				}
			}
		}
	}
}

// TestServeDeterminismInt8 re-pins the determinism contract with the int8
// reference network pinned as the engine through WithPredictor: integer
// arithmetic makes its batched kernel exact at any batch shape, so verdicts
// stay byte-identical across shard counts and batch sizes on any engine the
// server is handed.
func TestServeDeterminismInt8(t *testing.T) {
	const devs, opsPer = 4, 150
	for _, joint := range []int{1, 3} {
		tr := trace.Generate(trace.MSRStyle(25, 3*time.Second))
		dev := ssd.New(ssd.Samsung970Pro(), 25)
		log := iolog.Collect(tr, dev)
		cfg := core.DefaultConfig(25)
		cfg.Epochs = 8
		cfg.MaxTrainSamples = 8000
		cfg.Quantize8 = true
		if joint > 1 {
			cfg.JointSize = joint
		}
		trained, err := core.Train(log, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if trained.Quantized8() == nil {
			t.Fatal("Quantize8 set but no int8 network built")
		}
		m := trained.WithPredictor(trained.Quantized8())
		const q = 8192
		ref := decisionTrace(t, m, Config{Shards: 1, MaxBatch: 1, QueueLen: q, GroupTimeout: time.Minute}, devs, opsPer, joint)
		for _, scfg := range []Config{
			{Shards: 4, BatchWindow: 2 * time.Millisecond, MaxBatch: 64, QueueLen: q, GroupTimeout: time.Minute},
			{Shards: 8, MaxBatch: 8, QueueLen: q, GroupTimeout: time.Minute},
		} {
			got := decisionTrace(t, m, scfg, devs, opsPer, joint)
			for d := uint32(0); d < devs; d++ {
				if len(got[d]) != len(ref[d]) {
					t.Fatalf("joint=%d shards=%d device %d: %d verdicts, reference %d",
						joint, scfg.Shards, d, len(got[d]), len(ref[d]))
				}
				for i := range ref[d] {
					if got[d][i] != ref[d][i] {
						t.Fatalf("joint=%d shards=%d device %d decision %d: int8 batched %v != sequential %v",
							joint, scfg.Shards, d, i, got[d][i], ref[d][i])
					}
				}
			}
		}
	}
}

// TestServeJointGroupVerdicts pins §5 group semantics: all P members of a
// joint group receive the same verdict.
func TestServeJointGroupVerdicts(t *testing.T) {
	const p = 4
	m := testModel(t, 22, p)
	srv := NewServer(m, Config{Shards: 2, GroupTimeout: time.Minute})
	addr := startServer(t, srv)
	verdicts := runDevice(t, addr, 7, deviceOps(7, 160, p))
	if len(verdicts)%p != 0 {
		t.Fatalf("decide count %d not a multiple of %d", len(verdicts), p)
	}
	for g := 0; g < len(verdicts); g += p {
		for i := 1; i < p; i++ {
			if verdicts[g+i].Admit != verdicts[g].Admit {
				t.Fatalf("group %d member %d verdict %v != head %v",
					g/p, i, verdicts[g+i].Admit, verdicts[g].Admit)
			}
		}
	}
}

// TestHotSwap pins the swap contract: under continuous load with repeated
// swaps between an always-admit and a never-admit model, every request is
// answered, and every inference verdict is consistent with the version that
// produced it — i.e. no response ever reflects a torn or stale-published
// model.
func TestHotSwap(t *testing.T) {
	m1 := testModel(t, 23, 1)
	m1.SetThreshold(2) // admits everything
	var buf bytes.Buffer
	if err := m1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m2.SetThreshold(-1) // declines everything

	srv := NewServer(m1, Config{Shards: 4, QueueLen: 4096, BreakerWindow: -1})
	addr := startServer(t, srv)

	const clients, perClient = 4, 400
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	answered := make([]int, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				v, err := c.Decide(uint32(ci), i%16, 4096)
				if err != nil {
					errs <- fmt.Errorf("client %d decide %d: %w", ci, i, err)
					return
				}
				if v.Flags != 0 {
					errs <- fmt.Errorf("client %d decide %d degraded (flags %#x)", ci, i, v.Flags)
					return
				}
				// Odd versions are m1 (admit-all), even are m2
				// (decline-all). A mismatch means a decision crossed a
				// swap boundary inside one forward pass.
				if want := v.ModelVersion%2 == 1; v.Admit != want {
					errs <- fmt.Errorf("client %d decide %d: version %d answered admit=%v",
						ci, i, v.ModelVersion, v.Admit)
					return
				}
				answered[ci]++
			}
		}(ci)
	}
	// Swap continuously while the clients hammer.
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		for i := 0; i < 60; i++ {
			if i%2 == 0 {
				srv.Swap(m2)
			} else {
				srv.Swap(m1)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	wg.Wait()
	<-swapDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for ci, n := range answered {
		if n != perClient {
			t.Errorf("client %d: %d/%d requests answered", ci, n, perClient)
		}
	}
	st := srv.Stats()
	if st.Swaps != 60 {
		t.Errorf("swaps = %d, want 60", st.Swaps)
	}
	if got := st.Decisions(); got != clients*perClient {
		t.Errorf("decisions = %d, want %d", got, clients*perClient)
	}
}

// TestShedAndBreaker forces the degraded paths: an impossible 1ns budget
// deadline-sheds every queued request, which fails open (admit) and trips
// the shard breaker into answering without inference. The queue is deep
// enough that requests actually reach the worker — the batch-drain reader
// would otherwise queue-full-shed nearly everything before the breaker gets
// a decision to answer.
func TestShedAndBreaker(t *testing.T) {
	m := testModel(t, 24, 1)
	m.SetThreshold(-1) // a working forward pass would DECLINE everything
	srv := NewServer(m, Config{
		Shards: 1, QueueLen: 1024, Budget: time.Nanosecond,
		BreakerWindow: 8, Cooldown: 16, Probes: 2,
	})
	addr := startServer(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 600
	for i := 0; i < n; i++ {
		if err := c.Send(uint64(i), 1, 4, 4096); err != nil {
			t.Fatal(err)
		}
		if i%16 == 15 {
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d/%d: %v", i, n, err)
		}
		if !v.Admit {
			t.Fatalf("degraded verdict %d declined — shedding must fail open", i)
		}
		if v.Flags == 0 {
			t.Fatalf("verdict %d took the inference path despite a 1ns budget", i)
		}
	}
	st := srv.Stats()
	if st.DeadlineSheds == 0 {
		t.Error("no deadline sheds recorded")
	}
	if st.Trips == 0 {
		t.Error("breaker never tripped despite a 100% shed rate")
	}
	if st.BreakerOpen == 0 {
		t.Error("open breaker never answered a request")
	}
	if st.Decisions() != n {
		t.Errorf("decisions = %d, want %d", st.Decisions(), n)
	}
}

// TestStatsAndSwapOverWire covers the control plane end to end: counters
// accumulate and render, and a model uploaded through the socket is
// published atomically.
func TestStatsAndSwapOverWire(t *testing.T) {
	m := testModel(t, 25, 1)
	srv := NewServer(m, Config{Shards: 2})
	addr := startServer(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		if _, err := c.Decide(uint32(i%3), i%8, 8192); err != nil {
			t.Fatal(err)
		}
		if err := c.Complete(uint32(i%3), 120_000, i%8, 8192); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Decisions() != 50 {
		t.Errorf("decisions = %d, want 50", st.Decisions())
	}
	if st.ModelVersion != 1 || st.Swaps != 0 {
		t.Errorf("fresh server at version %d with %d swaps", st.ModelVersion, st.Swaps)
	}
	if len(st.Shards) != 2 {
		t.Errorf("%d shard snapshots, want 2", len(st.Shards))
	}
	if st.String() == "" {
		t.Error("empty stats summary")
	}

	m2 := testModel(t, 26, 1)
	v, err := c.Swap(m2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf("swap published version %d, want 2", v)
	}
	if _, cur := srv.Model(); cur != 2 {
		t.Errorf("server reports version %d after wire swap", cur)
	}
	if v, err := c.Decide(9, 3, 4096); err != nil || v.ModelVersion != 2 {
		t.Errorf("post-swap decide: %+v, %v", v, err)
	}
}

// TestServeDriftDetector pins the drift wiring: shards observe the rows
// they infer on and publish MaxPSI through Stats.
func TestServeDriftDetector(t *testing.T) {
	m := testModel(t, 27, 1)
	// Reference rows centered far away from live traffic so PSI is large.
	ref := make([][]float64, 64)
	for i := range ref {
		row := make([]float64, m.Spec().Width())
		for j := range row {
			row[j] = 1e9 + float64(i)
		}
		ref[i] = row
	}
	srv := NewServer(m, Config{Shards: 1, DriftRef: ref})
	addr := startServer(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 600; i++ {
		if _, err := c.Decide(0, i%8, 4096); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.MaxPSI <= 0 {
		t.Errorf("MaxPSI = %v after 600 observed rows far from the reference", st.MaxPSI)
	}
}
