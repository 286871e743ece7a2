package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {999, 95}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {100000, 99.99}, {5000000, 99.99},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.want > 0 && beyond(c.n, c.want) < 10 {
			t.Errorf("n=%d: p%v has %d samples beyond it, want >= 10", c.n, c.want, beyond(c.n, c.want))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	s := summarize(xs)
	if s.P50 != 50 || s.P99 != 99 || s.TailPct != 90 || s.TailVal != 90 || s.Beyond != 10 || s.P99Valid {
		t.Errorf("summarize(1..100) = %+v", s)
	}
}

// tinyServe shrinks a serve workload to run in a test.
func tinyServe(p serveParams) serveParams {
	p.Devices = 4
	p.TrainDur = 400 * time.Millisecond
	p.StreamDur = time.Second
	p.Setups = 1
	p.Tick = 200 * time.Millisecond
	return p
}

// shortRun drives a tiny serve-steady loop and returns the generator and
// set-up with the server closed.
func shortRun(t *testing.T, seed int64) (*generator, *serveSetup) {
	t.Helper()
	p := tinyServe(steadyParams())
	st, err := setupServe(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(p, st, seed)
	runErr := g.run(300*time.Millisecond, nil)
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return g, st
}

func TestVerifyCatchesInjectedMismatch(t *testing.T) {
	g, st := shortRun(t, 7)
	v := verify(g, st)
	if v.Mismatches != 0 || v.Unanswered != 0 || v.Checked == 0 {
		t.Fatalf("clean run: %+v", v)
	}
	// Flip one model-answered verdict: the rescoring must catch it.
	id := uint64(len(g.verdicts) / 2)
	g.verdicts[id].admit = !g.verdicts[id].admit
	if v := verify(g, st); v.Mismatches != 1 {
		t.Fatalf("flipped verdict %d: %d mismatches, want 1", id, v.Mismatches)
	}
	// A fail-open answer is counted, not compared.
	g.verdicts[id].flags = 1
	if v := verify(g, st); v.Mismatches != 0 || v.FailOpen != 1 {
		t.Fatalf("fail-open verdict %d: %+v", id, v)
	}
	// A verdict carrying a version no model was published under fails.
	g.verdicts[id].flags = 0
	g.verdicts[id].admit = !g.verdicts[id].admit
	g.verdicts[id].version = 99
	if v := verify(g, st); v.Mismatches != 1 {
		t.Fatalf("unknown version: %d mismatches, want 1", v.Mismatches)
	}
}

func TestReplicaRoutingKeepsEveryDeviceLive(t *testing.T) {
	g, _ := shortRun(t, 3)
	for d, q := range g.completionQuarters() {
		for i, n := range q {
			if n == 0 {
				t.Errorf("device %d: no completions in quarter %d of %v", d, i, q)
			}
		}
	}
	// A declined read is issued on, and completes at, its replica.
	g2 := &generator{st: g.st, devs: g.devs, shadow: g.shadow, verdicts: []verdictRec{{}, {got: true, admit: false}, {got: true, admit: true}}}
	at := g.st.stream.entries[len(g.st.stream.entries)-1].at + int64(10*time.Second)
	g2.issue(pending{e: streamEntry{at: at, dev: 2, op: trace.Read, size: 4096}, id: 1}, false, nil)
	g2.issue(pending{e: streamEntry{at: at, dev: 2, op: trace.Read, size: 4096}, id: 2}, false, nil)
	devs := []uint32{g2.comps[0].dev, g2.comps[1].dev}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	if devs[0] != 2 || devs[1] != 3 {
		t.Fatalf("admitted and declined reads of device 2 completed on %v, want [2 3]", devs)
	}
}

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.Name || got[i].Unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, d.Name, d.Unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// checkReport runs a workload, prints its result, and checks the result
// line carries every metric of the mode and the detail line the
// fingerprint.
func checkReport(t *testing.T, rs runSpec, o *outcome) {
	t.Helper()
	if !o.correct() {
		t.Fatalf("%s: checks failed: %v", rs.Workload, o.checks)
	}
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := report(f, rs, o); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatal(err)
	}
	defs := endToEnd
	if rs.Trace {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", rs.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("%s: metric %s missing or unit %q", rs.Workload, d.Name, m.Unit)
		}
	}
	var detail struct {
		D struct {
			Fingerprint map[string]any `json:"fingerprint"`
		} `json:"perfbench_detail"`
	}
	if err := json.Unmarshal(lines[len(lines)-2], &detail); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"cpu_model", "nproc", "gomaxprocs", "go_version", "git_rev"} {
		if _, ok := detail.D.Fingerprint[k]; !ok {
			t.Errorf("%s: fingerprint lacks %s", rs.Workload, k)
		}
	}
}

func TestEveryMetricReported(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	offline := fig11Params()
	offline.CorpusDur, offline.TestDur, offline.Setups = 500*time.Millisecond, time.Second, 1
	runs := map[string]func(runSpec) (*outcome, error){
		"serve-steady":  func(rs runSpec) (*outcome, error) { return runServe(rs, tinyServe(steadyParams())) },
		"serve-drift":   func(rs runSpec) (*outcome, error) { return runServe(rs, tinyServe(driftParams())) },
		"offline-fig11": func(rs runSpec) (*outcome, error) { return runOffline(rs, offline) },
	}
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			rs := runSpec{Workload: w, Seed: 5, Seconds: 1, Trace: traced, OutDir: t.TempDir()}
			o, err := runs[w](rs)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			checkReport(t, rs, o)
		}
	}
}
