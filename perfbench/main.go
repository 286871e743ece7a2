// Command perfbench is the repository's benchmark: it builds one workload
// from a seed, runs it in this process for a fixed wall time, checks every
// output, and prints every metric by name with its unit. The last line of
// standard output is the result object
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// carrying the end-to-end metrics with -trace 0 and the per-layer metrics
// with -trace 1. The line before it is a detail record: the machine
// fingerprint, the resolved workload and server configuration, the checks
// and their counts, and (traced runs) why any per-layer metric reads zero.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - serve-steady: closed loop, 8 decides in flight on one connection to an
//     in-process serve.Server, 16 simulated SSDs as 8 replica pairs,
//     stationary MSR-style reads, one model trained at set-up.
//   - serve-drift: closed loop, 1 decide in flight, 8 SSDs as 4 pairs whose
//     reads switch from Tencent-style to MSR-style a third of the way in,
//     with the continuous-learning lifecycle attached.
//   - offline-fig11: the Fig. 11 pipeline with no wire: train a model per
//     device of a heavy/light MSR-style pair and replay a seeded pair of the
//     same styles through policy.Heimdall and policy.Baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them; README.md gives each metric's definition per
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"decides_per_s", "1/s"},
	{"decide_p50_us", "us"},
	{"decide_p99_us", "us"},
	{"decide_ok_frac", "ratio"},
	{"retrain_round_s", "s"},
	{"train_s", "s"},
	{"replay_reads_per_s", "1/s"},
	{"holdout_auc", "ratio"},
}

// engines are the inference engines of the quantization ladder, and
// ladderBatches the batch sizes each is timed at.
var (
	engines       = []string{"float", "int32", "int8"}
	ladderBatches = []int{1, 8, 64}
)

// perLayer lists the metrics of single layers a traced run reports.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.client.submit_ns", "ns"},
		{"serve.client.complete_ns", "ns"},
		{"serve.batch_rows_mean", "rows"},
		{"serve.batches", "count"},
		{"serve.sheds", "count"},
		{"serve.deadline_sheds", "count"},
		{"serve.breaker_answers", "count"},
		{"serve.partial_flushes", "count"},
		{"serve.unaccounted_us", "us"},
		{"feature.online_into_ns", "ns"},
		{"feature.window_push_ns", "ns"},
		{"feature.extract_s", "s"},
		{"drift.observe_ns", "ns"},
		{"core.admit_batch_ns_per_row", "ns"},
		{"core.scale_ns_per_row", "ns"},
	}
	for _, e := range engines {
		for _, b := range ladderBatches {
			defs = append(defs, metricDef{fmt.Sprintf("nn.predict_ns_per_row.%s.b%d", e, b), "ns"})
		}
	}
	defs = append(defs,
		metricDef{"nn.agree_frac.float", "ratio"},
		metricDef{"nn.agree_frac.int8", "ratio"},
		metricDef{"nn.train_s", "s"},
		metricDef{"nn.train_epochs", "count"},
		metricDef{"core.preprocess_s", "s"},
		metricDef{"core.label_s", "s"},
		metricDef{"filter.apply_s", "s"},
		metricDef{"filter.kept_frac", "ratio"},
		metricDef{"lifecycle.on_completion_ns", "ns"},
		metricDef{"lifecycle.on_decision_ns", "ns"},
		metricDef{"lifecycle.tick_s", "s"},
		metricDef{"lifecycle.rounds", "count"},
		metricDef{"lifecycle.candidates", "count"},
		metricDef{"lifecycle.judged", "count"},
		metricDef{"lifecycle.promotions", "count"},
		metricDef{"lifecycle.promote_ratio", "ratio"},
		metricDef{"policy.decide_ns", "ns"},
		metricDef{"policy.inferences_per_read", "ratio"},
		metricDef{"policy.decline_frac", "ratio"},
		metricDef{"replay.baseline_s", "s"},
		metricDef{"replay.self_s", "s"},
		metricDef{"ssd.submit_ns", "ns"},
		metricDef{"ssd.read_mean_vs_baseline", "ratio"},
		metricDef{"ssd.read_tail_vs_baseline", "ratio"},
		metricDef{"trace.generate_s", "s"},
		metricDef{"iolog.collect_s", "s"},
		metricDef{"bench.gen_busy_frac", "ratio"},
		metricDef{"bench.trace_overhead_frac", "ratio"},
	)
	return defs
}()

// runSpec is the resolved invocation: everything that decides what a run
// measures.
type runSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	OutDir   string `json:"out_dir"`
}

// outcome is what a workload hands back: its metrics, its checks, and the
// detail worth keeping with the result.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	// checks maps each correctness check to whether it passed.
	checks map[string]bool
	// absent says why a per-layer metric reads zero on this workload.
	absent map[string]string
	detail map[string]any
}

func newOutcome() *outcome {
	return &outcome{
		metrics: make(map[string]float64),
		checks:  make(map[string]bool),
		absent:  make(map[string]string),
		detail:  make(map[string]any),
	}
}

// check records one correctness check; a check recorded twice passes only
// if both passed, and a failed check fails the run.
func (o *outcome) check(name string, ok bool) {
	if prev, seen := o.checks[name]; seen {
		ok = ok && prev
	}
	o.checks[name] = ok
}

// correct reports whether every recorded check passed.
func (o *outcome) correct() bool {
	if len(o.checks) == 0 {
		return false
	}
	for _, ok := range o.checks {
		if !ok {
			return false
		}
	}
	return true
}

var workloads = map[string]func(runSpec) (*outcome, error){
	"serve-steady":  func(rs runSpec) (*outcome, error) { return runServe(rs, steadyParams()) },
	"serve-drift":   func(rs runSpec) (*outcome, error) { return runServe(rs, driftParams()) },
	"offline-fig11": func(rs runSpec) (*outcome, error) { return runOffline(rs, fig11Params()) },
}

func main() {
	workload := flag.String("workload", "", "workload: serve-steady, serve-drift or offline-fig11")
	seed := flag.Int64("seed", 1, "seed all inputs are generated from")
	seconds := flag.Int("seconds", 10, "wall seconds the timed phase runs")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	out := flag.String("out", ".bench_build/out", "directory for span and detail files")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rs := runSpec{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1, OutDir: *out}
	o, err := run(rs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", rs.Workload, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, rs, o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !o.correct() {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricValue is one metric as the result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metrics the run mode reports. A metric the
// workload did not produce is an error: every run prints the full set.
func buildResult(rs runSpec, o *outcome) (result, error) {
	defs := endToEnd
	if rs.Trace {
		defs = perLayer
	}
	res := result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue, len(defs))}
	if res.Attempted < 1 {
		return res, fmt.Errorf("%s attempted no operations", rs.Workload)
	}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok {
			return res, fmt.Errorf("%s did not produce metric %s", rs.Workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// report prints the detail record and then the result line, and keeps a
// copy of the detail record under the output directory.
func report(w *os.File, rs runSpec, o *outcome) error {
	res, err := buildResult(rs, o)
	if err != nil {
		return err
	}
	detail := map[string]any{
		"run":         rs,
		"fingerprint": fingerprint(),
		"checks":      o.checks,
		"detail":      o.detail,
	}
	if rs.Trace {
		detail["absent"] = o.absent
	}
	dbuf, err := json.Marshal(map[string]any{"perfbench_detail": detail})
	if err != nil {
		return err
	}
	mode := "e2e"
	if rs.Trace {
		mode = "trace"
	}
	if err := os.MkdirAll(rs.OutDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(rs.OutDir, rs.Workload+"."+mode+".detail.json"), append(dbuf, '\n'), 0o644); err != nil {
		return err
	}
	rbuf, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", dbuf, rbuf)
	return err
}

// fingerprint records the machine and build the numbers were measured on.
func fingerprint() map[string]any {
	fp := map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"git_rev":    "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp["git_rev"] = s.Value
			case "vcs.modified":
				fp["git_modified"] = s.Value == "true"
			}
		}
	}
	return fp
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
