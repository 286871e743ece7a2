// Command heimdall-bench regenerates the paper's tables and figures. Each
// subcommand runs one experiment and prints its result table; `all` runs
// everything in order.
//
// Usage:
//
//	heimdall-bench [-scale small|medium|full] [-seed N] [-datasets N]
//	               [-experiments N] [-dur D] [-parallel N] [-json] <experiment>
//
// -parallel N fans experiment work (dataset builds, per-dataset model sweeps,
// AutoML trials) across N goroutines; 0 uses GOMAXPROCS and 1 forces the
// serial path. Results are byte-identical at any worker count. -json
// additionally writes each table to BENCH_<experiment>.json in the current
// directory with the scale, worker count, and wall time.
//
// Experiments: fig5a fig5b fig7a fig7b fig7c fig7d fig8 fig9a fig9b fig9c
// fig9d fig9e fig10 fig11 fig12 fig13 fig14 fig15a fig15b fig15c fig16
// fig17 fig18 train-time faults loc all
//
// The faults experiment is not a paper figure: it injects device brownouts,
// transient read errors, and offline windows into the replay and compares
// always-admit, hedging, Heimdall, and circuit-breaker-guarded Heimdall
// under each scenario.
//
// Four subcommands sit outside the experiment table machinery and parse
// their own flags: `heimdall-bench serve` is the load generator for a live
// heimdall-serve instance; `heimdall-bench chaos` is the availability soak —
// it drives the full client/proxy/server loop through seeded network fault
// schedules and asserts the outcomes are deterministic across reruns and
// shard counts; `heimdall-bench int8` times the batched admission path
// through the float engine and the int32 and int8 reference networks
// (ns/op per row, allocs, int8-vs-int32 verdict agreement) and writes
// BENCH_int8.json, exiting nonzero if the int8 path allocates or agreement
// regresses; and `heimdall-bench retrain` is the continuous-learning
// shoot-out: a seeded drifting workload replayed through a train-once
// baseline and a lifecycle-managed server, scoring per-window accuracy/FNR
// against ground truth and asserting the managed run's outcomes are
// byte-identical across reruns and candidate-training worker counts (writes
// BENCH_retrain.json with -json). See -help on each.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/parallel"
)

var runners = map[string]func(experiments.Scale) experiments.Table{
	"fig5a":      experiments.Fig5a,
	"fig5b":      experiments.Fig5b,
	"fig7a":      experiments.Fig7a,
	"fig7b":      experiments.Fig7b,
	"fig7c":      experiments.Fig7c,
	"fig7d":      experiments.Fig7d,
	"fig8":       experiments.Fig8,
	"fig9a":      experiments.Fig9a,
	"fig9b":      experiments.Fig9b,
	"fig9c":      experiments.Fig9c,
	"fig9d":      experiments.Fig9d,
	"fig9e":      experiments.Fig9e,
	"fig10":      experiments.Fig10,
	"fig11":      experiments.Fig11,
	"fig12":      experiments.Fig12,
	"fig13":      experiments.Fig13,
	"fig14":      experiments.Fig14,
	"fig15a":     experiments.Fig15a,
	"fig15b":     experiments.Fig15b,
	"fig15c":     experiments.Fig15c,
	"fig16":      experiments.Fig16,
	"fig17":      experiments.Fig17,
	"fig17ext":   experiments.Fig17Ext,
	"fig18":      experiments.Fig18,
	"train-time": experiments.TrainTime,
	"ablation":   experiments.Ablation,
	"faults":     experiments.Faults,
}

func main() {
	// The serve load generator has its own flag set and lifecycle (it talks
	// to a live server rather than running a table experiment), so dispatch
	// before the experiment flags parse.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServeBench(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "chaos" {
		runChaosBench(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "int8" {
		runInt8Bench(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "retrain" {
		runRetrainBench(os.Args[2:])
		return
	}
	scaleName := flag.String("scale", "medium", "experiment scale: small, medium, or full")
	seed := flag.Int64("seed", 0, "override the random seed (0 keeps the scale default)")
	datasets := flag.Int("datasets", 0, "override the dataset count")
	exps := flag.Int("experiments", 0, "override the replay-experiment count")
	dur := flag.Duration("dur", 0, "override the trace window duration")
	workers := flag.Int("parallel", 0, "worker goroutines for experiment fan-out (0 = GOMAXPROCS, 1 = serial)")
	jsonOut := flag.Bool("json", false, "also write each table to BENCH_<experiment>.json")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	name := flag.Arg(0)

	var scale experiments.Scale
	switch *scaleName {
	case "small":
		scale = experiments.SmallScale()
	case "medium":
		scale = experiments.MediumScale()
	case "full":
		scale = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *seed != 0 {
		scale.Seed = *seed
	}
	if *datasets != 0 {
		scale.Datasets = *datasets
	}
	if *exps != 0 {
		scale.Experiments = *exps
	}
	if *dur != 0 {
		scale.TraceDur = *dur
	}
	scale.Workers = *workers

	switch name {
	case "loc":
		printLOC()
		return
	case "all":
		names := make([]string, 0, len(runners))
		for n := range runners {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			run(n, scale, *jsonOut)
		}
		return
	}
	if _, ok := runners[name]; !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n\n", name)
		usage()
		os.Exit(2)
	}
	run(name, scale, *jsonOut)
}

// benchRecord is the -json output schema: one experiment run with enough
// context (scale, workers, wall time) to compare runs across machines.
type benchRecord struct {
	Experiment string            `json:"experiment"`
	Scale      experiments.Scale `json:"scale"`
	Workers    int               `json:"workers"` // resolved count actually used
	ElapsedMS  float64           `json:"elapsed_ms"`
	Table      experiments.Table `json:"table"`
}

func run(name string, scale experiments.Scale, jsonOut bool) {
	start := time.Now()
	table := runners[name](scale)
	elapsed := time.Since(start)
	fmt.Println(table.String())
	fmt.Printf("(%s completed in %v on %d workers)\n\n", name, elapsed.Round(time.Millisecond), parallel.Workers(scale.Workers))
	if !jsonOut {
		return
	}
	rec := benchRecord{
		Experiment: name,
		Scale:      scale,
		Workers:    parallel.Workers(scale.Workers),
		ElapsedMS:  float64(elapsed.Microseconds()) / 1000,
		Table:      table,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "json encode %s: %v\n", name, err)
		return
	}
	out := fmt.Sprintf("BENCH_%s.json", name)
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", out, err)
		return
	}
	fmt.Printf("(wrote %s)\n\n", out)
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: heimdall-bench [flags] <experiment>\n\nexperiments:\n")
	names := make([]string, 0, len(runners)+2)
	for n := range runners {
		names = append(names, n)
	}
	names = append(names, "loc", "all")
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "  %s\n\nflags:\n", strings.Join(names, " "))
	flag.PrintDefaults()
}

// locBuckets are the rows of the implementation-scale table, in print
// order, each with the packages under internal/ it counts.
var locBuckets = []struct {
	name     string
	internal []string
}{
	{"core pipeline (core,label,filter,feature,nn)", []string{"core", "label", "filter", "feature", "nn"}},
	{"substrates (ssd,trace,iolog,metrics)", []string{"ssd", "trace", "iolog", "metrics"}},
	{"baselines (linnos,policy,models,automl)", []string{"linnos", "policy", "models", "automl"}},
	{"integration (replay,cluster,experiments,parallel)", []string{"replay", "cluster", "experiments", "parallel"}},
	{"serve", []string{"serve"}},
	{"lifecycle", []string{"lifecycle"}},
	{"analysis", []string{"analysis"}},
	{"fault + drift", []string{"fault", "drift"}},
	{"benchmark harness (perfbench)", nil},
	{"cmd", nil},
	{"examples", nil},
	{"root", nil},
}

// locBucket maps a repository-relative Go file path to its row of the
// implementation-scale table, "" when no row claims it.
func locBucket(rel string) string {
	parts := strings.Split(filepath.ToSlash(rel), "/")
	switch {
	case len(parts) == 1:
		return "root"
	case parts[0] == "perfbench":
		return "benchmark harness (perfbench)"
	case parts[0] == "cmd", parts[0] == "examples":
		return parts[0]
	case parts[0] == "internal":
		for _, b := range locBuckets {
			if slices.Contains(b.internal, parts[1]) {
				return b.name
			}
		}
	}
	return ""
}

// printLOC counts Go lines in the repository — the Table 1 analogue.
func printLOC() {
	root := "."
	if _, err := os.Stat("go.mod"); err != nil {
		root = filepath.Dir(os.Args[0])
	}
	counts := map[string]int{}
	testCounts := map[string]int{}
	total, testTotal := 0, 0
	_ = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return nil
		}
		if info.IsDir() {
			if name := info.Name(); name == ".git" || name == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return nil
		}
		lines := strings.Count(string(data), "\n")
		b := locBucket(rel)
		if b == "" {
			b = "other"
		}
		if strings.HasSuffix(path, "_test.go") {
			testCounts[b] += lines
			testTotal += lines
		} else {
			counts[b] += lines
			total += lines
		}
		return nil
	})
	fmt.Println("## Table 1 analogue — implementation scale (Go lines)")
	for _, b := range locBuckets {
		fmt.Printf("%-52s %6d  (+%d test)\n", b.name, counts[b.name], testCounts[b.name])
	}
	if n := counts["other"] + testCounts["other"]; n > 0 {
		fmt.Printf("%-52s %6d  (+%d test)\n", "other", counts["other"], testCounts["other"])
	}
	fmt.Printf("%-52s %6d  (+%d test)\n", "total", total, testTotal)
}
