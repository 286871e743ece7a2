package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/iolog"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// runInt8Bench is the `heimdall-bench int8` subcommand: it trains one model
// carrying both integer reference networks, then measures the full batched
// admission path (scaling + forward pass + threshold) through the float
// engine the model decides with and through the int32 and int8 networks on
// the same eval rows — ns/op per row, allocs per batch, engine memory
// footprint, and the int8-vs-int32 verdict agreement rate. It exits nonzero
// when the int8 batched path allocates or agreement falls below the gate,
// so CI can hold the line.
func runInt8Bench(args []string) {
	fs := flag.NewFlagSet("int8", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "training/workload seed")
	trainDur := fs.Duration("train-dur", 4*time.Second, "training-trace duration")
	evalDur := fs.Duration("eval-dur", 3*time.Second, "eval-trace duration")
	batch := fs.Int("batch", 64, "rows per batched decide")
	iters := fs.Int("iters", 50, "timing passes over the eval set")
	gate := fs.Float64("agree-gate", 0.98, "minimum int8-vs-int32 verdict agreement")
	jsonOut := fs.Bool("json", false, "write BENCH_int8.json")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	cfg := core.DefaultConfig(*seed)
	cfg.Epochs = 10
	cfg.MaxTrainSamples = 10000
	cfg.Quantize = true
	cfg.Quantize8 = true
	tr := trace.Generate(trace.MSRStyle(*seed, *trainDur))
	log := iolog.Collect(tr, ssd.New(ssd.Samsung970Pro(), *seed))
	model, err := core.Train(log, cfg)
	if err != nil {
		fatalInt8(err)
	}

	evtr := trace.Generate(trace.MSRStyle(*seed+1, *evalDur))
	evlog := iolog.Collect(evtr, ssd.New(ssd.Samsung970Pro(), *seed+1))
	rows := feature.Extract(iolog.Reads(evlog), model.Spec())
	if len(rows) < *batch {
		fatalInt8(fmt.Errorf("eval trace produced %d rows, need at least %d", len(rows), *batch))
	}
	rows = rows[:len(rows)/(*batch)*(*batch)] // whole batches only

	m32 := model.WithPredictor(model.Quantized())
	m8 := model.WithPredictor(model.Quantized8())

	bench := func(m *core.Model) (nsPerRow float64, allocs float64, verdicts []bool) {
		scr := m.NewBatchScratch(*batch)
		verdicts = make([]bool, len(rows))
		m.AdmitBatchInto(rows[:*batch], verdicts[:*batch], scr) // warm buffers
		start := time.Now()
		for it := 0; it < *iters; it++ {
			for off := 0; off < len(rows); off += *batch {
				m.AdmitBatchInto(rows[off:off+*batch], verdicts[off:], scr)
			}
		}
		nsPerRow = float64(time.Since(start).Nanoseconds()) / float64(*iters*len(rows))
		allocs = testing.AllocsPerRun(100, func() {
			m.AdmitBatchInto(rows[:*batch], verdicts[:*batch], scr)
		})
		return nsPerRow, allocs, verdicts
	}

	nsF, allocsF, _ := bench(model)
	ns32, allocs32, v32 := bench(m32)
	ns8, allocs8, v8 := bench(m8)
	agree := 0
	for i := range v32 {
		if v32[i] == v8[i] {
			agree++
		}
	}
	rate := float64(agree) / float64(len(rows))
	memF := model.Net().MemoryBytes()
	mem32 := model.Quantized().MemoryBytes()
	mem8 := model.Quantized8().MemoryBytes()

	fmt.Printf("int8 bench: %d rows, batch %d, %d passes\n", len(rows), *batch, *iters)
	fmt.Printf("  float: %8.1f ns/row  %5.1f allocs/batch  %6d B engine\n", nsF, allocsF, memF)
	fmt.Printf("  int32: %8.1f ns/row  %5.1f allocs/batch  %6d B engine\n", ns32, allocs32, mem32)
	fmt.Printf("  int8:  %8.1f ns/row  %5.1f allocs/batch  %6d B engine\n", ns8, allocs8, mem8)
	fmt.Printf("  speedup x%.2f, verdict agreement %d/%d = %.4f\n", ns32/ns8, agree, len(rows), rate)

	if *jsonOut {
		rec := struct {
			Experiment  string  `json:"experiment"`
			Rows        int     `json:"rows"`
			Batch       int     `json:"batch"`
			Iters       int     `json:"iters"`
			NsPerRowF   float64 `json:"ns_per_row_float"`
			NsPerRow32  float64 `json:"ns_per_row_int32"`
			NsPerRow8   float64 `json:"ns_per_row_int8"`
			Speedup     float64 `json:"speedup"`
			AllocsF     float64 `json:"allocs_per_batch_float"`
			Allocs32    float64 `json:"allocs_per_batch_int32"`
			Allocs8     float64 `json:"allocs_per_batch_int8"`
			MemBytesF   int     `json:"engine_bytes_float"`
			MemBytes32  int     `json:"engine_bytes_int32"`
			MemBytes8   int     `json:"engine_bytes_int8"`
			Agreement   float64 `json:"verdict_agreement"`
			AgreeGate   float64 `json:"agree_gate"`
			ElapsedNote string  `json:"note"`
		}{
			Experiment: "int8", Rows: len(rows), Batch: *batch, Iters: *iters,
			NsPerRowF: nsF, NsPerRow32: ns32, NsPerRow8: ns8, Speedup: ns32 / ns8,
			AllocsF: allocsF, Allocs32: allocs32, Allocs8: allocs8,
			MemBytesF: memF, MemBytes32: mem32, MemBytes8: mem8,
			Agreement: rate, AgreeGate: *gate,
			ElapsedNote: "full batched admission path: min-max scaling + forward pass + threshold",
		}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fatalInt8(err)
		}
		if err := os.WriteFile("BENCH_int8.json", append(data, '\n'), 0o644); err != nil {
			fatalInt8(err)
		}
		fmt.Println("(wrote BENCH_int8.json)")
	}

	failed := false
	if allocs8 != 0 {
		fmt.Fprintf(os.Stderr, "heimdall-bench int8: FAIL: int8 batched path allocates %.1f per batch, want 0\n", allocs8)
		failed = true
	}
	if rate < *gate {
		fmt.Fprintf(os.Stderr, "heimdall-bench int8: FAIL: verdict agreement %.4f below gate %.4f\n", rate, *gate)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

func fatalInt8(err error) {
	fmt.Fprintln(os.Stderr, "heimdall-bench int8:", err)
	os.Exit(1)
}
