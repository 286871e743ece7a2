// Quickstart: train a Heimdall admission model on a synthetic workload and
// make admit/decline decisions — the minimal end-to-end loop.
package main

import (
	"fmt"
	"log"
	"time"

	heimdall "repro"
)

func main() {
	// 1. Generate a production-style workload and a simulated SSD, then
	//    collect the training log (the "last 15 minutes of I/Os" a storage
	//    operator would record).
	tr := heimdall.Generate(heimdall.MSRStyle(42, 8*time.Second))
	dev := heimdall.NewDevice(heimdall.Samsung970Pro(), 1)
	iolog := heimdall.Collect(tr, dev)
	fmt.Printf("collected %d I/Os (%d reads)\n", len(iolog), len(heimdall.Reads(iolog)))

	// 2. Train: period-based labeling -> 3-stage noise filtering -> feature
	//    engineering -> tuned NN. One call.
	model, err := heimdall.Train(iolog, heimdall.DefaultConfig(7))
	if err != nil {
		log.Fatalf("train: %v", err)
	}
	rep := model.Report()
	fmt.Printf("trained on %d reads (kept %d after noise filtering), slow fraction %.1f%%\n",
		rep.Samples, rep.Kept, rep.SlowFraction*100)
	fmt.Printf("preprocessing %v, training %v, decision threshold %.3f\n",
		rep.PreprocessTime.Round(time.Millisecond), rep.TrainTime.Round(time.Millisecond),
		model.Threshold())

	// 3. Evaluate against the simulator's ground truth on an unseen device.
	dev2 := heimdall.NewDevice(heimdall.Samsung970Pro(), 2)
	test := heimdall.Generate(heimdall.MSRStyle(43, 4*time.Second))
	testReads := heimdall.Reads(heimdall.Collect(test, dev2))
	m := model.Evaluate(testReads, heimdall.GroundTruth(testReads))
	fmt.Printf("accuracy vs ground truth: ROC-AUC %.3f, PR-AUC %.3f, F1 %.3f, FNR %.3f, FPR %.3f\n",
		m.ROCAUC, m.PRAUC, m.F1, m.FNR, m.FPR)

	// 4. Make online decisions the way a deployment would: keep a rolling
	//    window of completed-I/O history, build the feature row, and ask the
	//    model.
	hist := heimdall.NewFeatureWindow(3)
	// An idle device: short queue, fast recent completions -> admit.
	hist.Push(heimdall.HistEntry{Latency: 90_000, QueueLen: 1, Thpt: 45})
	idle := model.Features(1, 4096, hist)
	fmt.Printf("idle device, 4KB read   -> admit=%v (P(slow)=%.3f)\n",
		model.Admit(idle), model.Score(idle))

	// A device under internal contention: deep queue, slow completions with
	// collapsed throughput -> decline and reroute to the replica.
	busy := heimdall.NewFeatureWindow(3)
	for i := 0; i < 3; i++ {
		busy.Push(heimdall.HistEntry{Latency: 6_000_000, QueueLen: 40, Thpt: 0.6})
	}
	contended := model.Features(45, 4096, busy)
	fmt.Printf("busy device, 4KB read   -> admit=%v (P(slow)=%.3f)\n",
		model.Admit(contended), model.Score(contended))
}
