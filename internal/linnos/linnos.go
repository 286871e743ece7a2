// Package linnos re-implements the LinnOS admission model (OSDI '20), the
// ML baseline the paper compares against. LinnOS differs from Heimdall in
// every pipeline stage the paper revisits:
//
//   - per-page (4KB) decisions: a big I/O is split and inferred per page
//     (Fig. 9a), and I/O size is not a feature;
//   - latency-cutoff labeling (Fig. 3a);
//   - digitized features: each raw value is encoded as separate decimal
//     digits, 31 inputs in total (§6.4 step 0);
//   - one hidden layer of 256 neurons and a 2-neuron softmax output,
//     8706 weights+biases and 8448 multiplications (§6.6).
package linnos

import (
	"math/rand"
	"sort"

	"repro/internal/feature"
	"repro/internal/iolog"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/nn"
)

// HistDepth is LinnOS's historical depth: the last 4 completed I/Os.
const HistDepth = 4

// PageSize is the granularity of LinnOS decisions.
const PageSize = 4 << 10

const (
	qlenDigits = 3 // queue lengths encoded as 3 decimal digits
	latDigits  = 4 // latencies (µs) encoded as 4 decimal digits
	// Inputs: (1 current + 4 historical) queue lengths * 3 digits
	// + 4 historical latencies * 4 digits = 15 + 16 = 31.
	Inputs = (1+HistDepth)*qlenDigits + HistDepth*latDigits
)

// Model is a trained LinnOS predictor.
type Model struct {
	net *nn.Network
	q   *nn.QuantNetwork

	scr *nn.Scratch // Admit's int32 layer buffers
}

// Train fits LinnOS on a collected log: cutoff labeling, digitized features,
// 256-neuron hidden layer, softmax output.
func Train(recs []iolog.Record, seed int64) (*Model, error) {
	reads := iolog.Reads(recs)
	labels := label.Cutoff(reads, label.CutoffValue(reads))
	rows := Extract(reads)
	rows, labels = subsample(rows, labels, 50000, seed)
	net, err := nn.New(nn.Config{
		Inputs:    Inputs,
		Layers:    []nn.LayerSpec{{Units: 256, Act: nn.ReLU}, {Units: 2, Act: nn.Softmax}},
		Seed:      seed,
		Optimizer: nn.Adam,
		Loss:      nn.CE,
		LR:        0.005,
		Epochs:    20,
		Batch:     64,
		Patience:  5,
	})
	if err != nil {
		return nil, err
	}
	yf := make([]float64, len(labels))
	for i, l := range labels {
		yf[i] = float64(l)
	}
	if _, err := net.Train(rows, yf); err != nil {
		return nil, err
	}
	q, err := net.Quantize()
	if err != nil {
		return nil, err
	}
	return &Model{net: net, q: q, scr: nn.NewScratch(q, 1)}, nil
}

// subsample caps the training set uniformly at random, matching the
// data-sampling applied to the Heimdall pipeline so comparisons stay fair.
func subsample(rows [][]float64, labels []int, max int, seed int64) ([][]float64, []int) {
	if max <= 0 || len(rows) <= max {
		return rows, labels
	}
	rng := rand.New(rand.NewSource(seed + 17))
	idx := rng.Perm(len(rows))[:max]
	sort.Ints(idx)
	outR := make([][]float64, max)
	outL := make([]int, max)
	for i, j := range idx {
		outR[i] = rows[j]
		outL[i] = labels[j]
	}
	return outR, outL
}

// digitize appends the base-10 digits of v (most significant first, capped
// at digits places) to row, each normalized to [0, 1].
func digitize(row []float64, v int64, digits int) []float64 {
	maxVal := int64(1)
	for i := 0; i < digits; i++ {
		maxVal *= 10
	}
	if v >= maxVal {
		v = maxVal - 1
	}
	if v < 0 {
		v = 0
	}
	div := maxVal / 10
	for i := 0; i < digits; i++ {
		row = append(row, float64((v/div)%10)/9)
		div /= 10
	}
	return row
}

// Features builds the 31-input digitized vector from live state.
func Features(queueLen int, hist *feature.Window) []float64 {
	row := make([]float64, 0, Inputs)
	row = digitize(row, int64(queueLen), qlenDigits)
	for d := 0; d < HistDepth; d++ {
		row = digitize(row, int64(hist.At(d).QueueLen), qlenDigits)
	}
	for d := 0; d < HistDepth; d++ {
		latUs := int64(hist.At(d).Latency / 1e3)
		row = digitize(row, latUs, latDigits)
	}
	return row
}

// Extract builds training rows from a log with completed-before-arrival
// history, mirroring feature.Extract but with LinnOS's encoding.
func Extract(reads []iolog.Record) [][]float64 {
	rows := make([][]float64, len(reads))
	win := feature.NewWindow(HistDepth)
	type pending struct {
		complete int64
		h        feature.Hist
	}
	var queue []pending
	for i, r := range reads {
		// The queue is nearly sorted (completion order ~ arrival order);
		// compact scan keeps this simple and fast enough for training.
		keep := queue[:0]
		for _, p := range queue {
			if p.complete <= r.Arrival {
				win.Push(p.h)
			} else {
				keep = append(keep, p)
			}
		}
		queue = keep
		rows[i] = Features(r.QueueLen, win)
		queue = append(queue, pending{
			complete: r.Complete(),
			h: feature.Hist{
				Latency:  float64(r.Latency),
				QueueLen: float64(r.QueueLen),
			},
		})
	}
	return rows
}

// InferencesFor returns how many model invocations an I/O of the given size
// costs: one per 4KB page (Fig. 9a).
func InferencesFor(size int32) int {
	n := (int(size) + PageSize - 1) / PageSize
	if n < 1 {
		n = 1
	}
	return n
}

// Score returns P(slow) for a digitized feature row.
func (m *Model) Score(row []float64) float64 { return m.net.Predict(row) }

// Admit decides one page through the int32 network, as LinnOS does in the
// kernel: true = admit. Callers invoke it once per page of the I/O; any slow
// page declines the whole request. The softmax output puts P(slow) above
// 0.5 exactly when the slow logit exceeds the fast one — the logits are
// integers at scale 2^20, so no rounding sits between the two. Not safe
// for concurrent use (shared scratch).
func (m *Model) Admit(row []float64) bool {
	var p [1]float64
	m.q.PredictBatchInto([][]float64{row}, p[:], m.scr)
	return p[0] <= 0.5
}

// AdmitIO runs the per-page protocol for a whole I/O and reports the
// decision plus the number of inferences spent.
func (m *Model) AdmitIO(queueLen int, size int32, hist *feature.Window) (admit bool, inferences int) {
	row := Features(queueLen, hist)
	n := InferencesFor(size)
	for p := 0; p < n; p++ {
		if !m.Admit(row) {
			return false, p + 1
		}
	}
	return true, n
}

// Net exposes the float network for overhead accounting (§6.6).
func (m *Model) Net() *nn.Network { return m.net }

// Evaluate scores a labeled test log with the five §6.4 metrics.
func (m *Model) Evaluate(reads []iolog.Record, refLabels []int) metrics.Report {
	rows := Extract(reads)
	scores := make([]float64, len(rows))
	for i, r := range rows {
		scores[i] = m.net.Predict(r)
	}
	return metrics.Evaluate(scores, refLabels)
}
