package core

import (
	"fmt"
	"sort"

	"repro/internal/feature"
	"repro/internal/filter"
	"repro/internal/iolog"
	"repro/internal/label"
	"repro/internal/nn"
	"repro/internal/trace"
)

// LiveSample is one harvested completion observation from the serving
// layer: the request identity the wire protocol carries, the measured
// latency, and the feature row the admission model saw (or would have
// seen) for this I/O at decide time. It is the unit the
// continuous-learning reservoir stores — the identity fields are a flat
// value type, and Row is an owned buffer the harvester recycles in place,
// so per-device reservoirs stay alloc-free at steady state.
type LiveSample struct {
	Device uint32
	// Seq is the per-device completion index (0, 1, 2, ...). It orders
	// samples within a device deterministically regardless of how devices
	// were sharded or interleaved at harvest time.
	Seq       uint64
	LatencyNs uint64
	QueueLen  uint32
	Size      uint32
	// Row is the raw feature row as the serving trackers produced it,
	// reconstructed by the harvester from the device's completion stream
	// (see lifecycle.Harvester). Training and judging on these rows keeps
	// the learning loop inside the serving feature distribution — the
	// whole point of harvesting (feature-row, latency) pairs rather than
	// identities alone. Nil on identity-only samples; the LiveRecords
	// reconstruction path ignores it.
	Row []float64
}

// LiveRecords converts harvested completions into a training log the
// offline pipeline accepts. Completions carry no arrival timestamps (the
// wire protocol deliberately does not trust client clocks), so arrivals
// are synthesized: samples are laid out device-major in (Device, Seq)
// order on one continuing logical clock, and each sample advances the
// clock by roughly its observed service share, latency/(queueLen+1).
// Busy periods (deep queues, long latencies) therefore reconstruct as
// dense windows with low drain ratios and calm periods as sparse ones —
// the shape the §3.1 period-labeling stage keys on. The reconstruction is
// an approximation, but a deterministic one: identical sample sets yield
// identical logs.
func LiveRecords(samples []LiveSample) []iolog.Record {
	ordered := append([]LiveSample(nil), samples...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Device != ordered[j].Device {
			return ordered[i].Device < ordered[j].Device
		}
		return ordered[i].Seq < ordered[j].Seq
	})
	const minGap = 1000 // 1µs floor keeps the synthetic clock advancing
	recs := make([]iolog.Record, 0, len(ordered))
	clock := int64(0)
	for _, s := range ordered {
		gap := int64(s.LatencyNs) / int64(s.QueueLen+1)
		if gap < minGap {
			gap = minGap
		}
		clock += gap
		recs = append(recs, iolog.Record{
			Arrival:  clock,
			Size:     int32(s.Size),
			Op:       trace.Read,
			Latency:  int64(s.LatencyNs),
			QueueLen: int(s.QueueLen),
		})
	}
	return recs
}

// TrainLive runs the full offline pipeline (label, filter, featurize,
// scale, train, calibrate, quantize) over a harvested reservoir — the
// cold-start challenger path of continuous retraining. Deterministic in
// (samples, cfg).
func TrainLive(samples []LiveSample, cfg Config) (*Model, error) {
	return Train(LiveRecords(samples), cfg)
}

// LiveLabels labels harvested completions from their (size, latency)
// pairs alone. Period labeling needs real arrival timestamps, which live
// completions deliberately do not carry, so it is coerced to the
// size-normalized cutoff — the live-retraining labeler that removes plain
// cutoff's size confound (Fig. 3b) without arrival reconstruction.
func LiveLabels(samples []LiveSample, cfg Config) []int {
	recs := make([]iolog.Record, len(samples))
	for i, s := range samples {
		recs[i] = iolog.Record{
			Size:     int32(s.Size),
			Op:       trace.Read,
			Latency:  int64(s.LatencyNs),
			QueueLen: int(s.QueueLen),
		}
	}
	if cfg.Labeling == LabelPeriod {
		cfg.Labeling = LabelCutoffSize
	}
	labels, _ := Label(recs, cfg)
	return labels
}

// TrainLiveRows runs the training tail of the pipeline (scale, train,
// calibrate, quantize) directly over harvested (feature-row, latency)
// pairs — the cold-start challenger path when the harvester captured
// serving rows. Unlike TrainLive there is no arrival reconstruction: the
// rows are the ones the serving trackers produced, so the model trains,
// calibrates, and deploys in one feature distribution. Labels come from
// LiveLabels; the noise-filter stage is skipped (its detectors need
// arrival structure); joint inference is forced off (live rows are
// single-I/O rows). Rows are copied before scaling, so the caller's
// sample set is untouched. Deterministic in (samples, cfg).
func TrainLiveRows(samples []LiveSample, cfg Config) (*Model, error) {
	rows, kept := liveRows(samples)
	if len(rows) == 0 {
		return nil, ErrNoReads
	}
	labels := LiveLabels(kept, cfg)
	if !hasBothClasses(labels) {
		return nil, ErrOneClass
	}

	cfg.JointSize = 1
	cfg = withDefaults(cfg)
	if w := cfg.Feature.Width(); w != len(rows[0]) {
		return nil, fmt.Errorf("core: live rows are %d wide, feature spec wants %d", len(rows[0]), w)
	}

	scaler := feature.NewScaler(cfg.Scaler)
	feature.FitTransform(scaler, rows)
	rows, labels = subsample(rows, labels, cfg.MaxTrainSamples, cfg.Seed)

	net, err := newNet(cfg, len(rows[0]))
	if err != nil {
		return nil, err
	}
	stats, err := fitNet(net, rows, labels)
	if err != nil {
		return nil, err
	}

	m := &Model{
		cfg:       cfg,
		spec:      cfg.Feature,
		scaler:    scaler,
		net:       net,
		threshold: calibrate(net, rows, labels),
		report: Report{
			Samples:      len(kept),
			Kept:         len(kept),
			SlowFraction: label.SlowFraction(labels),
			TrainStats:   stats,
		},
	}
	if err := m.quantize(rows, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// FinetuneLiveRows is the warm-start counterpart of TrainLiveRows: clone
// the model's network and continue training it on harvested serving rows,
// reusing the fitted scaler so the feature space stays aligned with the
// copied weights. Same contract as FinetuneLive otherwise: the receiver
// is untouched, epochs <= 0 defaults to 5, half learning rate.
func (m *Model) FinetuneLiveRows(samples []LiveSample, epochs int) (*Model, error) {
	rows, kept := liveRows(samples)
	if len(rows) == 0 {
		return nil, ErrNoReads
	}
	cfg := m.cfg
	labels := LiveLabels(kept, cfg)
	if !hasBothClasses(labels) {
		return nil, ErrOneClass
	}
	for i, r := range rows {
		rows[i] = m.scaler.Transform(r)
	}
	rows, labels = subsample(rows, labels, cfg.MaxTrainSamples, cfg.Seed)

	net, stats, err := m.warmStart(rows, labels, epochs)
	if err != nil {
		return nil, err
	}

	out := &Model{
		cfg:       cfg,
		spec:      m.spec,
		scaler:    m.scaler,
		net:       net,
		threshold: calibrate(net, rows, labels),
		report: Report{
			Samples:      len(kept),
			Kept:         len(kept),
			SlowFraction: label.SlowFraction(labels),
			TrainStats:   stats,
		},
	}
	if err := out.quantize(rows, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// FinetuneLive is the warm-start challenger path: clone the model's
// network and continue training it for a few epochs on the harvested
// reservoir, reusing the model's fitted scaler so the feature space stays
// aligned with the copied weights. The receiver is untouched; the
// returned model shares the (read-only) scaler and spec but owns its
// networks, threshold, and quantized rungs. epochs <= 0 defaults to 5;
// the fine-tune uses half the configured learning rate, the usual
// small-step regime for continued training.
func (m *Model) FinetuneLive(samples []LiveSample, epochs int) (*Model, error) {
	recs := LiveRecords(samples)
	reads := iolog.Reads(recs)
	if len(reads) == 0 {
		return nil, ErrNoReads
	}
	cfg := m.cfg
	labels, _ := Label(reads, cfg)
	fres := filter.Apply(reads, labels, cfg.Filter)
	rows := feature.Extract(reads, m.spec)
	rows, labels = assemble(rows, reads, labels, fres.Keep, cfg)
	if !hasBothClasses(labels) {
		return nil, ErrOneClass
	}
	for i, r := range rows {
		rows[i] = m.scaler.Transform(r)
	}
	rows, labels = subsample(rows, labels, cfg.MaxTrainSamples, cfg.Seed)

	net, stats, err := m.warmStart(rows, labels, epochs)
	if err != nil {
		return nil, err
	}

	out := &Model{
		cfg:       cfg,
		spec:      m.spec,
		scaler:    m.scaler,
		net:       net,
		threshold: calibrate(net, rows, labels),
		report: Report{
			Samples:      len(reads),
			Kept:         fres.Kept,
			SlowFraction: label.SlowFraction(labels),
			FilterDrops:  fres.Drops,
			TrainStats:   stats,
		},
	}
	if err := out.quantize(rows, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// liveRows copies out the harvested samples that carry a feature row,
// paired with their samples.
func liveRows(samples []LiveSample) ([][]float64, []LiveSample) {
	rows := make([][]float64, 0, len(samples))
	kept := make([]LiveSample, 0, len(samples))
	for _, s := range samples {
		if s.Row != nil {
			rows = append(rows, append([]float64(nil), s.Row...))
			kept = append(kept, s)
		}
	}
	return rows, kept
}

// warmStart fine-tunes a clone of the model's network on scaled rows for
// epochs (default 5) at half the configured learning rate.
func (m *Model) warmStart(rows [][]float64, labels []int, epochs int) (*nn.Network, nn.TrainStats, error) {
	net := m.net.Clone()
	if epochs <= 0 {
		epochs = 5
	}
	net.Retune(epochs, net.Config().LR/2)
	stats, err := fitNet(net, rows, labels)
	return net, stats, err
}
