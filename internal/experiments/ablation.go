package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/metrics"
)

// Ablation measures the repository's own design choices (the list DESIGN.md
// commits to), beyond the paper's figures:
//
//   - quantization: decision agreement between the float engine and the
//     int32 fixed-point reference network;
//   - threshold calibration: FNR/FPR at the calibrated operating point vs
//     the naive 0.5 cut;
//   - data sampling: accuracy at the 50k training-row cap vs a 10k cap;
//   - biased training (§3.6): the paper found weighted loss unhelpful —
//     verify PosWeight=4 shifts FNR down at an FPR cost without improving
//     ROC.
func Ablation(scale Scale) Table {
	ds := Pool(scale.Datasets, scale)

	t := Table{
		Title:   "Repository design ablation",
		Columns: []string{"roc-auc", "fnr", "fpr", "extra"},
		Note:    "extra = quantized decision agreement (quant rows), training rows (sampling rows)",
	}

	// Quantization: agreement between float and fixed-point decisions.
	var agree, rocs []float64
	for i, d := range ds {
		cfg := scale.coreConfig(scale.Seed + int64(i))
		m, err := core.Train(d.TrainLog, cfg)
		if err != nil {
			continue
		}
		rows := feature.Extract(d.TestReads, m.Spec())
		q := m.WithPredictor(m.Quantized())
		match, total := 0, 0
		for _, raw := range rows {
			qd := q.Admit(raw)
			fd := m.Admit(raw)
			if qd == fd {
				match++
			}
			total++
			if total >= 2000 {
				break
			}
		}
		if total > 0 {
			agree = append(agree, float64(match)/float64(total))
		}
		rocs = append(rocs, m.Evaluate(d.TestReads, d.TestGT).ROCAUC)
	}
	t.Rows = append(t.Rows, Row{"quantized (int32 reference)", []float64{mean(rocs), 0, 0, mean(agree)}})

	// Threshold calibration vs naive 0.5.
	var calFNR, calFPR, naiveFNR, naiveFPR []float64
	for i, d := range ds {
		cfg := scale.coreConfig(scale.Seed + int64(i))
		m, err := core.Train(d.TrainLog, cfg)
		if err != nil {
			continue
		}
		rep := m.Evaluate(d.TestReads, d.TestGT)
		calFNR = append(calFNR, rep.FNR)
		calFPR = append(calFPR, rep.FPR)
		// Re-score at 0.5.
		rows := feature.Extract(d.TestReads, m.Spec())
		scores := make([]float64, len(rows))
		for j, raw := range rows {
			scores[j] = m.Score(raw)
		}
		naive := metrics.EvaluateAt(scores, d.TestGT, 0.5)
		naiveFNR = append(naiveFNR, naive.FNR)
		naiveFPR = append(naiveFPR, naive.FPR)
	}
	t.Rows = append(t.Rows, Row{"threshold calibrated", []float64{mean(rocs), mean(calFNR), mean(calFPR), 0}})
	t.Rows = append(t.Rows, Row{"threshold naive-0.5", []float64{mean(rocs), mean(naiveFNR), mean(naiveFPR), 0}})

	// Data sampling cap.
	for _, cap := range []int{10000, scale.MaxTrainSamples} {
		c := cap
		accs := trainEval(ds, scale, func(cfg *core.Config) { cfg.MaxTrainSamples = c })
		t.Rows = append(t.Rows, Row{rowName("sampling cap", c), []float64{mean(accs), 0, 0, float64(c)}})
	}

	// Biased training (§3.6).
	for _, pw := range []float64{1, 4} {
		w := pw
		var roc, fnr, fpr []float64
		for i, d := range ds {
			cfg := scale.coreConfig(scale.Seed + int64(i))
			cfg.PosWeight = w
			m, err := core.Train(d.TrainLog, cfg)
			if err != nil {
				continue
			}
			rep := m.Evaluate(d.TestReads, d.TestGT)
			roc = append(roc, rep.ROCAUC)
			fnr = append(fnr, rep.FNR)
			fpr = append(fpr, rep.FPR)
		}
		t.Rows = append(t.Rows, Row{rowName("pos-weight", int(w)), []float64{mean(roc), mean(fnr), mean(fpr), w}})
	}
	return t
}

func rowName(base string, v int) string {
	return fmt.Sprintf("%s %d", base, v)
}
