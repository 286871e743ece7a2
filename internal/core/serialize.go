package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/feature"
	"repro/internal/nn"
)

// modelFile is the on-disk form of a trained model: everything a storage
// node needs to make admission decisions — configuration, network weights,
// fitted scaler statistics, and the calibrated threshold. It deliberately
// excludes training state; a loaded model is inference-only until Retrain
// rebuilds it from fresh data.
type modelFile struct {
	Version   int
	Cfg       Config
	Net       nn.Snapshot
	Scaler    feature.ScalerState
	Threshold float64
	Report    Report
	// Act8 holds the int8 engine's calibrated activation scales when the
	// model carries one. Weight scales are derived deterministically from
	// the float weights, so float snapshot + Act8 rebuilds a bit-identical
	// int8 network. Gob ignores unknown fields, so adding this keeps
	// Version 1 readable both ways (older readers drop it; older files
	// leave it empty here).
	Act8 []float64
}

const modelFileVersion = 1

// Save serializes the model. The format is gob-based and versioned; Load
// rejects unknown versions.
func (m *Model) Save(w io.Writer) error {
	f := modelFile{
		Version:   modelFileVersion,
		Cfg:       m.cfg,
		Net:       m.net.Snapshot(),
		Scaler:    m.scaler.State(),
		Threshold: m.threshold,
		Report:    m.report,
	}
	if m.qnet8 != nil {
		f.Act8 = m.qnet8.ActScales()
	}
	if err := gob.NewEncoder(w).Encode(f); err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	return nil
}

// Load deserializes a model saved with Save and rebuilds the integer
// reference networks the configuration and stored scales ask for.
func Load(r io.Reader) (*Model, error) {
	var f modelFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if f.Version != modelFileVersion {
		return nil, fmt.Errorf("core: model file version %d, this build reads %d", f.Version, modelFileVersion)
	}
	net, err := nn.FromSnapshot(f.Net)
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	m := &Model{
		cfg:       f.Cfg,
		spec:      f.Cfg.Feature,
		scaler:    feature.RestoreScaler(f.Scaler),
		net:       net,
		threshold: f.Threshold,
		report:    f.Report,
	}
	if f.Cfg.Feature.Depth == 0 {
		m.spec = feature.DefaultSpec()
	}
	if err := m.quantize(nil, f.Act8); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	return m, nil
}
