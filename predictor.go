package heimdall

// Façade exports for the inference engine API: the float network, the x1024
// int32 fixed-point network, and the batched int8 network all implement one
// Predictor interface. A Model decides through its float network; the two
// integer networks are the §4.1 kernel forms ExportC emits, and
// (*Model).WithPredictor pins one of them to time or check it on the
// admission path.

import (
	"repro/internal/core"
	"repro/internal/nn"
)

// Predictor is the inference engine interface: the zero-alloc batch-major
// PredictBatchInto plus the sizing accessors scratch allocation needs.
// Implemented by FloatNetwork, QuantizedNetwork, and Int8Network; custom
// engines (e.g. a remote or hardware-offloaded scorer) can implement it too
// and be installed with (*Model).WithPredictor.
type Predictor = nn.Predictor

// PredictorScratch holds a Predictor's reusable layer buffers; one per
// goroutine makes PredictBatchInto allocation-free and concurrency-safe.
type PredictorScratch = nn.Scratch

// NewPredictorScratch sizes scratch for batches of up to maxBatch rows
// through p.
func NewPredictorScratch(p Predictor, maxBatch int) *PredictorScratch {
	return nn.NewScratch(p, maxBatch)
}

// FloatNetwork is the trained float64 network — the engine a Model decides
// through.
type FloatNetwork = nn.Network

// QuantizedNetwork is the x1024 int32 fixed-point network (§4.1), the
// reference for ExportC's C kernel.
type QuantizedNetwork = nn.QuantNetwork

// Int8Network is the batched int8 network: per-output-channel symmetric
// weight scales, calibrated activation scales, int32 accumulation — the
// reference for ExportC's int8 C kernel. Integer arithmetic makes it
// bit-identical at any batch shape on any platform.
type Int8Network = nn.QuantNetwork8

// ModelScratch is the per-caller buffer set behind (*Model).AdmitBatchInto;
// create one per goroutine with (*Model).NewBatchScratch.
type ModelScratch = core.Scratch
