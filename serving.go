package heimdall

// Façade exports for the online admission serving layer (internal/serve):
// an always-on per-device admission service with micro-batched group
// inference, atomic model hot-swap, and fail-open load shedding.

import (
	"net"
	"time"

	"repro/internal/drift"
	"repro/internal/feature"
	"repro/internal/serve"
)

// ServeConfig tunes the admission server: shard count, queue bounds, the
// micro-batch window, the queue-age shed budget, breaker thresholds, and
// the optional drift reference.
type ServeConfig = serve.Config

// Server is the online admission service. Publish retrained models with
// Swap; it never pauses admission.
type Server = serve.Server

// ServeClient speaks the admission wire protocol (one per goroutine).
type ServeClient = serve.Client

// ServePipeline is the windowed async decide API over a ServeClient: up to
// N decides in flight on one connection, verdicts reaped as the window
// recycles. Start one with (*ServeClient).Pipeline(n).
type ServePipeline = serve.Pipeline

// ServeStats is a snapshot of the server's per-shard counters.
type ServeStats = serve.Stats

// ServeVerdict is one admission decision as seen by a client.
type ServeVerdict = serve.Verdict

// Verdict flags: how a decision degraded, if it did. FlagLocal is the only
// one set client-side — it marks a fail-open admit the server never saw.
const (
	FlagShed     = serve.FlagShed     // queue-full fail-open
	FlagDeadline = serve.FlagDeadline // queue-age budget fail-open
	FlagBreaker  = serve.FlagBreaker  // answered with the shed breaker open
	FlagPartial  = serve.FlagPartial  // joint group flushed before filling
	FlagLocal    = serve.FlagLocal    // client-side fail-open (wire down)
)

// NewServer wraps a trained model in an admission server and starts its
// shard workers. Attach listeners with (*Server).Serve. Decisions flow
// through the model's float network in one batched pass per drained
// micro-batch; the verdicts are bit-identical at any batch size or shard
// count.
func NewServer(m *Model, cfg ServeConfig) *Server { return serve.NewServer(m, cfg) }

// ListenAdmission opens a listener for "unix:/path/sock", "tcp:host:port",
// or a bare TCP address.
func ListenAdmission(addr string) (net.Listener, error) { return serve.Listen(addr) }

// ResilientServeClient is the fail-open admission client: every decide gets
// a verdict — the server's when the wire cooperates, a local FlagLocal admit
// when it doesn't — with deadline-bounded I/O and capped-backoff reconnects.
type ResilientServeClient = serve.ResilientClient

// ResilientConfig tunes a ResilientServeClient's deadlines, backoff, and
// in-flight bound. The zero value is a sane default.
type ResilientConfig = serve.ClientConfig

// ServeClientCounters snapshots a resilient client's degradation activity;
// LocalVerdicts counts admissions the server never saw.
type ServeClientCounters = serve.ClientCounters

// DialAdmission connects a client to an admission server (same address
// forms as ListenAdmission), bounding the dial at two seconds.
func DialAdmission(addr string) (*ServeClient, error) {
	return serve.DialTimeout(addr, 2*time.Second)
}

// DialAdmissionTimeout is DialAdmission with an explicit dial bound
// (0 = block until the kernel gives up).
func DialAdmissionTimeout(addr string, d time.Duration) (*ServeClient, error) {
	return serve.DialTimeout(addr, d)
}

// DialAdmissionResilient returns a fail-open client bound to addr. It never
// fails: a dead address yields a client that admits locally until the
// address heals.
func DialAdmissionResilient(addr string, cfg ResilientConfig) *ResilientServeClient {
	return serve.DialResilient(addr, cfg)
}

// ServeChaosConfig tunes a chaos soak: request count, fault-schedule seed,
// shard count, client deadlines, and the directory for its unix sockets.
type ServeChaosConfig = serve.ChaosConfig

// ServeChaosReport is one soak's outcome: verdict counts split remote/local
// and by fault kind, the order-sensitive ledger hash, client/server/proxy
// counters, and any broken availability invariants.
type ServeChaosReport = serve.ChaosReport

// RunChaosSoak drives a server, a deterministic fault proxy, and a resilient
// client through a seeded fault schedule (blackouts, resets, stalls,
// mid-frame truncations, delays) and checks the availability contract:
// every decide answered, fail-open local admits exactly inside disruptive
// fault windows. The report's DeterministicKey is byte-identical across
// reruns and shard counts for a given seed.
func RunChaosSoak(m *Model, cfg ServeChaosConfig) (ServeChaosReport, error) {
	return serve.ChaosSoak(m, cfg)
}

// PSI is the population-stability index between a reference and a current
// distribution (as fraction vectors) — the drift score behind
// InputDriftDetector and the server's per-shard detectors.
func PSI(ref, cur []float64) float64 { return drift.PSI(ref, cur) }

// ExtractFeatures converts collected I/O records into the model's feature
// rows — the shape ServeConfig.DriftRef and NewInputDriftDetector expect as
// the training-distribution reference.
func ExtractFeatures(recs []Record, m *Model) [][]float64 {
	return feature.Extract(recs, m.Spec())
}
