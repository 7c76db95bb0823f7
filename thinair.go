// Package thinair is a from-scratch reproduction of "Creating Shared
// Secrets out of Thin Air" (Safaka, Fragouli, Argyraki, Diggavi —
// HotNets-XI, 2012): a secret-agreement protocol that lets a group of
// wireless terminals build shared secrets whose secrecy rests on the
// eavesdropper's limited network presence rather than on her computational
// limitations.
//
// The package is a facade over the implementation in internal/…:
//
//   - the protocol engine (Phase 1 pair-wise wiretap extraction, Phase 2
//     group redistribution + privacy amplification, leader rotation,
//     Eve-bound estimators),
//   - the simulated broadcast erasure substrate and the paper's 14 m²
//     3×3-cell testbed with rotating artificial interference,
//   - a concurrent runtime that runs the protocol as goroutine-per-node
//     over in-process or UDP-loopback broadcast buses, and
//   - the evaluation harness regenerating the paper's Figures 1 and 2 and
//     headline numbers.
//
// # Quick start
//
//	res, err := thinair.Simulate(thinair.SimOptions{
//		Terminals: 3,
//		Erasure:   0.4,
//		Seed:      1,
//	})
//	// res.Secret is shared by all terminals; res.Reliability tells how
//	// much of it the eavesdropper could have inferred (1 = nothing).
//
// See the examples/ directory for runnable programs, including the
// concurrent runtime, key refresh, multi-antenna adversaries and the
// active-Eve authentication extension.
package thinair

import (
	"fmt"

	"repro/internal/auth"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/keypool"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/service"
	"repro/internal/testbed"
	"repro/internal/transport"
	"repro/internal/unicast"
)

// Re-exported protocol configuration and results.
type (
	// Config is the protocol session configuration (see core.Config).
	Config = core.Config
	// SessionResult is a protocol session outcome with the paper's
	// efficiency and reliability metrics.
	SessionResult = core.SessionResult
	// RoundInfo describes one round of a session.
	RoundInfo = core.RoundInfo
	// Estimator lower-bounds what Eve missed (§3.3 of the paper).
	Estimator = core.Estimator
	// Pooling groups x-packets into budgetable pools.
	Pooling = core.Pooling
)

// Re-exported estimators and pooling policies.
type (
	// Oracle budgets with Eve's true misses (analysis only).
	Oracle = core.Oracle
	// FixedDelta assumes the interference guarantees Eve a minimum
	// per-packet miss probability.
	FixedDelta = core.FixedDelta
	// LeaveOneOut is the paper's pretend-each-terminal-is-Eve estimator.
	LeaveOneOut = core.LeaveOneOut
	// KSubset secures against a k-antenna Eve.
	KSubset = core.KSubset
	// ExactPooling uses raw reception classes.
	ExactPooling = core.ExactPooling
	// BalancedPooling re-aggregates fragmented classes (default).
	BalancedPooling = core.BalancedPooling
)

// Re-exported testbed types.
type (
	// Placement positions Eve and the terminals on the 3×3 cell grid.
	Placement = testbed.Placement
	// Cell is a logical testbed cell (0..8).
	Cell = testbed.Cell
	// Channel holds the physical-layer parameters of the simulated
	// testbed.
	Channel = testbed.Channel
	// Experiment is one testbed placement run.
	Experiment = testbed.Experiment
)

// KeyChain is the active-adversary authentication chain (bootstrap +
// per-round ratchet).
type KeyChain = auth.KeyChain

// SpanLog is the one event model of every tier (see internal/obs): a
// fixed-size ring of span events. A simulated session records its rounds
// into it (SimOptions.Tracer, Config.Tracer) as one engine-tier span, in
// the same form a daemon serves on /debug/trace.
type SpanLog = obs.SpanLog

// NewSpanLog returns a span log holding the newest capacity events.
func NewSpanLog(capacity int) *SpanLog { return obs.NewSpanLog(capacity) }

// KeyPool banks session secrets and dispenses never-reused one-time keys
// (see internal/keypool).
type KeyPool = keypool.Pool

// NewKeyPool returns an empty key pool.
func NewKeyPool() *KeyPool { return keypool.New() }

// NewKeyPoolWithRefill returns a pool that calls refill (typically a
// protocol session) whenever it runs low.
func NewKeyPoolWithRefill(refill func() ([]byte, error), lowWater int) *KeyPool {
	return keypool.NewWithRefill(refill, lowWater)
}

// NewKeyChain derives a chain from an out-of-band bootstrap secret.
func NewKeyChain(bootstrap []byte) *KeyChain { return auth.NewKeyChain(bootstrap) }

// DefaultChannel returns the calibrated testbed channel parameters.
func DefaultChannel() Channel { return testbed.DefaultChannel() }

// Reliability converts (secret dims, dims unknown to Eve) into the paper's
// reliability metric r: Eve guesses each secret bit with probability 2^-r.
func Reliability(secretDims, unknownDims int) float64 {
	return core.Reliability(secretDims, unknownDims)
}

// SimOptions configures a quick simulation on a symmetric broadcast
// erasure channel (every link, Eve's included, loses packets independently
// with probability Erasure) — the setting of the paper's Figure 1.
type SimOptions struct {
	// Terminals is the group size n >= 2.
	Terminals int
	// Erasure is the per-link packet loss probability in [0, 1).
	Erasure float64
	// XPerRound, PayloadBytes, Rounds, Rotate, Estimator, Pooling override
	// protocol defaults (see core.Config).
	XPerRound    int
	PayloadBytes int
	Rounds       int
	Rotate       bool
	Estimator    Estimator
	Pooling      Pooling
	// EveAntennas is the number of independent receive antennas Eve has
	// (default 1).
	EveAntennas int
	Seed        int64
	// Tracer, when non-nil, records the session's per-round events.
	Tracer *SpanLog
}

// Simulate runs one protocol session on a symmetric erasure channel and
// returns the shared secret plus the evaluation metrics.
func Simulate(opt SimOptions) (*SessionResult, error) {
	if opt.Erasure < 0 || opt.Erasure >= 1 {
		return nil, fmt.Errorf("thinair: erasure %v outside [0, 1)", opt.Erasure)
	}
	if opt.XPerRound == 0 {
		opt.XPerRound = 90
	}
	antennas := opt.EveAntennas
	if antennas <= 0 {
		antennas = 1
	}
	cfg := Config{
		Terminals:    opt.Terminals,
		XPerRound:    opt.XPerRound,
		PayloadBytes: opt.PayloadBytes,
		Rounds:       opt.Rounds,
		Rotate:       opt.Rotate,
		Estimator:    opt.Estimator,
		Pooling:      opt.Pooling,
		Seed:         opt.Seed,
		Tracer:       opt.Tracer,
	}
	med := radio.NewMedium(radio.Uniform{P: opt.Erasure}, opt.Terminals+antennas, opt.Seed+1)
	eves := make([]radio.NodeID, antennas)
	for i := range eves {
		eves[i] = radio.NodeID(opt.Terminals + i)
	}
	return core.RunSession(cfg, med, eves)
}

// RunExperiment executes one testbed placement (the unit of the paper's
// §4 evaluation): Eve in one cell, terminals in others, rotating
// artificial interference.
func RunExperiment(ex *Experiment) (*SessionResult, error) { return ex.Run() }

// PairwiseResult is the outcome of a Phase-1-only session (§3.1): one
// pair-wise secret per terminal, each with its own secrecy certificate.
type PairwiseResult = core.PairwiseResult

// SimulatePairwise runs Phase 1 only on a symmetric erasure channel:
// terminal 0 leads, and every other terminal ends up with a pair-wise
// secret shared with the leader.
func SimulatePairwise(opt SimOptions) (*PairwiseResult, error) {
	if opt.Erasure < 0 || opt.Erasure >= 1 {
		return nil, fmt.Errorf("thinair: erasure %v outside [0, 1)", opt.Erasure)
	}
	if opt.XPerRound == 0 {
		opt.XPerRound = 90
	}
	antennas := opt.EveAntennas
	if antennas <= 0 {
		antennas = 1
	}
	cfg := Config{
		Terminals:    opt.Terminals,
		XPerRound:    opt.XPerRound,
		PayloadBytes: opt.PayloadBytes,
		Estimator:    opt.Estimator,
		Pooling:      opt.Pooling,
		Seed:         opt.Seed,
	}
	med := radio.NewMedium(radio.Uniform{P: opt.Erasure}, opt.Terminals+antennas, opt.Seed+1)
	eves := make([]radio.NodeID, antennas)
	for i := range eves {
		eves[i] = radio.NodeID(opt.Terminals + i)
	}
	return core.RunPairwiseRound(cfg, med, eves)
}

// SimulateUnicastBaseline runs the §3.2 unicast baseline (pair-wise
// secrets + one-time-pad unicast of a fresh group key) with the same
// options as Simulate, for direct comparison.
func SimulateUnicastBaseline(opt SimOptions) (*SessionResult, error) {
	if opt.Erasure < 0 || opt.Erasure >= 1 {
		return nil, fmt.Errorf("thinair: erasure %v outside [0, 1)", opt.Erasure)
	}
	if opt.XPerRound == 0 {
		opt.XPerRound = 90
	}
	antennas := opt.EveAntennas
	if antennas <= 0 {
		antennas = 1
	}
	cfg := Config{
		Terminals:    opt.Terminals,
		XPerRound:    opt.XPerRound,
		PayloadBytes: opt.PayloadBytes,
		Rounds:       opt.Rounds,
		Rotate:       opt.Rotate,
		Estimator:    opt.Estimator,
		Pooling:      opt.Pooling,
		Seed:         opt.Seed,
	}
	med := radio.NewMedium(radio.Uniform{P: opt.Erasure}, opt.Terminals+antennas, opt.Seed+1)
	eves := make([]radio.NodeID, antennas)
	for i := range eves {
		eves[i] = radio.NodeID(opt.Terminals + i)
	}
	return unicast.RunSession(cfg, med, eves)
}

// EnumeratePlacements lists every way to place Eve and n terminals on the
// grid, as the paper's "one experiment for each possible positioning".
func EnumeratePlacements(n int) []Placement { return testbed.EnumeratePlacements(n) }

// Concurrent runtime re-exports: run the protocol as goroutine-per-node
// over a broadcast bus (in-process channels or loopback UDP).
type (
	// Bus is a broadcast domain with erasures on the data plane.
	Bus = transport.Bus
	// Endpoint is one node's attachment to a Bus.
	Endpoint = transport.Endpoint
	// NodeConfig parameterizes one node of the concurrent runtime.
	NodeConfig = transport.NodeConfig
	// NodeResult is one node's session outcome.
	NodeResult = transport.NodeResult
	// Observer is a wire-level eavesdropper for the concurrent runtime.
	Observer = transport.Observer
)

// NewChanBus creates an in-process broadcast bus with the given symmetric
// erasure probability on the data plane.
func NewChanBus(erasure float64, seed int64) Bus {
	return transport.NewChanBus(erasure, seed, transport.DefaultInbox)
}

// NewUDPBus creates a loopback-UDP broadcast bus (hub + ARQ control
// plane) with the given symmetric erasure probability on the data plane.
func NewUDPBus(erasure float64, seed int64) (Bus, error) {
	return transport.NewUDPBus(erasure, seed, transport.DefaultInbox)
}

// NewObserver creates a wire-level eavesdropper for a session.
func NewObserver(session uint32) *Observer { return transport.NewObserver(session) }

// Service-layer re-exports: the long-lived daemon that runs many
// concurrent group sessions with background keypool refresh and a
// metrics/HTTP surface (see internal/service and cmd/thinaird).
type (
	// Service is the multi-session key-agreement daemon.
	Service = service.Service
	// ServiceConfig bounds concurrent sessions, queueing and drain time.
	ServiceConfig = service.Config
	// SessionSpec describes one long-lived group session.
	SessionSpec = service.SessionSpec
	// ServiceSession is one running group with its key pool.
	ServiceSession = service.Session
	// SessionMetrics / ServiceMetrics are telemetry snapshots.
	SessionMetrics = service.SessionMetrics
	ServiceMetrics = service.ServiceMetrics
)

// NewService starts a daemon; call Shutdown to drain and zeroize it.
// Service.Handler exposes /metrics, /healthz and the /v1/sessions API.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// Cluster-tier re-exports: the multi-process layer where a coordinator
// owns the session registry and supervises worker processes that each
// host sessions over UDP buses (see internal/cluster and the
// `thinaird coordinator` / `thinaird worker` subcommands).
type (
	// Coordinator owns the cluster registry, placement and supervision.
	Coordinator = cluster.Coordinator
	// ClusterConfig sizes the tier and its heartbeat/restart policy.
	ClusterConfig = cluster.Config
	// ClusterWorker hosts a bounded set of cluster sessions.
	ClusterWorker = cluster.Worker
	// ClusterSessionInfo is the registry's view of one session.
	ClusterSessionInfo = cluster.SessionInfo
)

// NewCoordinator starts the cluster tier; call Shutdown to drain every
// worker and zeroize every pool tier-wide. With a nil Spawn the workers
// are hosted in-process (cluster.InProcess); pass a cluster.ExecSpawner
// to run them as separate OS processes.
func NewCoordinator(cfg ClusterConfig) (*Coordinator, error) { return cluster.New(cfg) }

// Client is the unified key-access API: Draw, DrawN, StreamRange and
// ReaderAt against a session id, identical on every tier — /v1 HTTP to
// a daemon, a coordinator or a cluster worker, and the gate frame
// protocol. All
// implementations decode the shared /v1 error envelope to the same typed
// errors, so errors.Is works the same way regardless of tier.
type Client = client.Client

// Typed errors every Client implementation can return; each corresponds
// 1:1 to an error code slug of the /v1 envelope (see the README's error
// code table).
var (
	ErrNotFound    = client.ErrNotFound
	ErrOrphaned    = client.ErrOrphaned
	ErrDraining    = client.ErrDraining
	ErrDuplicate   = client.ErrDuplicate
	ErrUnreachable = client.ErrUnreachable
	ErrShutdown    = client.ErrShutdown
	ErrSaturated   = client.ErrSaturated
	ErrExhausted   = client.ErrExhausted
	ErrClosed      = client.ErrClosed
	ErrFailed      = client.ErrFailed
	ErrBadRequest  = client.ErrBadRequest
	ErrInternal    = client.ErrInternal
)

// NewHTTPClient returns a Client talking /v1 over HTTP to a daemon, a
// coordinator or a cluster worker at base (e.g. "http://127.0.0.1:9309")
// — all three serve the same /v1/sessions/{id} routes.
func NewHTTPClient(base string) Client { return client.NewHTTP(base) }

// DialGate connects a persistent frame-protocol Client to a gate's TCP
// listener (see the `thinaird gate` subcommand).
func DialGate(addr string) (Client, error) { return gate.Dial(addr) }

// DialGateWS is DialGate over a WebSocket upgrade (ws://host/path).
func DialGateWS(url string) (Client, error) { return gate.DialWS(url) }

// ErrInterrupted marks a draw cut by a connection loss on a
// reconnecting gate client. The draw is NEVER replayed — the gate may
// have consumed the pool bytes before the cut — so the caller decides
// whether to re-issue. Stream ranges don't need it: they resume from
// the written offset transparently.
var ErrInterrupted = gate.ErrInterrupted

// DialGateReconnect is DialGate returning a self-healing client: when
// the connection dies (gate restart, kick, network cut) the next call
// re-dials with jittered exponential backoff. Stream ranges resume from
// the written offset so each byte is delivered exactly once; draws are
// never replayed (ErrInterrupted).
func DialGateReconnect(addr string) (Client, error) { return gate.DialReconnect(addr) }

// DialGateReconnectWS is DialGateReconnect over a WebSocket upgrade.
func DialGateReconnectWS(url string) (Client, error) { return gate.DialReconnectWS(url) }

// Gate-tier re-exports: the persistent-connection front tier that serves
// the Client API over multiplexed frames and streams ranges directly
// from owning workers (see internal/gate and `thinaird gate`).
type (
	// Gate accepts persistent frame-protocol connections.
	Gate = gate.Gate
	// GateConfig parameterizes a Gate.
	GateConfig = gate.Config
)

// NewGate builds a Gate serving the given backend; wire one with
// gate.ServiceBackend (single daemon) or gate.ClusterBackend (cluster).
func NewGate(cfg GateConfig) *Gate { return gate.New(cfg) }
