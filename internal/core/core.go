// Package core implements the paper's secret-agreement protocol: Phase 1
// (pair-wise secrets via wiretap-II extraction over reception classes) and
// Phase 2 (group secret via redistribution + privacy amplification), the
// Eve-bound estimators of §3.3, leader rotation, and a deterministic
// session engine that runs the protocol over a simulated broadcast medium
// while tracking the eavesdropper's knowledge.
//
// All coding is over GF(2^16), so a round may use any practical number of
// x-packets without hitting the Cauchy-point limit.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/gf"
	"repro/internal/obs"
)

// Sym is the protocol's field symbol: GF(2^16), two payload bytes each.
type Sym = uint16

// Field returns the protocol field.
func Field() *gf.Field[Sym] { return gf.GF65536() }

// Default parameter values, chosen to mirror the paper's deployment (§4):
// 100-byte packets, 9 interference patterns rotated per experiment.
const (
	DefaultPayloadBytes  = 100
	DefaultSlotsPerRound = 9
)

// Config parameterizes a protocol session.
type Config struct {
	// Terminals is the group size n (2..16). Terminal indices are
	// 0..n-1; the medium must expose at least n nodes plus Eve's.
	Terminals int
	// XPerRound is N, the number of x-packets the leader transmits per
	// round.
	XPerRound int
	// PayloadBytes is the x-packet payload size B. Must be even (GF(2^16)
	// symbols are two bytes).
	PayloadBytes int
	// Rounds is the number of protocol rounds in the session.
	Rounds int
	// Rotate makes the terminals take turns in the leader role
	// (§3.2 "avoiding the worst-case scenario"). Round r's leader is
	// r mod n. When false, terminal 0 leads every round.
	Rotate bool
	// Estimator lower-bounds what Eve missed (§3.3). Defaults to
	// LeaveOneOut.
	Estimator Estimator
	// Pooling groups x-packets into the pools Phase 1 amplifies.
	// Defaults to BalancedPooling.
	Pooling Pooling
	// Seed drives x-payload generation: the simulation's math/rand
	// payloads (RunSession), and the transport runtime's keyed ones
	// (packet.XKey with block −1). Channel randomness lives in the
	// medium, which has its own seed, so payloads and erasures are
	// independently reproducible.
	Seed int64
	// SlotsPerRound is how many interference slots a round's x-packet
	// transmissions are spread across (the testbed rotates through all 9
	// noise patterns per experiment). 0 means DefaultSlotsPerRound.
	SlotsPerRound int
	// Tracer, when non-nil, records the session's protocol events
	// (round_start … session_done) under one engine-tier span. Nil
	// disables tracing.
	Tracer *obs.SpanLog
	// Obs, when non-nil, receives engine phase timings (round, x-phase
	// and compute durations) as histograms. Nil disables timing — the
	// engine then performs no clock reads at all.
	Obs *obs.Registry
}

// ErrConfig wraps configuration validation failures.
var ErrConfig = errors.New("core: invalid config")

// Validate checks the configuration and fills defaults in place.
func (c *Config) Validate() error {
	if c.Terminals < 2 || c.Terminals > 16 {
		return fmt.Errorf("%w: Terminals=%d, want 2..16", ErrConfig, c.Terminals)
	}
	if c.XPerRound < 1 || c.XPerRound > 16384 {
		return fmt.Errorf("%w: XPerRound=%d, want 1..16384", ErrConfig, c.XPerRound)
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = DefaultPayloadBytes
	}
	if c.PayloadBytes < 2 || c.PayloadBytes%2 != 0 {
		return fmt.Errorf("%w: PayloadBytes=%d, want positive even", ErrConfig, c.PayloadBytes)
	}
	if c.Rounds == 0 {
		c.Rounds = 1
	}
	if c.Rounds < 0 {
		return fmt.Errorf("%w: Rounds=%d", ErrConfig, c.Rounds)
	}
	if c.SlotsPerRound == 0 {
		c.SlotsPerRound = DefaultSlotsPerRound
	}
	if c.SlotsPerRound < 1 {
		return fmt.Errorf("%w: SlotsPerRound=%d", ErrConfig, c.SlotsPerRound)
	}
	if c.Estimator == nil {
		c.Estimator = LeaveOneOut{}
	}
	if c.Pooling == nil {
		c.Pooling = BalancedPooling{}
	}
	return nil
}

// Reliability converts the rank certificate into the paper's reliability
// metric: with fraction f of the secret's dimensions known to Eve, she
// guesses each secret bit correctly with probability (1+f)/2, and
// reliability is r = -log2((1+f)/2). r = 1 means Eve knows nothing
// (per-bit guess probability 1/2); r = 0 means she knows everything.
// Returns NaN when no secret was generated.
func Reliability(secretDims, unknownDims int) float64 {
	if secretDims == 0 {
		return math.NaN()
	}
	if unknownDims < 0 || unknownDims > secretDims {
		panic("core: unknown dims out of range")
	}
	f := float64(secretDims-unknownDims) / float64(secretDims)
	return -math.Log2((1 + f) / 2)
}

// GuessProbability is the per-bit guess probability corresponding to a
// reliability value: 2^(-r).
func GuessProbability(reliability float64) float64 {
	return math.Pow(2, -reliability)
}
