// Package transport provides the message-passing runtime that turns the
// protocol's pure round computations (internal/core) into concurrent
// nodes, the way real wireless devices would run it: one goroutine per
// terminal exchanging wire-encoded frames over a broadcast Bus.
//
// Two Bus implementations are provided, and both erase by one coin:
// data frame → receiver `to` is delivered iff radio.Delivered(seed, round,
// seq, to, p), with (round, seq) peeked from the x-packet header. The
// outcome is a pure function of the frame and the receiver, so it does
// not depend on arrival order or on which other endpoints are attached,
// and a leader can compute every reception set from the schedule alone.
//
//   - ChanBus: an in-process broadcast domain backed by channels. Control
//     frames are reliable and overheard by everyone, including the
//     eavesdropper's tap.
//   - UDPBus: a loopback UDP hub with a small ARQ (sequence numbers,
//     acknowledgments, retransmission timers) providing the reliable
//     control plane over actual sockets.
//
// The paper's "reliably broadcasts" primitive maps to SendCtrl; a plain
// packet transmission maps to SendData.
package transport

import (
	"errors"

	"repro/internal/wire"
)

// Env is a frame delivered to an endpoint.
type Env struct {
	From     int    // sender node index
	Reliable bool   // true for control-plane frames
	Frame    []byte // wire-encoded message
}

// Endpoint is one node's attachment to a broadcast Bus.
type Endpoint interface {
	// ID returns the node index on the bus.
	ID() int
	// SendData broadcasts an unreliable data frame; each receiver gets it
	// subject to the bus's erasure process.
	SendData(frame []byte) error
	// SendCtrl broadcasts a reliable control frame, delivered to every
	// other endpoint (the eavesdropper included, per the paper's model).
	SendCtrl(frame []byte) error
	// Recv yields delivered frames. The channel is closed when the bus
	// shuts down, unless it is an inbox the bus's caller owns (see
	// NewChanBusOver): the bus then only stops delivering into it, and
	// its receiver must stop on a signal of its own.
	Recv() <-chan Env
	// Close detaches the endpoint.
	Close() error
}

// Bus is a broadcast domain with per-receiver erasures on the data plane.
type Bus interface {
	// Endpoint returns the endpoint for node id (creating it if needed).
	Endpoint(id int) (Endpoint, error)
	// BitsSent returns the total bits transmitted on the bus (efficiency
	// accounting).
	BitsSent() int64
	// ShedFrames returns the number of frames dropped because a
	// receiver's inbox was full.
	ShedFrames() int64
	// Close shuts the bus down and closes every endpoint channel it owns.
	Close() error
}

// DefaultInbox is the per-endpoint inbox depth, in frames, for buses that
// carry whole multi-round sessions (RunGroup and its callers), where no
// pipeline bounds how far a sender runs ahead of a receiver.
const DefaultInbox = 4096

// ErrClosed is returned when using a closed bus or endpoint.
var ErrClosed = errors.New("transport: closed")

// nonXRound keys the coin for data frames that are not x-packets. It lies
// outside the uint16 round space, so it never collides with an x-packet.
const nonXRound = 1 << 16

// coinKey returns the (round, seq) under which a data frame takes the
// erasure coin: an x-packet's own header fields, or one fixed key for any
// other frame.
func coinKey(frame []byte) (round, seq int) {
	if r, s, ok := wire.PeekX(frame); ok {
		return int(r), int(s)
	}
	return nonXRound, 0
}
