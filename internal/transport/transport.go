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
//   - UDPBus: one loopback UDP socket per endpoint, a send writing
//     straight to every other endpoint, with a small ARQ (sequence
//     numbers, per-receiver acknowledgments, retransmission by the
//     sender) providing the reliable control plane over actual sockets.
//     A send call's burst of frames travels in as few datagrams as fit,
//     each frame still erased by its own coin at each receiver.
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
//
// A send call takes a burst: frame, then each of more, in order. A bus
// may carry a burst in fewer transmissions than frames (UDPBus packs it
// into as few datagrams as its size cap allows), but each frame keeps
// its own erasure coin, reaches a receiver as its own Env, and counts
// its own bits in BitsSent. Every frame of a burst has left when the
// call returns: nothing waits in the endpoint for a later call, so a
// burst sent after another follows it. The first frame is a parameter
// of its own because a variadic argument to an interface method escapes
// to the heap: a one-frame call allocates nothing, and a caller with a
// longer burst passes a frame list it owns, as list[0], list[1:]...
type Endpoint interface {
	// ID returns the node index on the bus.
	ID() int
	// SendData broadcasts a burst of unreliable data frames; each
	// receiver gets each frame subject to the bus's erasure process.
	SendData(frame []byte, more ...[]byte) error
	// SendCtrl broadcasts a burst of reliable control frames, each
	// delivered to every other endpoint (the eavesdropper included, per
	// the paper's model), in order within the burst.
	SendCtrl(frame []byte, more ...[]byte) error
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

// frameAt returns frame i of a send call's burst: frame, then more.
func frameAt(frame []byte, more [][]byte, i int) []byte {
	if i == 0 {
		return frame
	}
	return more[i-1]
}

// coinKey returns the (round, seq) under which a data frame takes the
// erasure coin: an x-packet's own header fields, or one fixed key for any
// other frame.
func coinKey(frame []byte) (round, seq int) {
	if r, s, ok := wire.PeekX(frame); ok {
		return int(r), int(s)
	}
	return nonXRound, 0
}
