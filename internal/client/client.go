// Package client defines the unified key-access API every tier serves:
// one Client interface with two implementations — HTTP, here, over the
// /v1/sessions/{id} routes that the daemon, the coordinator and a
// cluster worker all serve, and the gate frame protocol
// (internal/gate.Client). The root thinair package re-exports the
// interface and constructors, so callers pick a tier by constructor and
// never hand-roll per-tier HTTP; the cluster tier's own worker client
// reads a worker's /v1 routes through HTTP too.
//
// Every implementation decodes error responses through the one error
// contract in internal/httpapi, so errors.Is works identically on every
// tier.
package client

import (
	"context"
	"io"

	"repro/internal/httpapi"
	"repro/internal/keypool"
)

// Client is the versioned key-access surface. Sessions are addressed by
// id; how the id was minted (daemon, coordinator) is the caller's
// business. All implementations are safe for concurrent use.
type Client interface {
	// Draw consumes and returns n bytes of key material. Drawn bytes
	// leave the pool permanently.
	Draw(ctx context.Context, session uint64, n int) ([]byte, error)
	// DrawN consumes n×count bytes in one round trip and splits them
	// into count keys of n bytes each (the slices may share one backing
	// array). n×count is capped at httpapi.MaxDrawBytes.
	DrawN(ctx context.Context, session uint64, n, count int) ([][]byte, error)
	// StreamRange reads length bytes at offset off of the session's key
	// stream. Every session's ranges are addressed: repeatable and
	// non-consuming (pad consumers own offset non-reuse).
	StreamRange(ctx context.Context, session uint64, off, length int64) ([]byte, error)
	// ReaderAt adapts one session's stream surface to io.ReaderAt.
	ReaderAt(session uint64) io.ReaderAt
	// Close releases the client's connections. Sessions stay up.
	Close() error
}

// Typed errors, re-exported from internal/httpapi, which defines each
// with its wire code, so callers (and the conformance suite) switch on
// one set regardless of transport: every implementation decodes error
// responses through httpapi.ErrorFromCode.
var (
	ErrNotFound    = httpapi.ErrClusterNotFound
	ErrOrphaned    = httpapi.ErrOrphaned
	ErrDraining    = httpapi.ErrDraining
	ErrDuplicate   = httpapi.ErrDuplicate
	ErrUnreachable = httpapi.ErrUnreachable
	ErrShutdown    = httpapi.ErrClusterShutdown
	ErrSaturated   = httpapi.ErrSaturated
	ErrExhausted   = keypool.ErrExhausted
	ErrClosed      = keypool.ErrClosed
	// ErrFailed marks a session that died permanently on its own —
	// distinct from ErrClosed (graceful, caller-initiated) so consumers
	// can tell session death from their own Close.
	ErrFailed = httpapi.ErrFailed

	// ErrBadRequest and ErrInternal cover parameter rejections and
	// unclassified server-side failures.
	ErrBadRequest = httpapi.ErrBadRequest
	ErrInternal   = httpapi.ErrInternal
)
