// Package client defines the unified key-access API every tier serves:
// one Client interface with three implementations — daemon HTTP,
// coordinator HTTP (both here; after the envelope normalization the two
// speak the same /v1 shape) and the gate frame protocol
// (internal/gate.Client). The root thinair package re-exports the
// interface and constructors, so callers pick a tier by constructor and
// never hand-roll per-tier HTTP.
//
// The package also owns the canonical mapping between the /v1 error
// envelope's code slugs (httpapi.Code*) and the typed errors the tiers
// raise — every implementation decodes through ErrorFromCode, so
// errors.Is works identically against all three.
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
	"repro/internal/httpapi"
	"repro/internal/keypool"
	"repro/internal/keystream"
	"repro/internal/service"
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
	// stream. On stream-fed sessions the range is repeatable and
	// non-consuming (pad consumers own offset non-reuse); on pool-fed
	// sessions only off=0 is addressable and the read consumes.
	StreamRange(ctx context.Context, session uint64, off, length int64) ([]byte, error)
	// ReaderAt adapts one session's stream surface to io.ReaderAt.
	ReaderAt(session uint64) io.ReaderAt
	// Close releases the client's connections. Sessions stay up.
	Close() error
}

// Typed errors, re-exported from the tiers that mint them so callers
// (and the conformance suite) switch on one set regardless of transport.
var (
	ErrNotFound    = cluster.ErrNotFound
	ErrOrphaned    = cluster.ErrOrphaned
	ErrDraining    = cluster.ErrDraining
	ErrDuplicate   = cluster.ErrDuplicate
	ErrUnreachable = cluster.ErrUnreachable
	ErrShutdown    = cluster.ErrShutdown
	ErrSaturated   = service.ErrSaturated
	ErrExhausted   = keypool.ErrExhausted
	ErrClosed      = keypool.ErrClosed
	// ErrFailed marks a session that died permanently on its own —
	// distinct from ErrClosed (graceful, caller-initiated) so consumers
	// can tell session death from their own Close.
	ErrFailed = service.ErrFailed

	// ErrBadRequest and ErrInternal cover the two envelope codes with no
	// pre-existing typed error: parameter rejections and unclassified
	// server-side failures.
	ErrBadRequest = errors.New("thinair: bad request")
	ErrInternal   = errors.New("thinair: internal error")
)

// ErrorFromCode maps one envelope code slug (plus its human-readable
// message) to the typed error it stands for. Unknown slugs — a newer
// server — degrade to an opaque error carrying both.
//
// A message that crossed several tiers (worker → coordinator → gate →
// client) has already been prefixed with the sentinel's own text at
// each hop; wrap strips that prefix before re-adding it, so the mapping
// is idempotent and the final message carries the sentinel text once.
func ErrorFromCode(code, msg string) error {
	if msg == "" {
		msg = code
	}
	switch code {
	case httpapi.CodeBadRequest:
		return wrap(ErrBadRequest, msg)
	case httpapi.CodeDraining:
		return wrap(ErrDraining, msg)
	case httpapi.CodeDuplicate:
		return wrap(ErrDuplicate, msg)
	case httpapi.CodeSaturated:
		return wrap(ErrSaturated, msg)
	case httpapi.CodeExhausted:
		return wrap(ErrExhausted, msg)
	case httpapi.CodeClosed:
		return wrap(ErrClosed, msg)
	case httpapi.CodeFailed:
		return wrap(ErrFailed, msg)
	case httpapi.CodeOrphaned:
		return wrap(ErrOrphaned, msg)
	case httpapi.CodeNotFound:
		return wrap(ErrNotFound, msg)
	case httpapi.CodeShutdown:
		return wrap(ErrShutdown, msg)
	case httpapi.CodeUnreachable:
		return wrap(ErrUnreachable, msg)
	case httpapi.CodeInternal:
		return wrap(ErrInternal, msg)
	}
	return fmt.Errorf("thinair: %s (code %q)", msg, code)
}

func wrap(sentinel error, msg string) error {
	prefix := sentinel.Error()
	for strings.HasPrefix(msg, prefix) {
		msg = strings.TrimPrefix(strings.TrimPrefix(msg, prefix), ": ")
	}
	if msg == "" {
		return fmt.Errorf("%w", sentinel)
	}
	return fmt.Errorf("%w: %s", sentinel, msg)
}

// CodeFromError is the inverse mapping: the envelope code slug a typed
// error travels as. The gate's server side encodes through it, and the
// table-driven mapping test asserts the round trip is the identity.
func CodeFromError(err error) string {
	switch {
	// Failed outranks every other match: server-side failed errors may
	// also wrap ErrClosed (the dead session's pool really is zeroized)
	// or ErrNotFound (the daemon registry really dropped it), and the
	// permanent-death fact is the one the client needs.
	case errors.Is(err, ErrFailed):
		return httpapi.CodeFailed
	case errors.Is(err, ErrDraining):
		return httpapi.CodeDraining
	case errors.Is(err, ErrDuplicate):
		return httpapi.CodeDuplicate
	case errors.Is(err, ErrSaturated):
		return httpapi.CodeSaturated
	case errors.Is(err, ErrExhausted):
		return httpapi.CodeExhausted
	case errors.Is(err, ErrClosed), errors.Is(err, keystream.ErrClosed):
		// The pool's and the keystream's closed sentinels are distinct
		// types but the same wire fact: the session is gone for good.
		return httpapi.CodeClosed
	case errors.Is(err, ErrOrphaned):
		return httpapi.CodeOrphaned
	case errors.Is(err, ErrNotFound), errors.Is(err, service.ErrNotFound):
		// Likewise the cluster's and the daemon's unknown-session errors.
		return httpapi.CodeNotFound
	case errors.Is(err, ErrShutdown), errors.Is(err, service.ErrShutdown):
		return httpapi.CodeShutdown
	case errors.Is(err, ErrUnreachable):
		return httpapi.CodeUnreachable
	case errors.Is(err, ErrBadRequest), errors.Is(err, service.ErrNoStream):
		// The daemon's only bad-request sentinel: a non-zero offset on a
		// pool-fed session.
		return httpapi.CodeBadRequest
	}
	return httpapi.CodeInternal
}
