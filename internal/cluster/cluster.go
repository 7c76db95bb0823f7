// Package cluster is the multi-process tier over internal/service: one
// coordinator process owns the session registry and the public HTTP API,
// and a fleet of worker processes — spawned and supervised by the
// coordinator — each run a bounded set of group sessions over UDPBus on
// real sockets instead of goroutine-local buses.
//
// The split follows the gate/room shape of clustered game servers: the
// coordinator is the gate (admission, placement, draw routing) and each
// worker is a room host (protocol rounds, key pools). The registry of
// session specs lives on the coordinator, not the workers, so losing a
// worker process loses only in-flight pool contents: the coordinator
// reassigns the dead worker's sessions to survivors, where the
// deterministic seed re-derives the same key stream from round zero.
//
// Control plane (coordinator -> worker) is a small RPC surface over
// loopback HTTP, mounted under /ctl/ next to the worker's ordinary
// service handler:
//
//	GET    /ctl/healthz                heartbeat probe
//	GET    /ctl/stats                  worker + per-session snapshot
//	POST   /ctl/assign                 place a cluster session (id + spec)
//	POST   /ctl/drain                  drain every session, zeroize pools
//	GET    /ctl/sessions/{cid}         one session's metrics
//	DELETE /ctl/sessions/{cid}         close one session
//	POST   /ctl/sessions/{cid}/draw    draw key material
//	GET    /ctl/sessions/{cid}/stream  bulk key material (?offset=&len=)
//
// cmd/thinaird exposes both halves as the `coordinator` and `worker`
// subcommands; ExecSpawner wires them together as real OS processes and
// InProcess hosts workers inside the coordinator process for tests and
// demos.
package cluster

import (
	"errors"
	"net/http"
	"strconv"

	"repro/internal/httpapi"
	"repro/internal/keypool"
	"repro/internal/service"
)

// Control-RPC error conditions, surfaced as typed errors by WorkerClient
// so the coordinator's placement logic can tell them apart.
var (
	// ErrUnreachable wraps transport-level failures talking to a worker
	// (dead process, closed socket, connection refused).
	ErrUnreachable = errors.New("cluster: worker unreachable")
	// ErrDraining rejects assignments to a worker that has begun its
	// graceful drain.
	ErrDraining = errors.New("cluster: worker draining")
	// ErrDuplicate rejects assigning a cluster session id a worker
	// already hosts.
	ErrDuplicate = errors.New("cluster: session already assigned")
	// ErrNotFound is returned when addressing an unknown cluster session.
	ErrNotFound = errors.New("cluster: no such session")
	// ErrNoWorkers is returned by Create/reassignment when no live worker
	// has capacity left.
	ErrNoWorkers = errors.New("cluster: no live worker with capacity")
	// ErrShutdown is returned after coordinator shutdown has begun.
	ErrShutdown = errors.New("cluster: shutting down")
	// ErrOrphaned is returned for operations on a session that lost its
	// worker and has not been placed again yet — retryable.
	ErrOrphaned = errors.New("cluster: session awaiting reassignment")
)

// assignRequest is the wire body of POST /ctl/assign.
type assignRequest struct {
	ID   uint64              `json:"id"`
	Spec service.SessionSpec `json:"spec"`
}

// drawResponse is the wire body of a successful draw (both tiers use the
// same shape as the single-process service API).
type drawResponse struct {
	Session uint64 `json:"session"`
	Bytes   int    `json:"bytes"`
	Key     string `json:"key"`
}

// errorBody is the shared wire error envelope
// ({"error":{"code","message"}}); the code slugs live in httpapi so the
// daemon, coordinator, worker /ctl and gate surfaces share one set.
type errorBody = httpapi.ErrorBody

const (
	codeDraining  = httpapi.CodeDraining
	codeDuplicate = httpapi.CodeDuplicate
	codeSaturated = httpapi.CodeSaturated
	codeExhausted = httpapi.CodeExhausted
	codeClosed    = httpapi.CodeClosed
	codeFailed    = httpapi.CodeFailed
	codeOrphaned  = httpapi.CodeOrphaned
	codeNotFound  = httpapi.CodeNotFound
	codeShutdown  = httpapi.CodeShutdown
)

// The wire helpers are shared with the single-process service API
// (internal/httpapi) so the two tiers' envelopes cannot diverge.
var (
	writeJSON   = httpapi.WriteJSON
	httpError   = httpapi.Error
	drawBytes   = httpapi.DrawBytes
	streamRange = httpapi.StreamRange
)

// sessionIDFromPath parses the {id} path value both tiers use to
// address cluster sessions.
func sessionIDFromPath(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	cid, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "", err)
		return 0, false
	}
	return cid, true
}

// writeDrawError maps a draw failure to its HTTP status — shared by the
// worker control RPC and the coordinator's public API so the mapping
// cannot diverge between tiers.
func writeDrawError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		httpError(w, http.StatusNotFound, codeNotFound, err)
	case errors.Is(err, ErrOrphaned):
		// The owner died moments ago; reassignment is in flight.
		httpError(w, http.StatusServiceUnavailable, codeOrphaned, err)
	case errors.Is(err, ErrUnreachable):
		httpError(w, http.StatusBadGateway, httpapi.CodeUnreachable, err)
	case errors.Is(err, service.ErrFailed):
		// Permanent session death — distinct from a caller-initiated
		// close, checked before ErrClosed because failed errors may wrap
		// the zeroized pool's sentinel too.
		httpError(w, http.StatusGone, codeFailed, err)
	case errors.Is(err, keypool.ErrClosed):
		httpError(w, http.StatusGone, codeClosed, err)
	case errors.Is(err, service.ErrNoStream):
		// A non-zero offset on a pool-fed session.
		httpError(w, http.StatusBadRequest, httpapi.CodeBadRequest, err)
	default:
		// Exhausted: the background refresher is behind; the client
		// retries after the pool recovers.
		httpError(w, http.StatusConflict, codeExhausted, err)
	}
}
