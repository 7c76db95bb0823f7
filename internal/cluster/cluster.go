// Package cluster is the multi-process tier over internal/service: one
// coordinator process owns the session registry and the public HTTP API,
// and a fleet of worker processes — spawned and supervised by the
// coordinator — each run a bounded set of group sessions over UDPBus, a
// loopback socket per terminal with frames written straight between
// them, instead of goroutine-local buses.
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
// loopback HTTP under /ctl/:
//
//	GET    /ctl/healthz   heartbeat probe
//	GET    /ctl/stats     worker + per-session snapshot
//	GET    /ctl/metrics   registry snapshot for the fleet merge
//	GET    /ctl/trace     span events (?span= narrows)
//	POST   /ctl/assign    place a cluster session (id + spec)
//	POST   /ctl/drain     drain every session, zeroize pools
//
// Only these calls reset a worker's orphan clock. A worker's session data
// plane is its service's ordinary /v1/sessions/{id} routes, on cluster
// ids: the service holds each session under its cluster id, so draws,
// ranges, snapshots and closes from the coordinator or a gate address the
// same id a client does, and the worker's /metrics labels it so.
//
// cmd/thinaird exposes both halves as the `coordinator` and `worker`
// subcommands; ExecSpawner wires them together as real OS processes and
// InProcess hosts workers inside the coordinator process for tests and
// demos.
package cluster

import (
	"repro/internal/httpapi"
	"repro/internal/service"
)

// The cluster tier's typed errors, which WorkerClient decodes back from
// the control RPC so the coordinator's placement logic can tell them
// apart. internal/httpapi defines them with their wire codes and HTTP
// statuses.
var (
	// ErrUnreachable wraps transport-level failures talking to a worker
	// (dead process, closed socket, connection refused).
	ErrUnreachable = httpapi.ErrUnreachable
	// ErrDraining rejects assignments to a worker that has begun its
	// graceful drain.
	ErrDraining = httpapi.ErrDraining
	// ErrDuplicate rejects assigning a cluster session id a worker
	// already hosts.
	ErrDuplicate = httpapi.ErrDuplicate
	// ErrNotFound is returned when addressing an unknown cluster session.
	ErrNotFound = httpapi.ErrClusterNotFound
	// ErrNoWorkers is returned by Create/reassignment when no live worker
	// has capacity left.
	ErrNoWorkers = httpapi.ErrNoWorkers
	// ErrShutdown is returned after coordinator shutdown has begun.
	ErrShutdown = httpapi.ErrClusterShutdown
	// ErrOrphaned is returned for operations on a session that lost its
	// worker and has not been placed again yet — retryable.
	ErrOrphaned = httpapi.ErrOrphaned
	// ErrStreamFormat is why a session recorded in another stream format
	// fails at replay, and why a worker refuses an assignment in one.
	ErrStreamFormat = httpapi.ErrStreamFormat
)

// assignRequest is the wire body of POST /ctl/assign. Format is the
// stream format the session must derive (keystream.Format); a request
// without one asks for format 0.
type assignRequest struct {
	ID     uint64              `json:"id"`
	Spec   service.SessionSpec `json:"spec"`
	Format int                 `json:"format"`
}
