package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/keypool"
	"repro/internal/keystream"
)

// Typed errors of the key-access contract. The daemon (service), the
// cluster tier and the client each re-export the ones they raise under
// their own names, so errors.Is works on every tier with one set of
// values.
var (
	// ErrSaturated: the daemon's admission queue is full — back off and
	// retry.
	ErrSaturated = errors.New("service: session queue saturated")
	// ErrServiceShutdown: the daemon's Shutdown has begun.
	ErrServiceShutdown = errors.New("service: shutting down")
	// ErrServiceNotFound: an unknown daemon session id.
	ErrServiceNotFound = errors.New("service: no such session")
	// ErrFailed: the session died permanently on its own (dead channel,
	// refresh-failure budget exhausted), as opposed to one the caller
	// closed. Closed means "you asked for this"; failed means "the
	// session is gone and retrying will not bring it back".
	ErrFailed = errors.New("service: session failed")

	// ErrUnreachable wraps transport-level failures reaching a worker
	// (dead process, closed socket, connection refused).
	ErrUnreachable = errors.New("cluster: worker unreachable")
	// ErrDraining rejects assignments to a worker that has begun its
	// graceful drain.
	ErrDraining = errors.New("cluster: worker draining")
	// ErrDuplicate rejects assigning a cluster session id a worker
	// already hosts.
	ErrDuplicate = errors.New("cluster: session already assigned")
	// ErrClusterNotFound: an unknown cluster session id.
	ErrClusterNotFound = errors.New("cluster: no such session")
	// ErrNoWorkers: no live worker has capacity left.
	ErrNoWorkers = errors.New("cluster: no live worker with capacity")
	// ErrClusterShutdown: the coordinator's shutdown has begun.
	ErrClusterShutdown = errors.New("cluster: shutting down")
	// ErrOrphaned: the session lost its worker and has not been placed
	// again yet — retryable.
	ErrOrphaned = errors.New("cluster: session awaiting reassignment")

	// ErrStreamFormat: a session recorded, or an assignment asked for, in
	// a stream format this build does not derive (keystream.Format).
	// Deriving it anyway would serve other bytes at offsets already
	// read, so a replayed session fails with it and a worker refuses
	// such an assignment as a bad request. It travels as that code.
	ErrStreamFormat = errors.New("thinair: stream format not derived by this build")

	// ErrBadRequest: malformed parameters, bodies or session specs.
	ErrBadRequest = errors.New("thinair: bad request")
	// ErrInternal: an unclassified server-side failure.
	ErrInternal = errors.New("thinair: internal error")
)

// contract is the key-access error contract: each row's typed errors
// travel as its code and answer its HTTP status, on every tier. Rows are
// matched in order, and failed comes first: a failed session's errors
// may also wrap the zeroized pool's closed sentinel or the registry's
// not-found, and the permanent-death fact is the one the client needs.
// A code decodes to its row's first error.
var contract = []struct {
	code   string
	status int
	errs   []error
}{
	{CodeFailed, http.StatusGone, []error{ErrFailed}},
	{CodeDraining, http.StatusServiceUnavailable, []error{ErrDraining}},
	{CodeDuplicate, http.StatusConflict, []error{ErrDuplicate}},
	{CodeSaturated, http.StatusTooManyRequests, []error{ErrSaturated, ErrNoWorkers}},
	{CodeExhausted, http.StatusConflict, []error{keypool.ErrExhausted}},
	{CodeClosed, http.StatusGone, []error{keypool.ErrClosed, keystream.ErrClosed}},
	{CodeOrphaned, http.StatusServiceUnavailable, []error{ErrOrphaned}},
	{CodeNotFound, http.StatusNotFound, []error{ErrClusterNotFound, ErrServiceNotFound}},
	{CodeShutdown, http.StatusServiceUnavailable, []error{ErrClusterShutdown, ErrServiceShutdown}},
	{CodeUnreachable, http.StatusBadGateway, []error{ErrUnreachable}},
	{CodeBadRequest, http.StatusBadRequest, []error{ErrBadRequest}},
	{CodeInternal, http.StatusInternalServerError, []error{ErrInternal}},
}

// CodeOf classifies err: the wire code it travels as and the HTTP status
// it answers. An error no row classifies is internal/500.
func CodeOf(err error) (code string, status int) {
	for _, row := range contract {
		for _, e := range row.errs {
			if errors.Is(err, e) {
				return row.code, row.status
			}
		}
	}
	return CodeInternal, http.StatusInternalServerError
}

// WriteError writes err's error envelope with the status CodeOf gives.
func WriteError(w http.ResponseWriter, err error) {
	code, status := CodeOf(err)
	Error(w, status, code, err)
}

// ErrorFromCode maps one wire code (plus its human-readable message) to
// the typed error it stands for. Unknown codes — a newer server —
// degrade to an opaque error carrying both.
//
// A message that crossed several tiers (worker → coordinator → gate →
// client) already starts with typed errors' own texts, added at each
// hop: the row's first error, or another of its errors where a tier
// raised its own spelling of the fact (a daemon's not-found under the
// cluster's). Those prefixes are stripped before the row's first error
// is added again, so the mapping is idempotent and the final message
// carries the fact once.
func ErrorFromCode(code, msg string) error {
	if msg == "" {
		msg = code
	}
	for _, row := range contract {
		if row.code != code {
			continue
		}
		sentinel := row.errs[0]
		for stripped := true; stripped; {
			stripped = false
			for _, e := range row.errs {
				if prefix := e.Error(); strings.HasPrefix(msg, prefix) {
					msg = strings.TrimPrefix(strings.TrimPrefix(msg, prefix), ": ")
					stripped = true
				}
			}
		}
		if msg == "" {
			return fmt.Errorf("%w", sentinel)
		}
		return fmt.Errorf("%w: %s", sentinel, msg)
	}
	return fmt.Errorf("thinair: %s (code %q)", msg, code)
}

// DecodeError decodes a non-2xx response's error envelope into its typed
// error. A body with no message keeps the HTTP status as the message.
// The caller still owns (and closes) resp.Body.
func DecodeError(resp *http.Response) error {
	var eb ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	msg := eb.Error.Message
	if msg == "" {
		msg = resp.Status
	}
	return ErrorFromCode(eb.Error.Code, msg)
}
