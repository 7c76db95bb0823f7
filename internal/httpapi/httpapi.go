// Package httpapi is the key-access contract every tier serves — the
// daemon's /v1 API, the coordinator's /v1 API, a cluster worker's /v1
// data plane and /ctl RPC, and the gate's frames: the error codes, their
// HTTP statuses and the typed errors behind them (errors.go, the one
// place that mapping is defined), the JSON error envelope, the draw
// response body, and the draw and stream-range parameter bounds.
package httpapi

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// Error codes: the machine-readable slugs carried in the /v1 error
// envelope and in the gate frame protocol's error responses. Every tier
// (daemon, coordinator, worker /ctl, gate) classifies its typed errors
// through the one table in errors.go, so a client can switch on the code
// without knowing which tier answered.
const (
	// CodeBadRequest rejects malformed parameters or bodies.
	CodeBadRequest = "bad_request"
	// CodeDraining rejects assignments to a worker mid-drain.
	CodeDraining = "draining"
	// CodeDuplicate rejects re-assigning a session id a worker already hosts.
	CodeDuplicate = "duplicate"
	// CodeSaturated signals the session/queue bound was hit — retry later.
	CodeSaturated = "saturated"
	// CodeExhausted signals the key pool is behind demand — retry after
	// the refresher catches up.
	CodeExhausted = "exhausted"
	// CodeClosed signals a gracefully closed (zeroized) pool — permanent,
	// but the closure was asked for.
	CodeClosed = "closed"
	// CodeFailed signals a session that died permanently on its own
	// (channel failure, refresh-abort budget exhausted) — permanent, and
	// unlike CodeClosed nobody asked for it. Clients stop retrying and
	// surface the death.
	CodeFailed = "failed"
	// CodeOrphaned signals the session lost its worker and reassignment
	// is in flight — retryable.
	CodeOrphaned = "orphaned"
	// CodeNotFound signals an unknown session id.
	CodeNotFound = "not_found"
	// CodeShutdown signals the tier is shutting down.
	CodeShutdown = "shutdown"
	// CodeUnreachable signals a transport-level failure reaching the
	// owning worker.
	CodeUnreachable = "unreachable"
	// CodeInternal is the fallback for unclassified server-side failures.
	CodeInternal = "internal"
)

// ErrorDetail is the inner object of the /v1 error envelope.
type ErrorDetail struct {
	// Code is one of the Code* slugs above.
	Code string `json:"code"`
	// Message is the human-readable error string.
	Message string `json:"message"`
}

// ErrorBody is the JSON error envelope shared by every HTTP surface:
//
//	{"error":{"code":"exhausted","message":"keypool: ..."}}
//
// Code is always present; clients dispatch on it rather than parsing
// Message or guessing from the HTTP status.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Error writes the error envelope with the given status and code. A
// returned error goes through WriteError instead; Error is for parameter
// rejections, which name CodeBadRequest themselves.
func Error(w http.ResponseWriter, status int, code string, err error) {
	WriteJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: err.Error()}})
}

// SessionID parses the {id} path value of a /v1/sessions/{id} route,
// writing the 400 itself when it is not a uint64.
func SessionID(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		Error(w, http.StatusBadRequest, CodeBadRequest, err)
		return 0, false
	}
	return id, true
}

// DrawResponse is the body of a successful draw on every HTTP tier.
type DrawResponse struct {
	Session uint64 `json:"session"`
	Bytes   int    `json:"bytes"`
	Key     string `json:"key"` // hex
}

// MaxDrawBytes caps one key draw (1 MiB).
const MaxDrawBytes = 1 << 20

// DrawBytes parses the ?bytes=N query of a draw request (default 32,
// capped at MaxDrawBytes), writing the 400 itself when invalid.
func DrawBytes(w http.ResponseWriter, r *http.Request) (int, bool) {
	n := 32
	if q := r.URL.Query().Get("bytes"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 || v > MaxDrawBytes {
			Error(w, http.StatusBadRequest, CodeBadRequest, errors.New("bytes must be in 1..1048576"))
			return 0, false
		}
		n = v
	}
	return n, true
}

// Stream-range parameter contract, shared by the service /stream endpoint
// and the cluster tier's routed variant.
const (
	// MaxStreamBytes caps one stream-range read (64 MiB). Ranges above it
	// are rejected rather than truncated — the client is addressing exact
	// offsets, so a silent short read would desynchronize pad consumers.
	MaxStreamBytes = 64 << 20
	// DefaultStreamBytes is the length when ?len is absent (64 KiB).
	DefaultStreamBytes = 64 << 10
)

// StreamChunk is the copy unit for stream-range bodies: large enough to
// amortize the per-write and flush overhead, small enough that
// time-to-first-byte stays a single block derivation.
const StreamChunk = 64 << 10

// streamChunks recycles StreamBody's StreamChunk copy buffers across
// requests.
var streamChunks = sync.Pool{New: func() any {
	b := make([]byte, StreamChunk)
	return &b
}}

// putStreamChunk clears the first used bytes of a chunk buffer — the key
// material it carried — and returns it to streamChunks.
func putStreamChunk(chunk *[]byte, used int) {
	clear((*chunk)[:used])
	streamChunks.Put(chunk)
}

// StreamBody writes the n-byte stream-range body from src as an
// application/octet-stream response with Content-Length n, flushing each
// chunk so the client's time-to-first-byte tracks the producer pipeline
// rather than the whole range. Declaring the exact length up front is the
// truncation guard MaxStreamBytes documents: if src fails mid-range, the
// handler returns with the declared length unsatisfied and the server
// aborts the connection, so the client sees an unexpected EOF — never a
// valid-looking body shorter than it asked for. Shared by the service
// /stream endpoint and the cluster tier's routed variant. Reports
// whether the full n bytes were written (false on abort — callers use
// it to label the request's outcome in metrics).
func StreamBody(w http.ResponseWriter, r *http.Request, src io.Reader, n int64) bool {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	bp := streamChunks.Get().(*[]byte)
	used := 0
	defer func() { putStreamChunk(bp, used) }()
	var written int64
	for written < n {
		c := *bp
		if rem := n - written; rem < int64(len(c)) {
			c = c[:rem]
		}
		// A Reader may use all of c as scratch, so all of it is cleared.
		used = max(used, len(c))
		m, rerr := src.Read(c)
		if m > 0 {
			written += int64(m)
			if _, werr := w.Write(c[:m]); werr != nil {
				return false // client went away
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return false // early io.EOF or source failure: abort, loudly short
		}
		select {
		case <-r.Context().Done():
			return false
		default:
		}
	}
	return true
}

// StreamRange parses the ?offset=&len= query of a stream-range read
// (offset defaults to 0, len to DefaultStreamBytes, capped at
// MaxStreamBytes), writing the 400 itself when invalid.
func StreamRange(w http.ResponseWriter, r *http.Request) (off, n int64, ok bool) {
	n = DefaultStreamBytes
	if q := r.URL.Query().Get("offset"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil || v < 0 {
			Error(w, http.StatusBadRequest, CodeBadRequest, errors.New("offset must be a non-negative integer"))
			return 0, 0, false
		}
		off = v
	}
	if q := r.URL.Query().Get("len"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil || v <= 0 || v > MaxStreamBytes {
			Error(w, http.StatusBadRequest, CodeBadRequest, errors.New("len must be in 1..67108864"))
			return 0, 0, false
		}
		n = v
	}
	return off, n, true
}
