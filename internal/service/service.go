// Package service is the long-lived daemon layer over the protocol
// engine: it runs many concurrent secret-agreement group sessions, each
// a deterministic keystream (internal/keystream) whose blocks derive on
// per-block broadcast buses (in-process channels or loopback UDP), and a
// key pool refilled from that stream in the background whenever draws
// push the pool below its watermark.
//
// The Service owns admission control, lifecycle (create / close /
// drain), and telemetry (per-session rounds, secret bytes, pool depth,
// Eve-bound estimates) exposed over HTTP by Handler. Admitted sessions
// wait in one FIFO run queue; each running session holds one of
// MaxSessions run slots on its own goroutine, which starts the queue head
// when the session ends.
// cmd/thinaird is the CLI front end.
package service

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
)

// The daemon's typed errors; internal/httpapi defines them with their
// wire codes and HTTP statuses.
var (
	// ErrSaturated is returned by Create when the admission queue is
	// full: the caller should back off and retry.
	ErrSaturated = httpapi.ErrSaturated
	// ErrShutdown is returned by Create after Shutdown has begun.
	ErrShutdown = httpapi.ErrServiceShutdown
	// ErrNotFound is returned when addressing an unknown session id.
	ErrNotFound = httpapi.ErrServiceNotFound
	// ErrFailed is returned when addressing a session that died
	// permanently on its own, as opposed to one the caller closed.
	ErrFailed = httpapi.ErrFailed
	// ErrDuplicate is returned by CreateID when a live session already
	// holds the id.
	ErrDuplicate = httpapi.ErrDuplicate
)

// Config parameterizes the daemon.
type Config struct {
	// MaxSessions bounds the number of concurrently RUNNING sessions
	// (the number of run slots). 0 means 64.
	MaxSessions int
	// MaxQueued bounds sessions admitted but waiting for a run slot;
	// beyond it Create fails fast with ErrSaturated. 0 means MaxSessions.
	MaxQueued int
	// DrainTimeout is how long a closing session may spend finishing its
	// in-flight block derivation before being cancelled hard. 0 means 10s.
	DrainTimeout time.Duration
	// Obs is the metrics registry the daemon's hot paths (HTTP draws,
	// stream ranges, the engine and keystream underneath) observe into.
	// Nil selects the process-wide obs.Default(). Cluster workers pass a
	// private registry so the coordinator's fleet merge never
	// double-counts in-process workers.
	Obs *obs.Registry
	// Spans is the ring buffer draw/stream span events are recorded to.
	// Nil selects obs.DefaultSpans().
	Spans *obs.SpanLog
}

func (c *Config) fillObs() {
	if c.Obs == nil {
		c.Obs = obs.Default()
	}
	if c.Spans == nil {
		c.Spans = obs.DefaultSpans()
	}
}

func (c *Config) fill() {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = c.MaxSessions
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
	}
}

// Service is the multi-session key-agreement daemon.
type Service struct {
	cfg   Config
	start time.Time

	// mu guards the registry, the run queue and the failure memory.
	// Nothing on the draw hot path touches it after the session lookup.
	mu       sync.Mutex
	sessions map[uint64]*Session
	nextID   uint64
	closed   bool
	// queue holds admitted sessions waiting for a run slot, in Create
	// order; running counts the slots held (at most MaxSessions).
	queue   []*Session
	running int
	// Failed sessions leave the registry immediately (no unbounded
	// accumulation in a long-lived daemon), but their ids are remembered
	// in a bounded FIFO so lookups can answer ErrFailed instead of a
	// bare ErrNotFound.
	failedIDs map[uint64]struct{}
	failedLog []uint64

	wg sync.WaitGroup // run goroutines

	created  atomic.Int64
	rejected atomic.Int64
	removed  atomic.Int64
	failed   atomic.Int64

	obs   *obs.Registry
	spans *obs.SpanLog
	// Draw / stream-range latency handles, resolved once per outcome so
	// the per-request cost is one enabled-check plus one Observe.
	drawOK, drawErr     *obs.Histogram
	streamOK, streamErr *obs.Histogram
}

// New starts a daemon with cfg.MaxSessions run slots. Call Shutdown to
// stop it.
func New(cfg Config) *Service {
	cfg.fill()
	cfg.fillObs()
	sv := &Service{
		cfg:       cfg,
		start:     time.Now(),
		sessions:  make(map[uint64]*Session),
		nextID:    1,
		failedIDs: make(map[uint64]struct{}),
		obs:       cfg.Obs,
		spans:     cfg.Spans,
	}
	drawLat := sv.obs.HistogramVec("thinaird_draw_seconds",
		"HTTP draw handler latency, by outcome.", obs.LatencyBuckets, "outcome")
	streamLat := sv.obs.HistogramVec("thinaird_stream_range_seconds",
		"HTTP stream-range handler latency, by outcome.", obs.LatencyBuckets, "outcome")
	sv.drawOK = drawLat.With("ok")
	sv.drawErr = drawLat.With("error")
	sv.streamOK = streamLat.With("ok")
	sv.streamErr = streamLat.With("error")
	return sv
}

// runLoop runs s, then each queue head in turn, on the run slot Create
// took for s. When a session's run returns, the same goroutine accounts a
// failure and forgets it before starting the next.
func (sv *Service) runLoop(s *Session) {
	defer sv.wg.Done()
	for ; s != nil; s = sv.next() {
		// The claim is a state CAS so a session closed while still queued
		// is skipped instead of spun up and immediately torn down.
		if !s.state.CompareAndSwap(int32(StateQueued), int32(StateRunning)) {
			continue
		}
		s.run()
		if s.State() == StateFailed {
			sv.failed.Add(1)
		}
		sv.forget(s)
	}
}

// next pops the queue head onto the caller's run slot, or releases the
// slot when the queue is empty.
func (sv *Service) next() *Session {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if len(sv.queue) == 0 {
		sv.running--
		return nil
	}
	s := sv.queue[0]
	sv.queue[0] = nil
	sv.queue = sv.queue[1:]
	return s
}

// dequeue removes a session closed while queued from the run queue, so
// it no longer holds a queue slot.
func (sv *Service) dequeue(s *Session) {
	sv.mu.Lock()
	if i := slices.Index(sv.queue, s); i >= 0 {
		sv.queue = slices.Delete(sv.queue, i, i+1)
	}
	sv.mu.Unlock()
}

// forget drops a finished session from the registry and remembers its
// id if it failed. It is idempotent — the explicit Close path and the
// runner both call it — and leaves alone an id that CreateID has
// already handed to a successor.
func (sv *Service) forget(s *Session) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.sessions[s.ID] != s {
		return
	}
	delete(sv.sessions, s.ID)
	sv.removed.Add(1)
	if s.State() == StateFailed {
		sv.noteFailed(s.ID)
	}
}

// Create admits a new session under the next free id. A spec with no
// Seed runs with one drawn by NewSeed, so no two unseeded sessions share
// a key stream. It returns immediately; the session starts at once if a
// run slot is free, or else when every session queued before it has
// started and a slot frees up (WaitReady blocks until its pool has key
// material). Create fails fast with ErrSaturated when the queue is full.
func (sv *Service) Create(spec SessionSpec) (*Session, error) {
	if spec.Seed == 0 {
		spec.Seed = NewSeed()
	}
	return sv.create(spec, 0, false)
}

// NewSeed draws a non-zero session seed from crypto/rand. The seed keys
// every byte of a session's stream, so it appears in no API response,
// metric, span or log.
func NewSeed() int64 {
	var b [8]byte
	for {
		rand.Read(b[:]) // never fails: an error crashes the program
		if seed := int64(binary.LittleEndian.Uint64(b[:])); seed != 0 {
			return seed
		}
	}
}

// CreateID admits a new session under a caller-chosen id — a cluster
// worker hosts each session under its cluster id. A live session under
// id answers ErrDuplicate; a closed or failed one still registered is
// replaced, and the id's failure memory is cleared. Admission is
// Create's. The spec's Seed is taken as given, zero included: the
// caller fixes it, so that every worker that hosts the id derives the
// same stream.
func (sv *Service) CreateID(id uint64, spec SessionSpec) (*Session, error) {
	return sv.create(spec, id, true)
}

func (sv *Service) create(spec SessionSpec, id uint64, explicit bool) (*Session, error) {
	if err := spec.fill(); err != nil {
		return nil, fmt.Errorf("%w: %w", httpapi.ErrBadRequest, err)
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed {
		return nil, ErrShutdown
	}
	if !explicit {
		id = sv.nextID
	}
	old, replacing := sv.sessions[id]
	if replacing {
		if st := old.State(); st != StateClosed && st != StateFailed {
			return nil, fmt.Errorf("%w: session %d", ErrDuplicate, id)
		}
	}
	// Admission is counted against live sessions (queued or running):
	// MaxSessions may run, MaxQueued more may wait; beyond that the
	// caller gets immediate backpressure.
	if live := sv.running + len(sv.queue); live >= sv.cfg.MaxSessions+sv.cfg.MaxQueued {
		sv.rejected.Add(1)
		return nil, fmt.Errorf("%w: %d live, %d running + %d queued allowed",
			ErrSaturated, live, sv.cfg.MaxSessions, sv.cfg.MaxQueued)
	}
	if replacing {
		sv.removed.Add(1) // the finished session gives way
	}
	// Above every id in use, so Create never lands on a CreateID session.
	sv.nextID = max(sv.nextID, id+1)
	sv.clearFailed(id)
	s := newSession(sv, id, spec, explicit)
	sv.sessions[id] = s
	sv.created.Add(1)
	if sv.running < sv.cfg.MaxSessions {
		sv.running++
		sv.wg.Add(1)
		go sv.runLoop(s)
	} else {
		sv.queue = append(sv.queue, s)
	}
	return s, nil
}

// Get returns a session by id.
func (sv *Service) Get(id uint64) (*Session, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if s, ok := sv.sessions[id]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("%w: %d", ErrNotFound, id)
}

// failedMemory bounds how many dead session ids the daemon remembers —
// enough to answer any client that raced the failure, small enough to
// never matter.
const failedMemory = 1024

// noteFailed remembers a dead session's id (caller holds sv.mu).
func (sv *Service) noteFailed(id uint64) {
	if _, ok := sv.failedIDs[id]; ok {
		return
	}
	sv.failedIDs[id] = struct{}{}
	sv.failedLog = append(sv.failedLog, id)
	if len(sv.failedLog) > failedMemory {
		delete(sv.failedIDs, sv.failedLog[0])
		sv.failedLog = sv.failedLog[1:]
	}
}

// clearFailed forgets a death when its id lives again (caller holds
// sv.mu).
func (sv *Service) clearFailed(id uint64) {
	if _, ok := sv.failedIDs[id]; !ok {
		return
	}
	delete(sv.failedIDs, id)
	sv.failedLog = slices.DeleteFunc(sv.failedLog, func(x uint64) bool { return x == id })
}

// Lookup is Get plus the failure memory: a session that died permanently
// resolves to ErrFailed instead of a bare ErrNotFound, so the HTTP and
// gate surfaces can tell clients to stop retrying. The returned error
// still matches ErrNotFound (the registry really has no such session).
func (sv *Service) Lookup(id uint64) (*Session, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if s, ok := sv.sessions[id]; ok {
		return s, nil
	}
	if _, ok := sv.failedIDs[id]; ok {
		return nil, fmt.Errorf("session %d: %w", id, errors.Join(ErrNotFound, ErrFailed))
	}
	return nil, fmt.Errorf("%w: %d", ErrNotFound, id)
}

// Sessions returns every session the daemon knows, sorted by id.
func (sv *Service) Sessions() []*Session {
	sv.mu.Lock()
	out := make([]*Session, 0, len(sv.sessions))
	for _, s := range sv.sessions {
		out = append(out, s)
	}
	sv.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close gracefully stops one session (draining its in-flight block) and
// forgets it.
func (sv *Service) Close(id uint64) error {
	s, err := sv.Get(id)
	if err != nil {
		return err
	}
	s.closeNow()
	sv.forget(s)
	return nil
}

// Shutdown stops the daemon: no new sessions are admitted, every session
// is asked to drain its in-flight block derivation, and once ctx expires any
// stragglers are cancelled hard. All run goroutines have exited and all
// pools are zeroized when Shutdown returns.
func (sv *Service) Shutdown(ctx context.Context) error {
	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		sv.wg.Wait()
		return nil
	}
	sv.closed = true
	sessions := make([]*Session, 0, len(sv.sessions))
	for _, s := range sv.sessions {
		sessions = append(sessions, s)
	}
	sv.mu.Unlock()

	for _, s := range sessions {
		s.signalClose()
	}
	drained := make(chan struct{})
	go func() {
		for _, s := range sessions {
			s.closeNow()
		}
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		for _, s := range sessions {
			s.cancel()
		}
		<-drained
	}
	sv.wg.Wait()
	return err
}

// Uptime reports how long the daemon has been running.
func (sv *Service) Uptime() time.Duration { return time.Since(sv.start) }

// Obs returns the daemon's metrics registry (never nil).
func (sv *Service) Obs() *obs.Registry { return sv.obs }

// Spans returns the daemon's span ring (never nil).
func (sv *Service) Spans() *obs.SpanLog { return sv.spans }
