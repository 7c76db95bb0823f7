// Package service is the long-lived daemon layer over the protocol
// engine: it runs many concurrent secret-agreement group sessions, each
// a deterministic keystream (internal/keystream) whose blocks derive on
// per-block broadcast buses (in-process channels or loopback UDP), and a
// key pool refilled from that stream in the background whenever draws
// push the pool below its watermark.
//
// The Service owns admission control, lifecycle (create / close /
// drain), and telemetry (per-session rounds, secret bytes, pool depth,
// Eve-bound estimates) exposed over HTTP by Handler. Sessions are
// partitioned across shards (id → shard by hash): each shard runs one
// dispatch goroutine feeding on-demand executors over a channel handoff
// and owns the block buffers its sessions' refreshers read into, while a global token semaphore bounds total running sessions.
// cmd/thinaird is the CLI front end.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrSaturated is returned by Create when the admission queue is full:
// the caller should back off and retry, the daemon is at capacity.
var ErrSaturated = errors.New("service: session queue saturated")

// ErrShutdown is returned by Create after Shutdown has begun.
var ErrShutdown = errors.New("service: shutting down")

// ErrNotFound is returned when addressing an unknown session id.
var ErrNotFound = errors.New("service: no such session")

// ErrFailed is returned when addressing a session that died permanently
// on its own — dead channel, refresh-failure budget exhausted — as
// opposed to one the caller closed. The distinction matters to clients:
// closed means "you asked for this", failed means "the session is gone
// and retrying will not bring it back".
var ErrFailed = errors.New("service: session failed")

// Config parameterizes the daemon.
type Config struct {
	// MaxSessions bounds the number of concurrently RUNNING sessions
	// across all shards (the size of the global token semaphore).
	// 0 means 64.
	MaxSessions int
	// MaxQueued bounds sessions admitted but waiting for a runner slot;
	// beyond it Create fails fast with ErrSaturated. 0 means MaxSessions.
	MaxQueued int
	// Shards is the number of session partitions, each with its own
	// dispatch goroutine, work queue, and block buffer arenas. Sessions
	// hash to a shard by id and never migrate. 0 means GOMAXPROCS,
	// capped at MaxSessions.
	Shards int
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
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Shards > c.MaxSessions {
		c.Shards = c.MaxSessions
	}
}

// Service is the multi-session key-agreement daemon.
type Service struct {
	cfg   Config
	start time.Time

	mu       sync.Mutex // registry lock: sessions map, nextID, closed
	sessions map[uint32]*Session
	nextID   uint32
	closed   bool

	// shards partition the sessions: each owns a work queue, a dispatch
	// goroutine, on-demand executors, and block buffer arenas. Nothing
	// on the dispatch or draw hot paths touches sv.mu.
	shards []*shard
	// tokens is the global running-session semaphore: a dispatcher takes
	// one token per session before handing it to an executor, the
	// executor returns it when the session ends. Shards therefore share
	// one MaxSessions budget — a hash-skewed load grows one shard's
	// executor set instead of starving behind a fixed per-shard split.
	tokens chan struct{}
	stopc  chan struct{} // closed at the end of Shutdown; parks exit

	wg sync.WaitGroup // dispatcher + executor goroutines

	created  atomic.Int64
	rejected atomic.Int64
	removed  atomic.Int64
	failed   atomic.Int64

	// Failed sessions leave the registry immediately (no unbounded
	// accumulation in a long-lived daemon), but their ids are remembered
	// in a bounded FIFO so lookups can answer ErrFailed instead of a
	// bare ErrNotFound.
	failedMu  sync.Mutex
	failedIDs map[uint32]struct{}
	failedLog []uint32

	obs   *obs.Registry
	spans *obs.SpanLog
	// Draw / stream-range latency handles, resolved once per outcome so
	// the per-request cost is one enabled-check plus one Observe.
	drawOK, drawErr     *obs.Histogram
	streamOK, streamErr *obs.Histogram
}

// New starts a daemon with cfg.Shards dispatch shards sharing a
// cfg.MaxSessions running budget. Call Shutdown to stop it.
func New(cfg Config) *Service {
	cfg.fill()
	cfg.fillObs()
	sv := &Service{
		cfg:      cfg,
		start:    time.Now(),
		sessions: make(map[uint32]*Session),
		nextID:   1,
		stopc:    make(chan struct{}),
		tokens:   make(chan struct{}, cfg.MaxSessions),
		obs:      cfg.Obs,
		spans:    cfg.Spans,
	}
	for i := 0; i < cfg.MaxSessions; i++ {
		sv.tokens <- struct{}{}
	}
	drawLat := sv.obs.HistogramVec("thinaird_draw_seconds",
		"HTTP draw handler latency, by outcome.", obs.LatencyBuckets, "outcome")
	streamLat := sv.obs.HistogramVec("thinaird_stream_range_seconds",
		"HTTP stream-range handler latency, by outcome.", obs.LatencyBuckets, "outcome")
	sv.drawOK = drawLat.With("ok")
	sv.drawErr = drawLat.With("error")
	sv.streamOK = streamLat.With("ok")
	sv.streamErr = streamLat.With("error")
	depthVec := sv.obs.GaugeVec("thinaird_shard_queue_depth",
		"Sessions waiting in each shard's dispatch queue.", "shard")
	sv.shards = make([]*shard, cfg.Shards)
	sv.wg.Add(cfg.Shards)
	for i := range sv.shards {
		label := strconv.Itoa(i)
		sv.shards[i] = newShard(sv, i, label, depthVec.With(label))
		go sv.shards[i].dispatch()
	}
	return sv
}

// shardOf maps a session id to its owning shard. The hash is a fixed
// integer mix (not the identity) so dense sequential ids spread instead
// of striding, and it is a pure function of the id — the same session
// lands on the same shard on every lookup and every restart.
func (sv *Service) shardOf(id uint32) int {
	x := id
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return int(x % uint32(len(sv.shards)))
}

// wakeCount sums executor wake events across shards. Each dispatched
// session wakes exactly one executor (the handoff is an unbuffered
// channel send), so this equals sessions dispatched — the property the
// thundering-herd regression test pins.
func (sv *Service) wakeCount() int64 {
	var n int64
	for _, sh := range sv.shards {
		n += sh.wakes.Load()
	}
	return n
}

// forget drops a finished session from the registry (idempotent — the
// explicit Close path and the runner both call it).
func (sv *Service) forget(id uint32) {
	sv.mu.Lock()
	if _, ok := sv.sessions[id]; ok {
		delete(sv.sessions, id)
		sv.removed.Add(1)
	}
	sv.mu.Unlock()
}

// Create admits a new session. It returns immediately; the session starts
// when its shard dispatches it to an executor and a running token frees
// up (WaitReady blocks until its pool has key material). Create fails
// fast with ErrSaturated when the queue is full.
func (sv *Service) Create(spec SessionSpec) (*Session, error) {
	if err := spec.fill(); err != nil {
		return nil, err
	}
	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		return nil, ErrShutdown
	}
	// Admission is counted against live sessions (queued or running):
	// MaxSessions may run, MaxQueued more may wait; beyond that the
	// caller gets immediate backpressure.
	live := 0
	for _, s := range sv.sessions {
		if st := s.State(); st == StateQueued || st == StateRunning {
			live++
		}
	}
	if live >= sv.cfg.MaxSessions+sv.cfg.MaxQueued {
		sv.rejected.Add(1)
		sv.mu.Unlock()
		return nil, fmt.Errorf("%w: %d live, %d running + %d queued allowed",
			ErrSaturated, live, sv.cfg.MaxSessions, sv.cfg.MaxQueued)
	}
	id := sv.nextID
	s := newSession(sv, id, spec)
	s.shard = sv.shards[sv.shardOf(id)]
	sv.nextID++
	sv.sessions[id] = s
	sv.created.Add(1)
	sv.mu.Unlock()
	s.shard.enqueue(s)
	return s, nil
}

// Get returns a session by id.
func (sv *Service) Get(id uint32) (*Session, error) {
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

func (sv *Service) noteFailed(id uint32) {
	sv.failedMu.Lock()
	defer sv.failedMu.Unlock()
	if sv.failedIDs == nil {
		sv.failedIDs = make(map[uint32]struct{})
	}
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

// FailedRecently reports whether id belonged to a session that died
// permanently (within the daemon's bounded failure memory).
func (sv *Service) FailedRecently(id uint32) bool {
	sv.failedMu.Lock()
	defer sv.failedMu.Unlock()
	_, ok := sv.failedIDs[id]
	return ok
}

// Lookup is Get plus the failure memory: a session that died permanently
// resolves to ErrFailed instead of a bare ErrNotFound, so the HTTP and
// gate surfaces can tell clients to stop retrying. The returned error
// still matches ErrNotFound (the registry really has no such session).
func (sv *Service) Lookup(id uint32) (*Session, error) {
	s, err := sv.Get(id)
	if err != nil && sv.FailedRecently(id) {
		return nil, fmt.Errorf("session %d: %w", id, errors.Join(ErrNotFound, ErrFailed))
	}
	return s, err
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
func (sv *Service) Close(id uint32) error {
	s, err := sv.Get(id)
	if err != nil {
		return err
	}
	s.closeNow()
	sv.forget(id)
	return nil
}

// Shutdown stops the daemon: no new sessions are admitted, every session
// is asked to drain its in-flight block derivation, and once ctx expires any
// stragglers are cancelled hard. All dispatcher and executor goroutines
// have exited and all pools are zeroized when Shutdown returns.
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
	// Every session is down; release the parked dispatchers and
	// executors. Closing stopc only after the drain keeps executors
	// alive while their sessions finish.
	close(sv.stopc)
	sv.wg.Wait()
	return err
}

// Uptime reports how long the daemon has been running.
func (sv *Service) Uptime() time.Duration { return time.Since(sv.start) }

// Obs returns the daemon's metrics registry (never nil).
func (sv *Service) Obs() *obs.Registry { return sv.obs }

// Spans returns the daemon's span ring (never nil).
func (sv *Service) Spans() *obs.SpanLog { return sv.spans }
