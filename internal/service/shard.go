package service

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// shard owns a disjoint partition of the daemon's sessions (id → shard
// by hash, see Service.shardOf). Each shard runs ONE dispatch goroutine
// feeding claimed sessions to executors over an unbuffered channel — the
// nano scheduler idiom: a channel send wakes exactly one parked
// executor, where the old global condvar pool paid a mutex herd on every
// enqueue. Executors spawn on demand (never retire) and are bounded
// globally by the Service token semaphore, so a hash-skewed load cannot
// starve: a shard that hashes hot simply grows more executors while cold
// shards hold none of the running budget.
//
// The shard also owns the arena pool its sessions' refreshers read
// keystream blocks into: a buffer never crosses a shard boundary, so it
// stays in the cache domain of the executors that touch it.
type shard struct {
	sv    *Service
	id    int
	label string // shard id as a string, for pprof labels and the gauge

	mu      sync.Mutex
	pending []*Session // FIFO of sessions waiting for dispatch

	wake chan struct{} // 1-buffered enqueue edge signal to the dispatcher
	work chan *Session // unbuffered dispatcher → executor handoff

	execs atomic.Int32 // executors spawned over the shard's lifetime
	wakes atomic.Int64 // executor wake events (exactly one per dispatch)

	depth *obs.Gauge // thinaird_shard_queue_depth{shard}

	arenaMu sync.Mutex
	arenas  []*sessionArena
}

func newShard(sv *Service, id int, label string, depth *obs.Gauge) *shard {
	return &shard{
		sv:    sv,
		id:    id,
		label: label,
		wake:  make(chan struct{}, 1),
		work:  make(chan *Session),
		depth: depth,
		// One arena exists from shard start; more are created only if
		// the shard actually runs that many sessions concurrently.
		arenas: []*sessionArena{{}},
	}
}

// enqueue appends a session to the shard's work queue and nudges the
// dispatcher. The signal channel is 1-buffered: a burst of creates
// collapses into one wakeup, and the dispatcher drains the whole queue
// per wake.
func (sh *shard) enqueue(s *Session) {
	sh.mu.Lock()
	sh.pending = append(sh.pending, s)
	depth := len(sh.pending)
	sh.mu.Unlock()
	sh.depth.Set(float64(depth))
	select {
	case sh.wake <- struct{}{}:
	default: // dispatcher already signaled
	}
}

// dropPending removes a closed-while-queued session from the FIFO so it
// cannot occupy a queue slot it no longer needs.
func (sh *shard) dropPending(s *Session) {
	sh.mu.Lock()
	for i, p := range sh.pending {
		if p == s {
			sh.pending = append(sh.pending[:i], sh.pending[i+1:]...)
			break
		}
	}
	depth := len(sh.pending)
	sh.mu.Unlock()
	sh.depth.Set(float64(depth))
}

// dispatch is the shard's single dispatcher goroutine. The pprof label
// makes per-shard CPU attribution fall out of any profile: dispatch and
// executor samples alike carry thinaird_shard=<id>.
func (sh *shard) dispatch() {
	defer sh.sv.wg.Done()
	pprof.Do(context.Background(), pprof.Labels("thinaird_shard", sh.label), sh.dispatchLoop)
}

func (sh *shard) dispatchLoop(context.Context) {
	for {
		select {
		case <-sh.wake:
		case <-sh.sv.stopc:
			return
		}
		for {
			sh.mu.Lock()
			if len(sh.pending) == 0 {
				sh.mu.Unlock()
				break
			}
			s := sh.pending[0]
			sh.pending[0] = nil
			sh.pending = sh.pending[1:]
			depth := len(sh.pending)
			sh.mu.Unlock()
			sh.depth.Set(float64(depth))
			// A running session holds one global token for its whole
			// life; acquiring it here (not in the executor) keeps queued
			// sessions FIFO across the admission bound.
			select {
			case <-sh.sv.tokens:
			case <-sh.sv.stopc:
				return
			}
			if !sh.handoff(s) {
				sh.sv.tokens <- struct{}{}
				return
			}
		}
	}
}

// handoff gives s to exactly one executor: an idle one if any is parked
// on the work channel, a newly spawned one otherwise. The channel send
// IS the wakeup — one receiver wakes, every other idle executor stays
// asleep (the property Service.wakeCount pins in tests; the old condvar
// pool had no such guarantee).
func (sh *shard) handoff(s *Session) bool {
	select {
	case sh.work <- s: // an executor was already parked
		return true
	default:
	}
	// No idle executor. Spawn one if the shard hasn't reached the global
	// running bound; holding a token guarantees at most MaxSessions-1
	// other sessions run, so if the cap is reached an executor here must
	// be about to idle and the blocking send below cannot deadlock.
	if int(sh.execs.Load()) < sh.sv.cfg.MaxSessions {
		sh.execs.Add(1)
		sh.sv.wg.Add(1)
		go sh.executor()
	}
	select {
	case sh.work <- s:
		return true
	case <-sh.sv.stopc:
		return false
	}
}

func (sh *shard) executor() {
	defer sh.sv.wg.Done()
	pprof.Do(context.Background(), pprof.Labels("thinaird_shard", sh.label), sh.executorLoop)
}

func (sh *shard) executorLoop(context.Context) {
	for {
		select {
		case s := <-sh.work:
			sh.wakes.Add(1)
			sh.runOne(s)
		case <-sh.sv.stopc:
			return
		}
	}
}

// runOne is one claimed session's whole life on this executor.
func (sh *shard) runOne(s *Session) {
	defer func() { sh.sv.tokens <- struct{}{} }()
	// The claim is a state CAS so a session closed while still queued is
	// skipped instead of spun up and immediately torn down.
	if !s.state.CompareAndSwap(int32(StateQueued), int32(StateRunning)) {
		return
	}
	arena := sh.getArena()
	s.arena = arena
	s.run()
	s.arena = nil
	sh.putArena(arena)
	if s.State() == StateFailed {
		sh.sv.failed.Add(1)
		sh.sv.noteFailed(s.ID)
	}
	sh.sv.forget(s.ID)
}

// queueDepth reports the shard's current dispatch backlog.
func (sh *shard) queueDepth() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.pending)
}

// sessionArena is the reusable per-shard block buffer a session's
// refresher reads keystream blocks into. It sizes itself to the largest
// block the shard has served and is then stable, so a long-lived shard
// refreshes pools without per-session allocation.
type sessionArena struct {
	buf []byte
}

// bytes returns an n-byte buffer backed by the arena.
func (a *sessionArena) bytes(n int) []byte {
	if cap(a.buf) < n {
		a.buf = make([]byte, n)
	}
	a.buf = a.buf[:n]
	return a.buf
}

func (sh *shard) getArena() *sessionArena {
	sh.arenaMu.Lock()
	defer sh.arenaMu.Unlock()
	if n := len(sh.arenas); n > 0 {
		a := sh.arenas[n-1]
		sh.arenas[n-1] = nil
		sh.arenas = sh.arenas[:n-1]
		return a
	}
	return &sessionArena{}
}

func (sh *shard) putArena(a *sessionArena) {
	// The block buffer may have carried key material through a failed
	// deposit; never park it dirty.
	zeroBytes(a.buf)
	sh.arenaMu.Lock()
	sh.arenas = append(sh.arenas, a)
	sh.arenaMu.Unlock()
}
