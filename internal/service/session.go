package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/keypool"
	"repro/internal/keystream"
	"repro/internal/sweep"
	"repro/internal/transport"
)

// SessionSpec describes one long-lived secret-agreement group session.
type SessionSpec struct {
	// Name labels the session in metrics and the HTTP API (optional).
	Name string
	// Terminals is the group size n (2..16).
	Terminals int
	// Erasure is the symmetric per-link data-plane loss probability.
	Erasure float64
	// XPerRound, PayloadBytes, Rounds configure each refresh batch
	// (Rounds protocol rounds per batch). Zero values select 90 / 16 / 2.
	XPerRound    int
	PayloadBytes int
	Rounds       int
	// Rotate rotates the leader role across rounds (recommended; §3.2).
	Rotate bool
	// UDP runs the group over a loopback-UDP bus instead of in-process
	// channels.
	UDP bool
	// Seed pins the session's randomness (payloads, erasures, refresh
	// batch seeds). Two sessions with the same spec and seed produce the
	// same key stream.
	Seed int64
	// AuthBootstrap, when non-empty, enables the active-Eve
	// authentication chain with this shared bootstrap secret.
	AuthBootstrap []byte
	// LowWater is the pool depth (bytes) below which the background
	// refresher runs more protocol rounds; TargetDepth is where it stops.
	// Zero values select 1024 and 2*LowWater.
	LowWater    int
	TargetDepth int
	// Observe attaches a wire-level eavesdropper to the session's bus and
	// exposes its certificate in the metrics.
	Observe bool
	// Streamed requests a stream-fed session on the cluster tier. The
	// coordinator normally forces UDP on every cluster session, which
	// makes the pool a consuming one-shot surface; Streamed keeps the
	// in-process bus so the worker hosts a deterministic, offset-
	// addressable keystream — ranges re-read byte-identical after a
	// reassignment, which the gate's stream surface depends on.
	// Incompatible with UDP, Observe and AuthBootstrap (those paths keep
	// the lockstep engine refresh and have no address space).
	Streamed bool
	// Timeout bounds each protocol wait inside a node (default 10s).
	Timeout time.Duration
	// StreamBlock is the keystream block size (bytes) for stream-fed
	// sessions (default 4096, scaled down to TargetDepth for shallow
	// pools). In-process sessions without an observer or
	// an auth chain are fed by an internal/keystream Stream — the pool
	// becomes one sequential consumer of it, and the random-access
	// /stream surface (Session.StreamRange) opens up; UDP, observed and
	// authenticated sessions keep the lockstep engine refresh path.
	StreamBlock int
}

func (sp *SessionSpec) fill() error {
	if sp.XPerRound == 0 {
		sp.XPerRound = 90
	}
	if sp.PayloadBytes == 0 {
		sp.PayloadBytes = 16
	}
	if sp.Rounds == 0 {
		sp.Rounds = 2
	}
	if sp.LowWater == 0 {
		sp.LowWater = 1024
	}
	if sp.TargetDepth == 0 {
		sp.TargetDepth = 2 * sp.LowWater
	}
	if sp.Timeout == 0 {
		sp.Timeout = 10 * time.Second
	}
	if sp.StreamBlock == 0 {
		// The block is the derivation quantum: a shallow pool must not pay
		// a multi-hundred-round block derivation to serve a few-hundred-byte
		// refill, so the default scales down to the pool depth. Kept a pure
		// function of the spec: a session re-derived from its spec on
		// another worker picks the same block size, hence the same bytes.
		sp.StreamBlock = 4096
		if sp.TargetDepth < sp.StreamBlock {
			sp.StreamBlock = sp.TargetDepth
		}
		if sp.StreamBlock < sp.PayloadBytes {
			sp.StreamBlock = sp.PayloadBytes
		}
	}
	if sp.StreamBlock < 0 {
		return fmt.Errorf("service: stream block %d", sp.StreamBlock)
	}
	if sp.Erasure < 0 || sp.Erasure >= 1 {
		return fmt.Errorf("service: erasure %v outside [0, 1)", sp.Erasure)
	}
	if sp.Streamed && (sp.UDP || sp.Observe || len(sp.AuthBootstrap) > 0) {
		return errors.New("service: streamed sessions cannot combine UDP, observers, or auth")
	}
	if sp.TargetDepth < sp.LowWater {
		return fmt.Errorf("service: target depth %d below low-water %d", sp.TargetDepth, sp.LowWater)
	}
	cfg := core.Config{
		Terminals: sp.Terminals, XPerRound: sp.XPerRound,
		PayloadBytes: sp.PayloadBytes, Rounds: sp.Rounds,
	}
	return cfg.Validate()
}

// State is a session's lifecycle phase.
type State int32

const (
	// StateQueued: admitted but waiting for a runner slot.
	StateQueued State = iota
	// StateRunning: bus up, background refresher active.
	StateRunning
	// StateFailed: terminated by errors (bus setup failure, too many
	// consecutive refresh failures, or an exhausted round space).
	StateFailed
	// StateClosed: torn down cleanly; the pool is zeroized.
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateFailed:
		return "failed"
	case StateClosed:
		return "closed"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// maxRefreshFailures is how many consecutive erroring refresh batches
// (timeouts, bus failures) move a session to StateFailed instead of
// hammering the bus forever. Aborted rounds (the estimator refusing to
// certify any secret, a normal outcome on a bad channel) get the much
// longer maxAbortStreak before the session is declared dead.
const (
	maxRefreshFailures = 5
	maxAbortStreak     = 64
)

// errNoSecret marks a refresh batch whose rounds all aborted.
var errNoSecret = errors.New("service: refresh batch produced no secret")

// Session is one running group: a broadcast bus, the goroutine-per-node
// protocol engine re-entered batch by batch, and a key pool topped up by a
// background refresher whenever draws push it below the watermark.
type Session struct {
	// ID doubles as the wire session id in message headers.
	ID   uint32
	spec SessionSpec

	svc  *Service
	pool *keypool.Pool
	// shard is the partition this session hashes to (assigned at Create,
	// never migrates); arena is the shard-owned scratch checked out by
	// the executor for the session's whole run (engine round scratch,
	// stream block buffer). arena is touched only by the executor
	// goroutine between checkout and return.
	shard *shard
	arena *sessionArena

	ctx     context.Context
	cancel  context.CancelFunc
	closing chan struct{} // Close() signal: finish the in-flight batch, then exit
	done    chan struct{} // closed when run() has returned
	ready   chan struct{} // closed after the first successful refresh

	closeOnce sync.Once
	readyOnce sync.Once

	// snapMu serializes teardown (pool zeroize + final state transition)
	// against Metrics snapshots: without it a /metrics scrape racing a
	// drain can observe a torn session — state still running, pool
	// already zeroized — because the two teardown writes are separate
	// atomics. Writers hold it for the teardown pair; snapshots hold the
	// read side.
	snapMu sync.RWMutex

	state     atomic.Int32
	rounds    atomic.Int64
	prodRound atomic.Int64
	secretOut atomic.Int64 // lifetime secret bytes deposited
	refreshes atomic.Int64 // refresh batches attempted
	refreshEr atomic.Int64 // refresh batches failed
	nextRound atomic.Int64 // FirstRound for the next batch

	errMu   sync.Mutex
	lastErr error

	obsMu sync.Mutex
	obs   *transport.Observer

	// strMu guards str, the keystream feeding a stream-fed session. It is
	// non-nil only while run() is live; readers (HTTP /stream, Metrics)
	// take the pointer under the lock and then use it lock-free — a
	// concurrent teardown closes the Stream, which wakes them with
	// keystream.ErrClosed instead of leaving them blocked.
	strMu sync.RWMutex
	str   *keystream.Stream
}

func newSession(svc *Service, id uint32, spec SessionSpec) *Session {
	ctx, cancel := context.WithCancel(context.Background())
	return &Session{
		ID:      id,
		spec:    spec,
		svc:     svc,
		pool:    keypool.New(),
		ctx:     ctx,
		cancel:  cancel,
		closing: make(chan struct{}),
		done:    make(chan struct{}),
		ready:   make(chan struct{}),
	}
}

// Spec returns the session's (filled) specification.
func (s *Session) Spec() SessionSpec { return s.spec }

// State returns the lifecycle phase.
func (s *Session) State() State { return State(s.state.Load()) }

// Pool exposes the session's key pool; Draw and DrawPad dispense
// never-reused key material from it.
func (s *Session) Pool() *keypool.Pool { return s.pool }

// ErrNoStream marks a session without a random-access keystream (UDP,
// observed or authenticated sessions use the lockstep refresh engine;
// their key material is pool-draw only).
var ErrNoStream = errors.New("service: session has no keystream")

// StreamFed reports whether this session's pool is fed by a keystream
// (and so Stream/StreamRange work on it).
func (s *Session) StreamFed() bool {
	return !s.spec.UDP && !s.spec.Observe && len(s.spec.AuthBootstrap) == 0
}

// Stream returns the session's keystream, or nil when the session is not
// stream-fed (or not running).
func (s *Session) Stream() *keystream.Stream {
	s.strMu.RLock()
	defer s.strMu.RUnlock()
	return s.str
}

// StreamRange returns a reader over key-material bytes [off, off+n) —
// the non-consuming, randomly addressable surface. Offsets address the
// session's deterministic keystream: reading a range twice returns the
// same bytes, and one-time-pad users own offset non-reuse.
func (s *Session) StreamRange(off, n int64) (io.Reader, error) {
	str := s.Stream()
	if str == nil {
		if !s.StreamFed() {
			return nil, ErrNoStream
		}
		return nil, keystream.ErrClosed
	}
	return str.RangeReader(off, n), nil
}

// KeyRange returns key-material bytes [off, off+n) as a reader — the
// range surface every tier serves. On a stream-fed session it is
// StreamRange: addressed and non-consuming. A pool-fed session has no
// address space, so at offset 0 the range is one consuming,
// all-or-nothing draw of n bytes, and any other offset fails with
// ErrNoStream.
func (s *Session) KeyRange(off, n int64) (io.Reader, error) {
	if s.StreamFed() {
		return s.StreamRange(off, n)
	}
	if off != 0 {
		return nil, fmt.Errorf("%w: offsets are only addressable on stream-fed sessions", ErrNoStream)
	}
	key, err := s.Draw(int(n))
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(key), nil
}

// Draw dispenses n bytes of one-time key material. It never runs
// protocol rounds inline: a short pool fails fast with
// keypool.ErrExhausted while the background refresher catches up.
func (s *Session) Draw(n int) ([]byte, error) { return s.pool.Draw(n) }

// DrawInto fills dst from the session's pool — the allocation-free draw
// path (callers own dst). All-or-nothing: on error dst is untouched and
// nothing is consumed.
func (s *Session) DrawInto(dst []byte) error { return s.pool.DrawInto(dst) }

func zeroBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// WaitReady blocks until the pool has been filled to its target depth
// for the first time, the session fails or closes, or the context
// expires.
func (s *Session) WaitReady(ctx context.Context) error {
	select {
	case <-s.ready:
		return nil
	case <-s.done:
		if err := s.LastErr(); err != nil {
			return fmt.Errorf("service: session %d closed before ready: %w", s.ID, err)
		}
		return fmt.Errorf("service: session %d closed before ready", s.ID)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// LastErr returns the most recent refresh error, if any.
func (s *Session) LastErr() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.lastErr
}

func (s *Session) setErr(err error) {
	s.errMu.Lock()
	s.lastErr = err
	s.errMu.Unlock()
}

// Close gracefully stops the session: the in-flight refresh batch drains
// (up to the service's drain timeout, after which it is cancelled hard),
// the bus is torn down and the pool zeroized. It blocks until teardown
// finishes and is safe to call multiple times.
func (s *Session) Close() { s.closeNow() }

func (s *Session) closeNow() {
	s.closeOnce.Do(func() { close(s.closing) })
	// A session closed while still queued is never claimed by a runner
	// (the runner's claim CAS fails), so finish its lifecycle here and
	// release its queue slot immediately.
	s.snapMu.Lock()
	queued := s.state.CompareAndSwap(int32(StateQueued), int32(StateClosed))
	if queued {
		s.pool.Zeroize()
	}
	s.snapMu.Unlock()
	if queued {
		s.shard.dropPending(s)
		s.svc.forget(s.ID)
		close(s.done)
		return
	}
	select {
	case <-s.done:
	case <-time.After(s.svc.cfg.DrainTimeout):
		s.cancel() // drain window elapsed: abort the in-flight batch
	}
	<-s.done
}

// signalClose requests shutdown without waiting (Service.Shutdown fans
// this out before waiting on all sessions).
func (s *Session) signalClose() {
	s.closeOnce.Do(func() { close(s.closing) })
}

func (s *Session) stopRequested() bool {
	select {
	case <-s.closing:
		return true
	case <-s.ctx.Done():
		return true
	default:
		return false
	}
}

// run is the session's whole life, executed on one Service runner slot.
func (s *Session) run() {
	defer close(s.done)
	defer func() {
		// The pool wipe and the final state transition are one atomic
		// step as far as Metrics is concerned (see snapMu).
		s.snapMu.Lock()
		s.pool.Zeroize()
		if State(s.state.Load()) != StateFailed {
			s.state.Store(int32(StateClosed))
		}
		s.snapMu.Unlock()
	}()
	defer s.cancel()
	if s.stopRequested() { // closed right after being claimed
		return
	}

	if s.StreamFed() {
		s.runStream()
		return
	}

	// The observer goroutine only exits once the bus is down (its Recv
	// channel closes), so the wait must be registered BEFORE bus.Close:
	// defers run last-in-first-out.
	obsDone := make(chan struct{})
	obsStarted := false
	defer func() {
		if obsStarted {
			<-obsDone
		}
	}()

	bus, err := s.newBus()
	if err != nil {
		s.setErr(err)
		s.state.Store(int32(StateFailed))
		return
	}
	defer bus.Close()

	// Attach every terminal endpoint once; refresh batches re-enter the
	// engine on these endpoints (a per-batch re-dial would leak sockets
	// on the UDP bus and re-register receivers mid-flight).
	eps := make([]transport.Endpoint, s.spec.Terminals)
	for i := range eps {
		if eps[i], err = bus.Endpoint(i); err != nil {
			s.setErr(err)
			s.state.Store(int32(StateFailed))
			return
		}
	}

	var chains []*auth.KeyChain
	if len(s.spec.AuthBootstrap) > 0 {
		chains = make([]*auth.KeyChain, s.spec.Terminals)
		for i := range chains {
			chains[i] = auth.NewKeyChain(s.spec.AuthBootstrap)
		}
	}

	// The observer taps the bus as node n, exactly like a real Eve.
	if s.spec.Observe {
		obsEp, err := bus.Endpoint(s.spec.Terminals)
		if err != nil {
			s.setErr(err)
			s.state.Store(int32(StateFailed))
			return
		}
		s.obsMu.Lock()
		s.obs = transport.NewObserver(s.ID)
		s.obsMu.Unlock()
		obsStarted = true
		go s.observe(obsEp, obsDone)
	}

	s.pool.SetLowWater(s.spec.LowWater)
	low := s.pool.LowWaterSignal()

	consecFail, abortStreak := 0, 0
	for {
		// Top the pool up to the target depth.
		for s.pool.Available() < s.spec.TargetDepth {
			if s.stopRequested() {
				return
			}
			err := s.refresh(eps, chains)
			if err != nil {
				if s.ctx.Err() != nil {
					return
				}
				s.refreshEr.Add(1)
				s.setErr(err)
				if errors.Is(err, errNoSecret) {
					abortStreak++
				} else {
					consecFail++
				}
				if consecFail >= maxRefreshFailures || abortStreak >= maxAbortStreak {
					s.state.Store(int32(StateFailed))
					return
				}
				continue
			}
			consecFail, abortStreak = 0, 0
		}
		s.readyOnce.Do(func() { close(s.ready) })
		select {
		case <-s.ctx.Done():
			return
		case <-s.closing:
			return
		case <-low:
		}
	}
}

// runStream is the stream-fed session body: a keystream.Stream derives
// blocks through the pipelined engine, and the pool becomes its first
// sequential consumer — every pool draw returns a prefix-exact slice of
// the same deterministic stream that StreamRange addresses by offset.
func (s *Session) runStream() {
	str, err := keystream.New(keystream.Config{
		Terminals:    s.spec.Terminals,
		XPerRound:    s.spec.XPerRound,
		PayloadBytes: s.spec.PayloadBytes,
		Erasure:      s.spec.Erasure,
		Seed:         s.spec.Seed,
		Rotate:       s.spec.Rotate,
		BlockSize:    s.spec.StreamBlock,
		Timeout:      s.spec.Timeout,
		Obs:          s.svc.obs,
	})
	if err != nil {
		s.setErr(err)
		s.state.Store(int32(StateFailed))
		return
	}
	s.strMu.Lock()
	s.str = str
	s.strMu.Unlock()
	defer func() {
		s.strMu.Lock()
		s.str = nil
		s.strMu.Unlock()
		str.Close() // wakes any in-flight StreamRange reader with ErrClosed
	}()

	s.pool.SetLowWater(s.spec.LowWater)
	low := s.pool.LowWaterSignal()
	var buf []byte
	if s.arena != nil {
		buf = s.arena.bytes(str.BlockSize())
	} else {
		buf = make([]byte, str.BlockSize())
	}
	consecFail := 0
	for {
		for s.pool.Available() < s.spec.TargetDepth {
			if s.stopRequested() {
				return
			}
			if err := s.refreshFromStream(str, buf); err != nil {
				if s.ctx.Err() != nil {
					return
				}
				s.refreshEr.Add(1)
				s.setErr(err)
				consecFail++
				if consecFail >= maxRefreshFailures {
					s.state.Store(int32(StateFailed))
					return
				}
				continue
			}
			consecFail = 0
		}
		s.readyOnce.Do(func() { close(s.ready) })
		select {
		case <-s.ctx.Done():
			return
		case <-s.closing:
			return
		case <-low:
		}
	}
}

// refreshFromStream deposits the next sequential stream block into the
// pool. A failed block derivation (dead channel, timeout) surfaces here
// and counts against the session's failure limit, exactly like a failed
// lockstep refresh batch.
func (s *Session) refreshFromStream(str *keystream.Stream, buf []byte) error {
	s.refreshes.Add(1)
	if _, err := io.ReadFull(str, buf); err != nil {
		return err
	}
	s.pool.Deposit(buf)
	s.secretOut.Add(int64(len(buf)))
	zeroBytes(buf) // the pool holds the only live copy now
	st := str.Stats()
	s.rounds.Store(st.Rounds)
	s.prodRound.Store(st.Productive)
	return nil
}

// refresh runs one batch of protocol rounds on the session's endpoints
// and deposits the agreed secret into the pool.
func (s *Session) refresh(eps []transport.Endpoint, chains []*auth.KeyChain) error {
	first := int(s.nextRound.Load())
	if first+s.spec.Rounds > 1<<16 {
		return fmt.Errorf("service: session %d exhausted the 16-bit round space", s.ID)
	}
	cfg := transport.NodeConfig{
		Config: core.Config{
			Terminals:    s.spec.Terminals,
			XPerRound:    s.spec.XPerRound,
			PayloadBytes: s.spec.PayloadBytes,
			Rounds:       s.spec.Rounds,
			Rotate:       s.spec.Rotate,
			// One deterministic stream per session: the x-payload rng is
			// already diversified per round inside the engine, so the seed
			// stays fixed while FirstRound advances.
			Seed: s.spec.Seed,
			Obs:  s.svc.obs,
		},
		Session:    s.ID,
		Timeout:    s.spec.Timeout,
		FirstRound: first,
	}
	if s.arena != nil {
		cfg.Scratches = s.arena.scratchesFor(s.spec.Terminals)
	}
	s.refreshes.Add(1)
	results, err := transport.RunGroupOn(s.ctx, eps, cfg, chains)
	if err != nil {
		return err
	}
	s.nextRound.Store(int64(first + s.spec.Rounds))
	s.rounds.Add(int64(results[0].Rounds))
	s.prodRound.Add(int64(results[0].Productive))
	secret := results[0].Secret
	if len(secret) == 0 {
		return errNoSecret
	}
	s.pool.Deposit(secret)
	s.secretOut.Add(int64(len(secret)))
	for _, r := range results { // the pool holds the only live copy now
		for i := range r.Secret {
			r.Secret[i] = 0
		}
	}
	return nil
}

// newBus builds the session's broadcast domain. The bus seed derives from
// the session seed so the erasure process is reproducible per session.
func (s *Session) newBus() (transport.Bus, error) {
	seed := sweep.Seed(s.spec.Seed, 1)
	if s.spec.UDP {
		return transport.NewUDPBus(s.spec.Erasure, seed)
	}
	return transport.NewChanBus(s.spec.Erasure, seed), nil
}

// observe consumes Eve's tap until the bus closes or the session stops.
// Observer itself is not goroutine-safe, so every Ingest and every metrics
// read goes through obsMu.
func (s *Session) observe(ep transport.Endpoint, done chan<- struct{}) {
	defer close(done)
	defer func() {
		s.obsMu.Lock()
		s.obs.Finish()
		s.obsMu.Unlock()
	}()
	for {
		select {
		case <-s.ctx.Done():
			return
		case env, ok := <-ep.Recv():
			if !ok {
				return
			}
			s.obsMu.Lock()
			s.obs.Ingest(env)
			s.obsMu.Unlock()
		}
	}
}

// eveCertificate snapshots the observer's accumulated certificate.
func (s *Session) eveCertificate() (secretDims, unknownDims int, ok bool) {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	if s.obs == nil {
		return 0, 0, false
	}
	return s.obs.SecretDims, s.obs.UnknownDims, true
}
