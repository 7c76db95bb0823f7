package service

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/keypool"
	"repro/internal/keystream"
	"repro/internal/transport"
)

// SessionSpec describes one long-lived secret-agreement group session.
// Every session is fed by a deterministic keystream: its bytes are a
// pure function of (Terminals, XPerRound, PayloadBytes, Erasure, Seed,
// Rotate, StreamBlock) — keystream.ReferenceBlock recomputes any block —
// whatever its UDP, Observe or AuthBootstrap setting, which choose only
// the bus each block's exchange runs over.
type SessionSpec struct {
	// Name labels the session in metrics and the HTTP API (optional).
	Name string
	// Terminals is the group size n (2..16).
	Terminals int
	// Erasure is the symmetric per-link data-plane loss probability.
	Erasure float64
	// XPerRound and PayloadBytes configure each protocol round. Zero
	// values select 90 / 16.
	XPerRound    int
	PayloadBytes int
	// Rounds is ignored: a session runs as many rounds as its keystream
	// blocks need.
	Rounds int
	// Rotate rotates the leader role across keystream blocks (§3.2).
	Rotate bool
	// UDP runs each block's exchange over a loopback-UDP bus instead of
	// in-process channels.
	UDP bool
	// Seed keys the session's key stream: its x-payloads (through
	// packet.XKey) and its erasure schedule. Zero, the default, has
	// Service.Create and the cluster coordinator draw a random non-zero
	// seed, which no response reveals. A pinned seed pins the stream, so
	// two sessions with the same spec and seed serve the same bytes: it
	// is a setting for tests, figures and benchmarks, not a secret.
	Seed int64
	// AuthBootstrap, when non-empty, authenticates every control frame
	// against an active Eve. Block b's tag key is this bootstrap's key
	// chain ratcheted once with (Seed, b); see blockChain.
	AuthBootstrap []byte
	// LowWater is the pool depth (bytes) below which the background
	// refresher reads more of the keystream; TargetDepth is where it
	// stops. Zero values select 1024 and 2*LowWater.
	LowWater    int
	TargetDepth int
	// Observe attaches a wire-level eavesdropper to each block's bus and
	// exposes its accumulated certificate in the metrics.
	Observe bool
	// Streamed keeps a cluster session off UDP, so its worker derives
	// its blocks with no bus, as for a plain session: the coordinator
	// otherwise forces UDP on every session it creates. The daemon
	// itself ignores it.
	Streamed bool
	// Timeout bounds one keystream block derivation (default 10s).
	Timeout time.Duration
	// StreamBlock is the keystream block size in bytes (default 4096,
	// scaled down to TargetDepth for shallow pools). The pool is one
	// sequential consumer of the keystream; Session.StreamRange addresses
	// it by offset.
	StreamBlock int
}

func (sp *SessionSpec) fill() error {
	if sp.XPerRound == 0 {
		sp.XPerRound = 90
	}
	if sp.PayloadBytes == 0 {
		sp.PayloadBytes = 16
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
	if sp.TargetDepth < sp.LowWater {
		return fmt.Errorf("service: target depth %d below low-water %d", sp.TargetDepth, sp.LowWater)
	}
	cfg := core.Config{
		Terminals: sp.Terminals, XPerRound: sp.XPerRound,
		PayloadBytes: sp.PayloadBytes, Rounds: 1,
	}
	return cfg.Validate()
}

// State is a session's lifecycle phase.
type State int32

const (
	// StateQueued: admitted but waiting for a run slot.
	StateQueued State = iota
	// StateRunning: keystream up, background refresher active.
	StateRunning
	// StateFailed: terminated by errors (keystream setup failure or too
	// many consecutive failed block derivations).
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

// maxRefreshFailures is how many consecutive failed block derivations
// (timeouts, bus failures, a channel too lossy to certify any secret)
// move a session to StateFailed instead of retrying forever.
const maxRefreshFailures = 5

// Session is one running group: a keystream deriving blocks on per-block
// buses through the pipelined engine, and a key pool topped up from it by
// a background refresher whenever draws push the pool below the
// watermark.
type Session struct {
	// ID names the session in the daemon's registry and HTTP API; on a
	// cluster worker it is the session's cluster id.
	ID   uint64
	spec SessionSpec
	// hop names the session's tier and id attribute in span events: a
	// session placed under its cluster id (CreateID) records as the
	// worker tier, one the daemon numbered (Create) as the edge.
	hop spanHop

	svc  *Service
	pool *keypool.Pool

	ctx     context.Context
	cancel  context.CancelFunc
	closing chan struct{} // Close() signal: finish the in-flight block, then exit
	done    chan struct{} // closed when run() has returned
	ready   chan struct{} // closed after the pool first reaches its target depth

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
	refreshes atomic.Int64 // pool refreshes (stream blocks) attempted
	refreshEr atomic.Int64 // pool refreshes failed

	errMu   sync.Mutex
	lastErr error

	// obsMu guards the Eve certificate the per-block observers of an
	// Observe session fold into as their buses close, and the record of
	// tapped blocks: every block below tappedBelow, and those in tapped.
	obsMu       sync.Mutex
	eveSecret   int
	eveUnknown  int
	tappedBelow int64
	tapped      map[int64]struct{}

	// strMu guards str, the session's keystream. It is non-nil only while
	// run() is live; readers (HTTP /stream, Metrics) take the pointer under
	// the lock and then use it lock-free — a concurrent teardown closes the
	// Stream, which wakes them with keystream.ErrClosed instead of leaving
	// them blocked.
	strMu sync.RWMutex
	str   *keystream.Stream
}

func newSession(svc *Service, id uint64, spec SessionSpec, cluster bool) *Session {
	ctx, cancel := context.WithCancel(context.Background())
	return &Session{
		ID:      id,
		spec:    spec,
		hop:     newSpanHop(id, cluster),
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

// Stream returns the session's keystream, or nil when the session is not
// running.
func (s *Session) Stream() *keystream.Stream {
	s.strMu.RLock()
	defer s.strMu.RUnlock()
	return s.str
}

// StreamRange returns a reader over key-material bytes [off, off+n) —
// the non-consuming, randomly addressable surface every tier serves.
// Offsets address the session's deterministic keystream: reading a range
// twice returns the same bytes, and one-time-pad users own offset
// non-reuse. Before the stream is up (queued, or running but its
// keystream not yet built) it fails with keypool.ErrExhausted, the retry
// signal; once the session is torn down, with keystream.ErrClosed.
func (s *Session) StreamRange(off, n int64) (io.Reader, error) {
	str := s.Stream()
	if str == nil {
		if st := s.State(); st == StateQueued || st == StateRunning {
			return nil, fmt.Errorf("%w: session %d keystream not started", keypool.ErrExhausted, s.ID)
		}
		return nil, keystream.ErrClosed
	}
	return str.RangeReader(off, n), nil
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

// Close gracefully stops the session: the in-flight block derivation
// drains (up to the service's drain timeout, after which it is cancelled
// hard), the keystream is closed and the pool zeroized. It blocks until
// teardown finishes and is safe to call multiple times.
func (s *Session) Close() { s.closeNow() }

func (s *Session) closeNow() {
	s.closeOnce.Do(func() { close(s.closing) })
	// A session closed while still queued is never claimed by a run slot
	// (the claim CAS fails), so finish its lifecycle here and release its
	// queue slot immediately.
	s.snapMu.Lock()
	queued := s.state.CompareAndSwap(int32(StateQueued), int32(StateClosed))
	if queued {
		s.pool.Zeroize()
	}
	s.snapMu.Unlock()
	if queued {
		s.svc.dequeue(s)
		s.svc.forget(s)
		close(s.done)
		return
	}
	select {
	case <-s.done:
	case <-time.After(s.svc.cfg.DrainTimeout):
		s.cancel() // drain window elapsed: abort the in-flight block
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

// run is the session's whole life, executed on one Service run slot: a
// keystream.Stream derives blocks through the pipelined engine, and the
// pool becomes its first sequential consumer — every pool draw returns a
// prefix-exact slice of the same deterministic stream that StreamRange
// addresses by offset.
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

	// A plain session's blocks need no bus: its leader derives them
	// alone. Only UDP, observed and authenticated sessions run members,
	// over blockBus.
	var newBus func(block, blockSeed int64, inbox int) (transport.Bus, error)
	if s.spec.UDP || s.spec.Observe || len(s.spec.AuthBootstrap) > 0 {
		newBus = s.blockBus
	}
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
		NewBus:       newBus,
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
	// One block buffer per run, zeroed on return: a failed read may leave
	// part of a block in it.
	buf := make([]byte, str.BlockSize())
	defer zeroBytes(buf)
	consecFail := 0
	for {
		for s.pool.Available() < s.spec.TargetDepth {
			if s.stopRequested() {
				return
			}
			if err := s.refresh(str, buf); err != nil {
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

// refresh deposits the next sequential stream block into the pool. A
// failed block derivation (dead channel, timeout) surfaces here and
// counts against the session's failure limit.
func (s *Session) refresh(str *keystream.Stream, buf []byte) error {
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

// blockBus builds block b's bus (keystream.Config.NewBus) for a UDP,
// observed or authenticated session: a UDP or in-process bus erasing by
// the block seed, every endpoint buffering the inbox frames the
// keystream asks for; when Observe is set and this is the block's first
// derivation, an eavesdropper's tap attached before the first frame;
// when AuthBootstrap is set, a sealing layer over the terminals'
// endpoints. The tap stays on the raw bus, so it overhears sealed
// control frames exactly as a real Eve would. None of it changes the
// block's bytes.
func (s *Session) blockBus(block, blockSeed int64, inbox int) (transport.Bus, error) {
	var bus transport.Bus
	if s.spec.UDP {
		udp, err := transport.NewUDPBus(s.spec.Erasure, blockSeed, inbox)
		if err != nil {
			return nil, err
		}
		bus = udp
	} else {
		bus = transport.NewChanBus(s.spec.Erasure, blockSeed, inbox)
	}
	if s.spec.Observe && s.claimTap(block) {
		tap, err := bus.Endpoint(s.spec.Terminals)
		if err != nil {
			bus.Close()
			return nil, err
		}
		ob := &observedBus{Bus: bus, done: make(chan struct{})}
		go s.observe(tap, keystream.BlockSession(s.spec.Seed, block), ob.done)
		bus = ob
	}
	if len(s.spec.AuthBootstrap) > 0 {
		bus = transport.NewSealedBus(bus, blockChain(s.spec.AuthBootstrap, s.spec.Seed, block), inbox)
	}
	return bus, nil
}

// blockChain is block b's control-plane key chain: the bootstrap's chain
// ratcheted once with (session seed, b). The session seed determines
// every key byte, so the tag key stays secret exactly as long as the key
// does; the bootstrap alone authenticates no block, and one block's chain
// says nothing about another's. The per-round ratchet of
// transport.RunGroup cannot apply here: the pipelined exchange sends
// round r+1's control frames before round r's secret exists.
func blockChain(bootstrap []byte, seed, block int64) *auth.KeyChain {
	kc := auth.NewKeyChain(bootstrap)
	var in [16]byte
	binary.BigEndian.PutUint64(in[:8], uint64(seed))
	binary.BigEndian.PutUint64(in[8:], uint64(block))
	kc.Ratchet(in[:])
	return kc
}

// claimTap reports whether block b's bus gets a tap: only the block's
// first derivation does. The keystream derives a block again after the
// LRU evicts it (a range re-read, a prefetch); tapping it again would
// count its certificate twice. A failed first derivation still counts
// what its tap overheard, and its retry is not tapped.
func (s *Session) claimTap(b int64) bool {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	if _, seen := s.tapped[b]; seen || b < s.tappedBelow {
		return false
	}
	if s.tapped == nil {
		s.tapped = make(map[int64]struct{})
	}
	s.tapped[b] = struct{}{}
	// Fold the contiguous tapped prefix into tappedBelow, so the
	// sequential pool refill keeps the set small.
	for {
		if _, ok := s.tapped[s.tappedBelow]; !ok {
			return true
		}
		delete(s.tapped, s.tappedBelow)
		s.tappedBelow++
	}
}

// observedBus is a block bus with an observer on its tap: Close returns
// once the observer has folded its certificate into the session's.
type observedBus struct {
	transport.Bus
	done chan struct{}
}

func (b *observedBus) Close() error {
	err := b.Bus.Close()
	<-b.done
	return err
}

// observe runs one block's observer over the tap until the bus closes,
// then adds its certificate to the session's under obsMu.
func (s *Session) observe(tap transport.Endpoint, session uint32, done chan<- struct{}) {
	defer close(done)
	o := transport.NewObserver(session)
	for env := range tap.Recv() {
		o.Ingest(env)
	}
	o.Finish()
	s.obsMu.Lock()
	s.eveSecret += o.SecretDims
	s.eveUnknown += o.UnknownDims
	s.obsMu.Unlock()
}

// eveCertificate snapshots the observers' accumulated certificate.
func (s *Session) eveCertificate() (secretDims, unknownDims int, ok bool) {
	if !s.spec.Observe {
		return 0, 0, false
	}
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	return s.eveSecret, s.eveUnknown, true
}
