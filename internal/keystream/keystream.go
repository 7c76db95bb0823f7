// Package keystream exposes a session's key material as a randomly
// addressable, pipelined byte stream — the bulk-OTP workload surface the
// fixed-size pool draws of internal/keypool cannot serve efficiently.
//
// The stream is framed into fixed-size blocks. Each block is a
// deterministically re-derivable round batch: block index b and the
// stream seed fully determine the protocol rounds the block runs (their
// x-payloads AND their erasure outcomes, via the content-keyed coin
// radio.Delivered that both transport buses erase by), so random access at any offset derives exactly the blocks it
// needs, with no history. In the eestream idiom, blocks are produced by a
// pipelined engine and consumed on demand: a bounded worker pool derives
// blocks ahead of the read cursor into a bounded cache (backpressure
// instead of lockstep producers), and a slow or stalled group member
// inside one block's exchange never gates byte production (see engine.go
// for the soft reception-report deadline that makes that true).
//
// Contract: bytes are addressed, not consumed. Reading offset o twice
// returns the same bytes twice; one-time-pad consumers own offset
// non-reuse (the session key pool, which consumes the stream
// sequentially and zeroizes on draw, remains the never-reused interface).
package keystream

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
)

// ErrClosed is returned by reads on a closed stream.
var ErrClosed = errors.New("keystream: stream closed")

// Source derives the dst-sized block with the given index. Implementations
// must be deterministic in (index) and safe for concurrent calls with
// distinct indices.
type Source func(ctx *BlockContext, index int64, dst []byte) error

// Config parameterizes a Stream.
type Config struct {
	// Terminals, XPerRound, PayloadBytes and Erasure have their
	// core.Config / service.SessionSpec meanings; together with Seed,
	// Rotate and BlockSize they fully determine the stream's bytes (in
	// this build's Format).
	Terminals    int
	XPerRound    int
	PayloadBytes int
	Erasure      float64
	// Seed keys the stream: block b's x-payloads through
	// packet.XKey(Seed, b, round, leader), its erasure schedule through
	// BlockSeed. Every value is a seed here, zero included; it is
	// service.SessionSpec that has a zero seed drawn.
	Seed int64
	// Rotate rotates the leader role across blocks (block b is led by
	// terminal b mod Terminals). Within a block the leader is fixed, so a
	// block's pipeline never hands the transmit role to a member that may
	// be stalled mid-block.
	Rotate bool

	// BlockSize is the stream's framing unit in bytes (default 4096).
	// Rounds run until a block's secret covers BlockSize bytes; the tail
	// beyond it is framing discard, charged to the derivation, so block
	// boundaries stay offset-computable.
	BlockSize int
	// Workers bounds concurrent block derivations (default 4, capped at
	// GOMAXPROCS) and is the prefetch lookahead: the sequential Read
	// cursor and the ReadAt callers each have the workers derive the
	// Workers blocks they are predicted to read next, into a cache of
	// 2·Workers+2 blocks. A prefetch never evicts a block nobody has read
	// yet, so a cache full of unread blocks halts prefetch until a reader
	// consumes — backpressure, not lockstep.
	Workers int

	// AckWait bounds how long a block's leader waits for reception
	// reports each round (default 50ms); AckSlack is the extra grace
	// after the first report lands (default 2ms). Members that keep
	// missing the deadline stop being waited for (see memberHealth).
	AckWait  time.Duration
	AckSlack time.Duration
	// Timeout bounds one block derivation end to end (default 30s).
	Timeout time.Duration
	// MaxAbortRounds bounds consecutive secretless rounds before a block
	// derivation gives up (default 64) — the dead-channel escape hatch.
	MaxAbortRounds int

	// Obs, when non-nil, receives the stream's pipeline telemetry
	// (block-derive latency, exchange/compute phase timings, resident
	// block occupancy, cache and member-health counters) as registry
	// instruments. Nil disables — the pipeline then performs no clock
	// reads beyond what it already does.
	Obs *obs.Registry

	// NewBus, when non-nil, builds the broadcast bus for each block, and
	// the block's leader runs its rounds on it with the members
	// (sessions use it for UDP, an eavesdropper's tap or sealed control
	// frames; tests for an Injector). Nil means no bus: the leader
	// derives each block alone, and the member counters in Stats stay 0.
	// The block's bytes follow the schedule either way; members verify
	// them only if the bus erases by radio.Delivered keyed by blockSeed,
	// as both transport buses do.
	//
	// inbox is the per-endpoint inbox depth the block needs, derived from
	// the Config: (pipeline depth + 1) rounds of the most frames one round
	// sends an endpoint. Every endpoint the bus hands out, a tap's
	// included, should buffer that many frames. Frame lifetime: the block
	// reuses its frames' memory once the bus's Close has returned, so
	// Close must not return while any goroutine the bus started can still
	// read a delivered frame.
	NewBus func(block, blockSeed int64, inbox int) (transport.Bus, error)
	// Source, when non-nil, replaces the protocol engine as the block
	// deriver (tests and benchmarks use cheap GF(2^8) pad expansion; see
	// XOFSource8). The default derives blocks by running protocol rounds.
	Source Source
}

func (c *Config) fill() error {
	if c.BlockSize == 0 {
		c.BlockSize = 4096
	}
	if c.BlockSize < 1 {
		return fmt.Errorf("keystream: BlockSize=%d", c.BlockSize)
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Workers > runtime.GOMAXPROCS(0) {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.AckWait == 0 {
		c.AckWait = 50 * time.Millisecond
	}
	if c.AckSlack == 0 {
		c.AckSlack = 2 * time.Millisecond
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxAbortRounds == 0 {
		c.MaxAbortRounds = 64
	}
	if c.Source == nil {
		// The protocol deriver needs a valid group configuration.
		cc := core.Config{
			Terminals:    c.Terminals,
			XPerRound:    c.XPerRound,
			PayloadBytes: c.PayloadBytes,
			Rounds:       1,
		}
		if err := cc.Validate(); err != nil {
			return err
		}
		if c.Erasure < 0 || c.Erasure >= 1 {
			return fmt.Errorf("keystream: erasure %v outside [0, 1)", c.Erasure)
		}
		// Validate fills the protocol defaults the deriver relies on.
		c.XPerRound = cc.XPerRound
		c.PayloadBytes = cc.PayloadBytes
	}
	return nil
}

// Stats is a point-in-time snapshot of a stream's lifetime counters.
type Stats struct {
	// Blocks counts fully derived blocks; BlockErrors counts derivations
	// that failed (and were forgotten, so a later read retries).
	Blocks      int64 `json:"blocks"`
	BlockErrors int64 `json:"block_errors"`
	// Rounds / Productive / Aborted count protocol rounds the block
	// engine ran (zero when a custom Source is installed).
	Rounds     int64 `json:"rounds"`
	Productive int64 `json:"productive"`
	Aborted    int64 `json:"aborted"`
	// BytesRead counts bytes handed to readers (Read + ReadAt).
	BytesRead int64 `json:"bytes_read"`
	// VerifyOK / VerifyMismatch count per-round terminal agreement checks
	// (a mismatch means a member's live reception diverged from the
	// derivation schedule, e.g. frames shed while it was stalled). These,
	// AckTimeouts, SkippedWaits, ShedFrames and the Health counters are
	// member counters: only blocks derived over a NewBus bus move them,
	// since a stream without one runs no members.
	VerifyOK       int64 `json:"verify_ok"`
	VerifyMismatch int64 `json:"verify_mismatch"`
	// AckTimeouts counts rounds where at least one waited-for member
	// missed the report deadline; SkippedWaits counts rounds that did not
	// wait for a member already marked unresponsive.
	AckTimeouts  int64 `json:"ack_timeouts"`
	SkippedWaits int64 `json:"skipped_waits"`
	// ShedFrames counts frames dropped because a member's inbox
	// overflowed while it was stalled (see transport.Bus.ShedFrames).
	ShedFrames int64 `json:"shed_frames"`
	// CacheHits / CacheMisses classify block acquisitions: a hit found
	// the block already derived; a miss created or waited for it.
	// CacheEvictions counts idle derived blocks dropped by the LRU to
	// make room.
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	// Prefetches counts blocks the workers claimed because a read was
	// predicted to need them, rather than because a read demanded them.
	Prefetches int64 `json:"prefetches"`
	// HealthSkips counts report waits skipped because the member was
	// marked unresponsive; HealthProbes counts the periodic liveness
	// re-probes of such members (see memberHealth).
	HealthSkips  int64 `json:"health_skips"`
	HealthProbes int64 `json:"health_probes"`
}

// streamInstruments are the registry handles a stream observes into.
// The zero value (no registry plumbed) is fully usable: every obs
// instrument is nil-receiver safe, and timing sites skip their clock
// reads when the relevant histogram is nil.
type streamInstruments struct {
	blockLat    *obs.Histogram
	exchangeLat *obs.Histogram
	computeLat  *obs.Histogram
	resident    *obs.Gauge
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	cacheEvicts *obs.Counter
}

func newStreamInstruments(r *obs.Registry) streamInstruments {
	return streamInstruments{
		blockLat: r.Histogram("thinaird_keystream_block_derive_seconds",
			"Wall time to derive one keystream block.", obs.LatencyBuckets),
		exchangeLat: r.Histogram("thinaird_keystream_exchange_seconds",
			"Wall time of one round's plan and x-payload phase (over a bus, with its sends and report wait).", obs.LatencyBuckets),
		computeLat: r.Histogram("thinaird_keystream_compute_seconds",
			"Wall time of one productive round's elimination and secret copy.", obs.LatencyBuckets),
		resident: r.Gauge("thinaird_keystream_blocks_resident",
			"Blocks currently resident in the stream cache (pipeline occupancy)."),
		cacheHits: r.Counter("thinaird_keystream_cache_hits_total",
			"Block acquisitions that found the block already derived."),
		cacheMisses: r.Counter("thinaird_keystream_cache_misses_total",
			"Block acquisitions that created or waited for a derivation."),
		cacheEvicts: r.Counter("thinaird_keystream_cache_evictions_total",
			"Idle derived blocks evicted by the LRU to make room."),
	}
}

// blockState tracks one block through the cache.
type blockState struct {
	idx     int64
	running bool
	data    []byte // non-nil once derived
	err     error
	demand  int   // readers waiting on it
	lastUse int64 // cache clock, for LRU eviction
	read    bool  // handed to a reader at least once
}

// history is one access stream's prefetch prediction: the sequential
// Read cursor has one, and the ReadAt callers share another. Its most
// recent read covered blocks [first, last]; the next read is predicted
// to cover as many blocks again, right after it — unless the
// start-to-start jump exceeded the span twice in a row by the same
// amount. Then the reads are predicted every stride blocks, the lattice
// of an OTP consumer padding every Nth record.
type history struct {
	first, last int64
	jump        int64 // start-to-start jump from the read before
	stride      int64 // 0: sequential continuation
	// next is the high-water mark: every predicted block below it was
	// already claimed (or found resident) once, so a block evicted
	// unread is derived again only when a read demands it. A read that
	// starts before the previous one begins a new pass and lowers it.
	next int64
}

// note records a read over blocks [first, last]. Caller holds mu.
func (h *history) note(first, last int64) {
	jump := first - h.first
	h.stride = 0
	if jump > last-first+1 && jump == h.jump {
		h.stride = jump
	}
	if first < h.first {
		h.next = first
	}
	h.first, h.last, h.jump = first, last, jump
}

func (h *history) span() int64 { return h.last - h.first + 1 }

// block returns the i-th block h expects to be read: the most recent
// read's own blocks for i < span, then the predicted next reads'.
func (h *history) block(i int64) int64 {
	span := h.span()
	return h.first + i/span*max(h.stride, span) + i%span
}

// Stream is a pipelined, randomly addressable keystream. It implements
// io.Reader (a sequential cursor), io.ReaderAt, and io.Closer. All
// methods are safe for concurrent use.
type Stream struct {
	cfg Config

	mu     sync.Mutex
	cond   *sync.Cond
	blocks map[int64]*blockState
	tick   int64
	pos    int64   // sequential read cursor (bytes)
	seq    history // the Read cursor's accesses
	ranged history // the ReadAt callers' accesses
	closed bool

	readMu sync.Mutex // serializes sequential Reads (cursor integrity)

	wg     sync.WaitGroup
	arenas []*arena // one per worker, zeroed when it exits
	spare  [][]byte // zeroed block buffers for the next derivations, guarded by mu
	health *memberHealth
	stats  Stats       // cache-side counters, guarded by mu
	es     engineStats // derivation-side counters, atomic
	ins    streamInstruments
}

// New starts a stream: cfg.Workers derivation workers begin prefetching
// block 0 onward immediately. Close releases them.
func New(cfg Config) (*Stream, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Stream{
		cfg:    cfg,
		blocks: make(map[int64]*blockState),
		health: newMemberHealth(cfg.Terminals),
	}
	if cfg.Obs != nil {
		s.ins = newStreamInstruments(cfg.Obs)
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		a := newArena(&s.cfg)
		a.bc = BlockContext{cfg: &s.cfg, es: &s.es, health: s.health, ins: &s.ins, arena: a}
		s.arenas = append(s.arenas, a)
		go s.worker(a)
	}
	return s, nil
}

// BlockSize returns the stream's framing unit.
func (s *Stream) BlockSize() int { return s.cfg.BlockSize }

// Stats snapshots the stream's counters.
func (s *Stream) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.Rounds = s.es.rounds.Load()
	st.Productive = s.es.productive.Load()
	st.Aborted = s.es.aborted.Load()
	st.VerifyOK = s.es.verifyOK.Load()
	st.VerifyMismatch = s.es.verifyMismatch.Load()
	st.AckTimeouts = s.es.ackTimeouts.Load()
	st.SkippedWaits = s.es.skippedWaits.Load()
	st.ShedFrames = s.es.shed.Load()
	st.HealthSkips, st.HealthProbes = s.health.totals()
	return st
}

// worker derives blocks until the stream closes: demanded blocks first
// (lowest index — a waiting reader), then the blocks each history
// predicts, bounded by the cache budget. Every derivation runs over the
// worker's arena a, which it zeroes on exit.
func (s *Stream) worker(a *arena) {
	defer s.wg.Done()
	defer a.zero()
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return
		}
		bs := s.pickNext()
		if bs == nil {
			s.cond.Wait()
			continue
		}
		bs.running = true
		data := s.buffer()
		s.mu.Unlock()

		timed := s.ins.blockLat != nil
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		err := s.derive(a, bs.idx, data)
		if timed {
			s.ins.blockLat.ObserveSince(t0)
		}

		s.mu.Lock()
		bs.running = false
		if s.closed {
			zero(data)
			s.mu.Unlock()
			return
		}
		if err != nil {
			// A failed derivation may have written part of the block's
			// secret before it stopped.
			zero(data)
			s.spare = append(s.spare, data)
			s.stats.BlockErrors++
			bs.err = err
			// Hand the error to the readers currently waiting, then forget
			// the block so the next acquisition re-derives it (transient
			// stalls must not poison an offset forever).
			delete(s.blocks, bs.idx)
			s.ins.resident.Set(float64(len(s.blocks)))
		} else {
			s.stats.Blocks++
			bs.data = data
			bs.lastUse = s.nextTick()
		}
		s.cond.Broadcast()
	}
}

// buffer returns a zeroed block buffer: one an eviction or a failed
// derivation left behind, or a fresh one. Caller holds mu.
func (s *Stream) buffer() []byte {
	if n := len(s.spare); n > 0 {
		b := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return b
	}
	return make([]byte, s.cfg.BlockSize)
}

// pickNext chooses the next block to derive. Caller holds mu.
func (s *Stream) pickNext() *blockState {
	// Demanded blocks first: a reader is blocked on them.
	var best *blockState
	for _, bs := range s.blocks {
		if bs.demand > 0 && !bs.running && bs.data == nil && bs.err == nil {
			if best == nil || bs.idx < best.idx {
				best = bs
			}
		}
	}
	if best != nil {
		return best
	}
	if bs := s.prefetch(&s.ranged); bs != nil {
		return bs
	}
	return s.prefetch(&s.seq)
}

// prefetch claims the first block h predicts that it has not claimed
// before and that is not resident: within the most recent read, then up
// to Workers blocks past it. It returns nil when there is none, or when
// the cache holds no room for it (backpressure). Caller holds mu.
func (s *Stream) prefetch(h *history) *blockState {
	for i := int64(0); i < h.span()+int64(s.cfg.Workers); i++ {
		idx := h.block(i)
		if idx < h.next {
			continue
		}
		if _, ok := s.blocks[idx]; !ok {
			if !s.makeRoom(true) {
				return nil
			}
			h.next = idx + 1
			s.stats.Prefetches++
			return s.claim(idx)
		}
		h.next = idx + 1
	}
	return nil
}

// claim registers an empty block state for idx. Caller holds mu and has
// already made room.
func (s *Stream) claim(idx int64) *blockState {
	bs := &blockState{idx: idx}
	s.blocks[idx] = bs
	s.ins.resident.Set(float64(len(s.blocks)))
	return bs
}

// makeRoom evicts the least-recently-used idle derived block if the cache
// (2·Workers+2 blocks) is full. A prefetch may evict only a block some
// reader has read, so one prediction never pushes out another before it
// is read; a demand read may evict any idle block. Returns false when
// nothing can be evicted. Caller holds mu.
func (s *Stream) makeRoom(prefetch bool) bool {
	if len(s.blocks) < 2*s.cfg.Workers+2 {
		return true
	}
	var victim *blockState
	for _, bs := range s.blocks {
		if bs.data == nil || bs.demand > 0 || bs.running || (prefetch && !bs.read) {
			continue
		}
		if victim == nil || bs.lastUse < victim.lastUse {
			victim = bs
		}
	}
	if victim == nil {
		return false
	}
	zero(victim.data)
	s.spare = append(s.spare, victim.data)
	delete(s.blocks, victim.idx)
	s.stats.CacheEvictions++
	s.ins.cacheEvicts.Inc()
	s.ins.resident.Set(float64(len(s.blocks)))
	return true
}

func (s *Stream) nextTick() int64 {
	s.tick++
	return s.tick
}

// acquire blocks until block idx is derived (or fails, or the stream
// closes) and returns its bytes. The caller must release() when done
// copying.
func (s *Stream) acquire(idx int64) (*blockState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	classified := false // hit/miss is judged on the first look only
	for {
		if s.closed {
			return nil, ErrClosed
		}
		bs, ok := s.blocks[idx]
		if !classified {
			classified = true
			if ok && bs.data != nil {
				s.stats.CacheHits++
				s.ins.cacheHits.Inc()
			} else {
				s.stats.CacheMisses++
				s.ins.cacheMisses.Inc()
			}
		}
		if !ok {
			if !s.makeRoom(false) {
				// Every cache slot is a live (demanded or running) block.
				// Wait for one to free rather than overcommitting memory.
				s.cond.Wait()
				continue
			}
			bs = s.claim(idx)
		}
		if bs.err != nil {
			return nil, bs.err
		}
		if bs.data != nil {
			bs.demand++
			bs.lastUse = s.nextTick()
			bs.read = true
			return bs, nil
		}
		bs.demand++
		s.cond.Broadcast() // a worker may be idle
		s.cond.Wait()
		bs.demand--
		// Loop: re-look the block up — a failed derivation deletes it.
		if bs.err != nil {
			return nil, bs.err
		}
	}
}

func (s *Stream) release(bs *blockState) {
	s.mu.Lock()
	bs.demand--
	if s.closed && bs.demand == 0 {
		// Close skipped this block because a reader was still copying from
		// it; the last release zeroizes on its behalf.
		zero(bs.data)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// ReadAt implements io.ReaderAt: it fills p from stream offset off,
// deriving exactly the blocks the range covers. The stream is unbounded,
// so ReadAt never returns io.EOF for in-range offsets; short reads only
// happen on error.
func (s *Stream) ReadAt(p []byte, off int64) (int, error) {
	return s.readAt(p, off, &s.ranged)
}

// readAt fills p from offset off and records the read in h, whose
// prediction the workers follow from then on.
func (s *Stream) readAt(p []byte, off int64, h *history) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("keystream: negative offset %d", off)
	}
	bsz := int64(s.cfg.BlockSize)
	s.mu.Lock()
	first := off / bsz
	h.note(first, max(first, (off+int64(len(p))-1)/bsz))
	s.cond.Broadcast() // wake idle workers onto the new prediction
	s.mu.Unlock()
	n := 0
	for n < len(p) {
		idx := (off + int64(n)) / bsz
		in := int((off + int64(n)) % bsz)
		bs, err := s.acquire(idx)
		if err != nil {
			return n, err
		}
		c := copy(p[n:], bs.data[in:])
		s.release(bs)
		n += c
	}
	s.mu.Lock()
	s.stats.BytesRead += int64(n)
	s.mu.Unlock()
	return n, nil
}

// Read implements io.Reader over the stream's sequential cursor. It
// returns at most one block per call (callers needing exact lengths use
// io.ReadFull, or ReadAt).
func (s *Stream) Read(p []byte) (int, error) {
	s.readMu.Lock()
	defer s.readMu.Unlock()
	s.mu.Lock()
	pos := s.pos
	s.mu.Unlock()
	bsz := int64(s.cfg.BlockSize)
	// Clamp to the current block so the cursor advances block by block —
	// each Read moves the cursor's prediction one block on.
	max := int(bsz - pos%bsz)
	if len(p) > max {
		p = p[:max]
	}
	n, err := s.readAt(p, pos, &s.seq)
	s.mu.Lock()
	s.pos = pos + int64(n)
	s.mu.Unlock()
	return n, err
}

// RangeReader returns an io.Reader over [off, off+n): the chunked HTTP
// endpoint's backing. Reading it derives blocks on demand.
func (s *Stream) RangeReader(off, n int64) io.Reader {
	return io.NewSectionReader(s, off, n)
}

// Close stops the workers, wakes every blocked reader with ErrClosed and
// zeroizes the cached blocks. Safe to call multiple times.
func (s *Stream) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for idx, bs := range s.blocks {
		// A reader with the block acquired (demand > 0) copies from
		// bs.data outside mu; zeroizing under it would hand that reader
		// silently zeroed key material with a nil error. Leave held blocks
		// to release(), which zeroizes when the last reader lets go.
		if bs.demand == 0 {
			zero(bs.data)
		}
		delete(s.blocks, idx)
	}
	s.ins.resident.Set(float64(len(s.blocks)))
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
