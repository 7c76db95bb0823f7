package keystream

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// countingBus counts the x-packet frames sent on every block bus a stream
// creates.
type countingBus struct {
	transport.Bus
	x *atomic.Int64
}

func (b countingBus) Endpoint(id int) (transport.Endpoint, error) {
	ep, err := b.Bus.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return countingEndpoint{Endpoint: ep, x: b.x}, nil
}

type countingEndpoint struct {
	transport.Endpoint
	x *atomic.Int64
}

func (e countingEndpoint) SendData(frame []byte, more ...[]byte) error {
	for _, f := range append([][]byte{frame}, more...) {
		if m, err := wire.Unmarshal(f); err == nil && m.Hdr().Type == wire.TypeX {
			e.x.Add(1)
		}
	}
	return e.Endpoint.SendData(frame, more...)
}

// TestExchangeRunsOnlyNeededRounds: the leader broadcasts exactly the
// rounds it computes — it plans each round from the schedule and stops
// once the secret covers the block, running no round that is then
// thrown away.
func TestExchangeRunsOnlyNeededRounds(t *testing.T) {
	cfg := protoCfg(11)
	var x atomic.Int64
	cfg.NewBus = func(_, blockSeed int64, inbox int) (transport.Bus, error) {
		return countingBus{Bus: transport.NewChanBus(cfg.Erasure, blockSeed, inbox), x: &x}, nil
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8*cfg.BlockSize)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	s.Close() // waits for in-flight derivations to finish
	st := s.Stats()
	if st.BlockErrors != 0 {
		t.Fatalf("block errors: %+v", st)
	}
	if want := int64(cfg.XPerRound) * st.Rounds; x.Load() != want {
		t.Fatalf("%d x frames sent for %d computed rounds over %d blocks, want XPerRound × Rounds = %d",
			x.Load(), st.Rounds, st.Blocks, want)
	}
}

// TestNoPrefetchChurn: prefetch derives each predicted block once, at
// every worker count. Two shapes: a session pool's stream — a short
// prefix drained through Read, then contiguous two-block ranges far ahead
// while the cursor idles — may derive the ranges' blocks plus one
// lookahead (Workers blocks) past the last; a sequential Read sweep may
// derive the blocks it reads plus one lookahead. A prediction the LRU
// evicts unread and the workers then derive again breaks the bound.
func TestNoPrefetchChurn(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("ranges/workers=%d", workers), func(t *testing.T) {
			s := newWithWorkers(t, workers)
			bsz := int64(s.BlockSize())
			prefix := make([]byte, 4*bsz)
			if _, err := io.ReadFull(s, prefix); err != nil {
				t.Fatal(err)
			}
			settle(t, s)
			before := s.Stats().Blocks

			const ranges = 16
			buf := make([]byte, 2*bsz)
			for k := int64(0); k < ranges; k++ {
				if _, err := s.ReadAt(buf, (64+2*k)*bsz); err != nil {
					t.Fatal(err)
				}
			}
			settle(t, s)
			got := s.Stats().Blocks - before
			if limit := int64(2*ranges + workers); got > limit {
				t.Fatalf("%d ranges of 2 blocks derived %d blocks, want <= %d", ranges, got, limit)
			}
			t.Logf("%d two-block ranges derived %d blocks", ranges, got)
		})
		t.Run(fmt.Sprintf("sweep/workers=%d", workers), func(t *testing.T) {
			s := newWithWorkers(t, workers)
			const blocks = 32
			buf := make([]byte, blocks*s.BlockSize())
			if _, err := io.ReadFull(s, buf); err != nil {
				t.Fatal(err)
			}
			settle(t, s)
			if got, limit := s.Stats().Blocks, int64(blocks+workers); got > limit {
				t.Fatalf("a %d-block Read sweep derived %d blocks, want <= %d", blocks, got, limit)
			}
		})
	}
}

// newWithWorkers starts a GF(2^8) stream with the given worker count,
// raising GOMAXPROCS to match for the rest of the test (Workers is capped
// at it), and closes the stream when the test ends.
func newWithWorkers(t *testing.T, workers int) *Stream {
	t.Helper()
	prev := runtime.GOMAXPROCS(workers)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	cfg := gf8Cfg(5)
	cfg.Workers = workers
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// settle waits until no block derivation has been running for a while,
// so Stats counts every derivation the reads set off.
func settle(t *testing.T, s *Stream) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	quiet := 0
	for quiet < 5 {
		if time.Now().After(deadline) {
			t.Fatal("stream never went idle")
		}
		time.Sleep(5 * time.Millisecond)
		s.mu.Lock()
		running := false
		for _, bs := range s.blocks {
			running = running || bs.running
		}
		s.mu.Unlock()
		if running {
			quiet = 0
		} else {
			quiet++
		}
	}
}

// TestProtocolBlockAllocBudget pins what one computed round of a block
// over a bus allocates in the benchmark's stream shape (3 terminals,
// erasure 0.45, 128 x-packets of 4 KiB, 128 KiB blocks), counting the
// whole block derivation — the leader's round loop, bus, both terminals
// — over a worker arena, once 20 blocks have warmed the arena up. Its
// NewBus builds each block's bus over inboxes the test owns, drains and
// reuses (transport.NewChanBusOver), so the count is the protocol's, not
// the inboxes'. The budgets are the largest values measured on
// linux/amd64 (Go 1.24) plus 25%: 3.4 KB and 9.3 objects per round
// (2.4–2.7 KB and 6.3–7.4 objects over 160 fresh runs, 80 on an idle
// machine and 80 beside a second copy; medians 2.4 KB and 6.6). Members
// keep their x-payloads as the received frames' bytes, so the arena's
// only growth after the warm-up is a round scratch or an
// erasure-completion system for a round wider than any warm-up round.
// While members decoded every x-payload into symbol rows of their own,
// those rows kept growing after the warm-up: the budgets were 73 KB and
// 26 objects.
func TestProtocolBlockAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations swamp the budget")
	}
	const (
		warm, measured = 20, 10
		budgetKB       = 3.4
		budgetObjs     = 9.3
	)
	cfg := Config{Terminals: 3, Erasure: 0.45, XPerRound: 128, PayloadBytes: 4096, Seed: 3, BlockSize: 128 << 10}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	inboxes := make([]chan transport.Env, cfg.Terminals)
	for i := range inboxes {
		inboxes[i] = make(chan transport.Env, inboxDepth(&cfg))
	}
	cfg.NewBus = func(_, blockSeed int64, _ int) (transport.Bus, error) {
		// The last block's bus is closed and its goroutines joined: what
		// its inboxes still hold is unread, and goes.
		for _, ch := range inboxes {
			for len(ch) > 0 {
				<-ch
			}
		}
		return transport.NewChanBusOver(cfg.Erasure, blockSeed, inboxes), nil
	}
	bc := workerContext(&cfg)
	dst := make([]byte, cfg.BlockSize)
	var rounds0 int64
	var before, after runtime.MemStats
	for idx := int64(0); idx < warm+measured; idx++ {
		if idx == warm {
			rounds0 = bc.es.rounds.Load()
			runtime.ReadMemStats(&before)
		}
		if err := bc.deriveProtocol(idx, dst); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	rounds := float64(bc.es.rounds.Load() - rounds0)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / rounds
	objs := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("per computed round: %.1f KB, %.1f objects (%v rounds over %d blocks)", kb, objs, rounds, measured)
	if kb > budgetKB || objs > budgetObjs {
		t.Fatalf("per computed round: %.1f KB, %.1f objects; budget %v KB, %v objects", kb, objs, budgetKB, budgetObjs)
	}
}

// workerContext is the block context Stream.worker derives through: one
// worker's arena.
func workerContext(cfg *Config) *BlockContext {
	return &BlockContext{cfg: cfg, es: &engineStats{}, health: newMemberHealth(cfg.Terminals), ins: &streamInstruments{},
		arena: newArena(cfg)}
}

// TestSteadyStateBlockAlloc: once warm, a block in the benchmark's shape
// with no bus — the leader-only path a default stream's worker takes —
// allocates next to nothing: no set-up, round plans or packets, only the
// rare growth of the leader's round scratch or planner for a round wider
// than any before (14 objects over the 50 measured blocks: 8 scratch
// rows, 6 planner matrices). The budgets are the largest values
// measured on linux/amd64 (Go 1.24) plus 25%: 0.96 KB and 0.38 objects
// a block (0.77 KB and 0.28–0.30 objects over 120 runs, 40 idle and 80
// beside a second copy). The bus path's allocations are pinned by
// TestProtocolBlockAllocBudget; over a pooled in-process bus a warm
// block allocated 18.5–24.7 objects and 3.4–27.3 KB.
func TestSteadyStateBlockAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations swamp the budget")
	}
	const (
		warm, measured = 20, 50
		budgetKB       = 0.96
		budgetObjs     = 0.38
	)
	cfg := Config{Terminals: 3, Erasure: 0.45, XPerRound: 128, PayloadBytes: 4096, Seed: 5, BlockSize: 128 << 10}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	bc := workerContext(&cfg)
	dst := make([]byte, cfg.BlockSize)
	var before, after runtime.MemStats
	for idx := int64(0); idx < warm+measured; idx++ {
		if idx == warm {
			runtime.ReadMemStats(&before)
		}
		if err := bc.deriveProtocol(idx, dst); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / measured
	objs := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("per block: %.2f KB, %.2f objects", kb, objs)
	if kb > budgetKB || objs > budgetObjs {
		t.Fatalf("a steady-state block allocated %.1f KB, %.1f objects; budget %v KB, %v objects", kb, objs, budgetKB, budgetObjs)
	}
}

// TestLeaderOnlyBlockRunsNoMembers: a stream with no bus derives its
// blocks leader-only. At the benchmark's shape with one worker, a
// 20-block read starts no goroutine beyond the worker's (the bus path
// starts one goroutine per member for every block),
// no member counter moves, and the exchange and compute histograms still
// count every round and every productive round.
func TestLeaderOnlyBlockRunsNoMembers(t *testing.T) {
	const nblocks = 20
	reg := obs.New()
	cfg := Config{Terminals: 3, Erasure: 0.45, XPerRound: 128, PayloadBytes: 4096, Seed: 7, BlockSize: 128 << 10,
		Workers: 1, Obs: reg}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := runtime.NumGoroutine() + 1 // the sampler below
	done, peak := make(chan struct{}), make(chan int, 1)
	go func() {
		most := 0
		for {
			most = max(most, runtime.NumGoroutine())
			select {
			case <-done:
				peak <- most
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
	}()
	_, err = io.ReadFull(s, make([]byte, nblocks*cfg.BlockSize))
	close(done)
	most := <-peak
	if err != nil {
		t.Fatal(err)
	}
	if most > base {
		t.Fatalf("%d goroutines ran during the read, %d before it", most, base)
	}
	s.Close() // waits for the prefetched block too
	st := s.Stats()
	if st.AckTimeouts != 0 || st.ShedFrames != 0 || st.VerifyOK != 0 || st.VerifyMismatch != 0 || st.HealthSkips != 0 {
		t.Fatalf("member counters moved with no members: %+v", st)
	}
	snap := reg.Snapshot()
	exch, comp := snap.Total("thinaird_keystream_exchange_seconds"), snap.Total("thinaird_keystream_compute_seconds")
	if exch != float64(st.Rounds) || comp != float64(st.Productive) || comp == 0 {
		t.Fatalf("exchange histogram counts %v of %d rounds, compute %v of %d productive", exch, st.Rounds, comp, st.Productive)
	}
}
