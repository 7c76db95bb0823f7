package service

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/keypool"
)

// streamedSpec is fastSpec with the keystream feed: deterministic,
// offset-addressable key material — the shape the concurrent-draw tests
// lean on.
func streamedSpec(seed int64) SessionSpec {
	sp := fastSpec(seed)
	sp.Streamed = true
	return sp
}

// TestDispatchWakesExactlyOneExecutor pins the thundering-herd fix: each
// dispatched session wakes EXACTLY one executor (the handoff is an
// unbuffered channel send), even when a pool of idle executors is parked
// on the shard. The old condvar runner pool broadcast-woke every parked
// runner per enqueue; here wakeCount must equal sessions dispatched, not
// sessions × executors.
func TestDispatchWakesExactlyOneExecutor(t *testing.T) {
	const parallel = 4 // builds a pool of idle executors on the one shard
	const serial = 8   // then dispatches with all of them parked
	sv := New(Config{MaxSessions: parallel, Shards: 1, DrainTimeout: 5 * time.Second})
	defer sv.Shutdown(context.Background())

	run := func(n int) {
		t.Helper()
		ss := make([]*Session, 0, n)
		for i := 0; i < n; i++ {
			s, err := sv.Create(streamedSpec(int64(4000 + i)))
			if err != nil {
				t.Fatal(err)
			}
			ss = append(ss, s)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		for _, s := range ss {
			if err := s.WaitReady(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range ss {
			s.Close()
		}
	}

	run(parallel) // spawns up to `parallel` executors, all idle afterwards
	for i := 0; i < serial; i++ {
		run(1) // every dispatch here faces multiple parked executors
	}

	dispatched := int64(parallel + serial)
	if got := sv.wakeCount(); got != dispatched {
		t.Fatalf("%d executor wakes for %d dispatched sessions; want exactly one wake per dispatch",
			got, dispatched)
	}
}

// TestShardPlacementDeterministic pins the placement contract: a session
// id maps to one shard, the same shard on every lookup, and the hash
// spreads dense sequential ids instead of clumping them.
func TestShardPlacementDeterministic(t *testing.T) {
	sv := New(Config{MaxSessions: 64, Shards: 8, DrainTimeout: time.Second})
	defer sv.Shutdown(context.Background())

	counts := make([]int, len(sv.shards))
	for id := uint32(1); id <= 4096; id++ {
		sh := sv.shardOf(id)
		if sh < 0 || sh >= len(sv.shards) {
			t.Fatalf("shardOf(%d) = %d outside [0,%d)", id, sh, len(sv.shards))
		}
		for trial := 0; trial < 3; trial++ {
			if again := sv.shardOf(id); again != sh {
				t.Fatalf("shardOf(%d) flapped: %d then %d", id, sh, again)
			}
		}
		counts[sh]++
	}
	// 4096 ids over 8 shards: a uniform hash puts ~512 on each. Require
	// every shard to hold at least a quarter of its fair share — loose
	// enough to never flake, tight enough to catch identity-style striding
	// (which would leave shards empty for dense id ranges).
	for i, c := range counts {
		if c < 4096/len(sv.shards)/4 {
			t.Fatalf("shard %d holds %d of 4096 ids; distribution %v too skewed", i, c, counts)
		}
	}

	// And the placement Create applies is the same pure function.
	s, err := sv.Create(streamedSpec(4500))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if want := sv.shards[sv.shardOf(s.ID)]; s.shard != want {
		t.Fatalf("session %d placed on shard %d, shardOf says %d", s.ID, s.shard.id, want.id)
	}
}

// TestConcurrentDrawsDisjointGapFree is the draw path's core correctness
// property: N goroutines drawing concurrently from one session receive
// pairwise byte-disjoint slices that tile the session's deterministic
// keystream with no gaps — concurrent draws never tear, duplicate, or
// skip key material.
func TestConcurrentDrawsDisjointGapFree(t *testing.T) {
	sv := New(Config{MaxSessions: 2, DrainTimeout: 5 * time.Second})
	defer sv.Shutdown(context.Background())
	s, err := sv.Create(streamedSpec(4600))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	const callers = 32
	const per = 16 // callers × per = 512 = TargetDepth: all draws must succeed
	var wg sync.WaitGroup
	slices := make([][]byte, callers)
	errs := make([]error, callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			slices[i], errs[i] = s.Draw(per)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}

	// The pool consumes the keystream sequentially from offset 0, so every
	// draw must be a contiguous slice of the stream prefix, and together
	// they must tile [0, callers×per) exactly.
	ref := make([]byte, callers*per*2)
	r, err := s.StreamRange(0, int64(len(ref)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(ref); err != nil {
		t.Fatal(err)
	}
	offs := make([]int, callers)
	for i, sl := range slices {
		off := bytes.Index(ref, sl)
		if off < 0 {
			t.Fatalf("caller %d's draw is not a slice of the session keystream", i)
		}
		if next := bytes.Index(ref[off+1:], sl); next >= 0 {
			t.Fatalf("caller %d's draw appears twice in the stream prefix; tiling check ambiguous", i)
		}
		offs[i] = off
	}
	sort.Ints(offs)
	for i, off := range offs {
		if off != i*per {
			t.Fatalf("draw offsets %v do not tile [0,%d) gap-free", offs, callers*per)
		}
	}
}

// TestConcurrentDrawShortPoolAllOrNothing: when concurrent draws race a
// short pool, each caller independently gets either its full slice or
// ErrExhausted with nothing consumed — concurrency must not introduce
// partial draws or lose material for the callers that fit.
func TestConcurrentDrawShortPoolAllOrNothing(t *testing.T) {
	sv := New(Config{MaxSessions: 2, DrainTimeout: 5 * time.Second})
	defer sv.Shutdown(context.Background())
	sp := streamedSpec(4700)
	s, err := sv.Create(sp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	// Each draw asks for over half the target depth: at most one of any
	// concurrent pair fits, the rest must fail whole.
	big := sp.TargetDepth/2 + 64
	const callers = 8
	var wg sync.WaitGroup
	slices := make([][]byte, callers)
	errs := make([]error, callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			slices[i], errs[i] = s.Draw(big)
		}(i)
	}
	wg.Wait()

	ref := make([]byte, sp.TargetDepth*callers)
	r, err := s.StreamRange(0, int64(len(ref)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(ref); err != nil {
		t.Fatal(err)
	}
	ok := 0
	var offs []int
	for i := range slices {
		switch {
		case errs[i] == nil:
			ok++
			if len(slices[i]) != big {
				t.Fatalf("caller %d: partial draw of %d bytes, want %d or error", i, len(slices[i]), big)
			}
			off := bytes.Index(ref, slices[i])
			if off < 0 {
				t.Fatalf("caller %d's draw is not a slice of the session keystream", i)
			}
			offs = append(offs, off)
		case errors.Is(errs[i], keypool.ErrExhausted):
			if slices[i] != nil {
				t.Fatalf("caller %d: ErrExhausted but bytes returned", i)
			}
		default:
			t.Fatalf("caller %d: %v", i, errs[i])
		}
	}
	if ok == 0 {
		t.Fatal("no concurrent draw succeeded; pool never served")
	}
	// Successful draws are still gap-free: failures consumed nothing, so
	// winners tile the stream contiguously from offset 0.
	sort.Ints(offs)
	for i, off := range offs {
		if off != i*big {
			t.Fatalf("successful draws at offsets %v leave gaps (failed draws consumed material)", offs)
		}
	}
}

// TestDrawIntoZeroAlloc pins the draw path's steady-state allocation
// budget: DrawInto into a caller buffer must not allocate, and Draw
// allocates only the buffer it returns.
func TestDrawIntoZeroAlloc(t *testing.T) {
	s := &Session{pool: keypool.New()}
	seed := make([]byte, 1<<20)
	for i := range seed {
		seed[i] = byte(i * 131)
	}
	s.pool.Deposit(seed)
	dst := make([]byte, 64)
	if err := s.DrawInto(dst); err != nil { // warm up
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := s.DrawInto(dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("DrawInto allocates %.1f per op in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := s.Draw(len(dst)); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("Draw allocates %.1f per op in steady state, want <= 1 (the result)", allocs)
	}
}
