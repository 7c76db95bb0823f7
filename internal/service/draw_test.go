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

// TestConcurrentDrawsDisjointGapFree is the draw path's core correctness
// property: N goroutines drawing concurrently from one session receive
// pairwise byte-disjoint slices that tile the session's deterministic
// keystream with no gaps — concurrent draws never tear, duplicate, or
// skip key material.
func TestConcurrentDrawsDisjointGapFree(t *testing.T) {
	sv := New(Config{MaxSessions: 2, DrainTimeout: 5 * time.Second})
	defer sv.Shutdown(context.Background())
	s, err := sv.Create(fastSpec(4600))
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
	sp := fastSpec(4700)
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
