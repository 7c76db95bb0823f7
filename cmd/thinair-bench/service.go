package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/service"
)

// The single-box service benchmark: aggregate session refresh throughput
// (sessions × rounds/sec) plus Session.Draw under 1, 8 and 64 concurrent
// callers on one session, and the draw path's allocation gates.

type drawThroughput struct {
	C1  float64 `json:"c1"`
	C8  float64 `json:"c8"`
	C64 float64 `json:"c64"`
}

type serviceBenchReport struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Shards     int    `json:"shards"`

	// Aggregate protocol rounds/sec across RefreshSessions concurrently
	// refreshing stream-fed sessions (the dispatch/executor tier at work).
	RefreshSessions int     `json:"refresh_sessions"`
	RoundsPerSec    float64 `json:"sessions_rounds_per_sec"`

	DrawBytes int `json:"draw_bytes"`
	// Session.Draw calls/sec by concurrent caller count.
	DrawsPerSec drawThroughput `json:"draws_per_sec"`

	// Heap allocations per op on the draw path, steady state:
	// DrawInto into a caller buffer must not allocate at all, Draw pays
	// exactly its result buffer.
	DrawIntoAllocsPerOp float64 `json:"draw_into_allocs_per_op"`
	DrawAllocsPerOp     float64 `json:"draw_allocs_per_op"`
}

const svcDrawBytes = 32

func serviceBench(out string) {
	rep := serviceBenchReport{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		DrawBytes: svcDrawBytes,
	}

	rep.RefreshSessions, rep.RoundsPerSec = svcRoundsPerSec()

	svc := service.New(service.Config{MaxSessions: 2})
	rep.Shards = runtime.GOMAXPROCS(0) // Config default; recorded for the record
	spec := streamBenchSpec()
	spec.Name = "bench-service"
	// Quiescent pool: LowWater far below where the bench lets the depth
	// fall, so the refresher never wakes and the measured path is draw
	// machinery only. Depth is maintained by explicit re-deposits between
	// timed batches.
	spec.LowWater = 4 << 10
	spec.TargetDepth = 16 << 20
	spec.StreamBlock = 1 << 17
	s, err := svc.Create(spec)
	fatal(err)
	deadline := time.Now().Add(5 * time.Minute)
	for s.Metrics().Pool.Available < 1<<20 {
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("service bench: pool never filled"))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Feed the pool outside the timed regions so the draws never run
	// dry: the keystream keeps deriving toward the 16 MiB target in the
	// background, and chunk re-deposits cover any shortfall.
	chunk := make([]byte, 1<<20)
	for i := range chunk {
		chunk[i] = byte(i * 167)
	}
	topUp := func(need int) {
		for s.Metrics().Pool.Available < need {
			s.Pool().Deposit(chunk)
		}
	}

	draw := func() error { _, err := s.Draw(svcDrawBytes); return err }

	// One timed run: callers goroutines × ops/caller draws, full-barrier
	// start, wall time across all of them. Best of reps is the
	// deterministic cost with scheduler noise filtered out, same idiom as
	// the other bench arms. Read the numbers with num_cpu in hand: on one
	// CPU goroutines serialize and the pool mutex is never contended.
	run := func(callers, ops int) float64 {
		const reps = 10
		best := 0.0
		for r := 0; r < reps; r++ {
			topUp(callers*ops*svcDrawBytes + 1<<20)
			var wg sync.WaitGroup
			start := make(chan struct{})
			wg.Add(callers)
			for c := 0; c < callers; c++ {
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < ops; i++ {
						fatal(draw())
					}
				}()
			}
			t0 := time.Now()
			close(start)
			wg.Wait()
			if ps := float64(callers*ops) / time.Since(t0).Seconds(); ps > best {
				best = ps
			}
		}
		return best
	}

	const opsTotal = 1 << 17
	rep.DrawsPerSec = drawThroughput{
		C1:  run(1, opsTotal),
		C8:  run(8, opsTotal/8),
		C64: run(64, opsTotal/64),
	}

	// Allocation gates, single caller.
	topUp(8 << 20)
	dst := make([]byte, svcDrawBytes)
	fatal(s.DrawInto(dst))
	rep.DrawIntoAllocsPerOp = allocsPerOp(2000, func() { fatal(s.DrawInto(dst)) })
	rep.DrawAllocsPerOp = allocsPerOp(2000, func() { fatal(draw()) })

	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	svc.Shutdown(sctx)
	cancel()

	data, err := json.MarshalIndent(rep, "", "  ")
	fatal(err)
	data = append(data, '\n')
	fatal(os.WriteFile(out, data, 0o644))
	fmt.Printf("service bench: %.0f rounds/s over %d sessions; draws/s c1 %.0f c8 %.0f c64 %.0f; DrawInto %.2f allocs/op -> %s\n",
		rep.RoundsPerSec, rep.RefreshSessions, rep.DrawsPerSec.C1, rep.DrawsPerSec.C8,
		rep.DrawsPerSec.C64, rep.DrawIntoAllocsPerOp, out)
}

// svcRoundsPerSec runs a small fleet of in-process sessions and keeps
// every pool permanently under its watermark, so each session's
// refresher reads its keystream continuously; the aggregate round rate
// is the dispatch tier's sustained throughput.
func svcRoundsPerSec() (sessions int, perSec float64) {
	sessions = 4
	svc := service.New(service.Config{MaxSessions: sessions})
	ss := make([]*service.Session, sessions)
	for i := range ss {
		sp := service.SessionSpec{
			Name:      fmt.Sprintf("bench-rounds-%d", i),
			Terminals: 3, Erasure: 0.45,
			XPerRound: 64, PayloadBytes: 256,
			Rotate: true, Seed: int64(9000 + i),
			LowWater: 1 << 10, TargetDepth: 2 << 10,
			Timeout: 60 * time.Second,
		}
		s, err := svc.Create(sp)
		fatal(err)
		ss[i] = s
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, s := range ss {
		fatal(s.WaitReady(ctx))
	}

	// Drain continuously so the low-water refresher never sleeps.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range ss {
		wg.Add(1)
		go func(s *service.Session) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Draw(512); err != nil {
					time.Sleep(time.Millisecond)
				}
			}
		}(s)
	}

	before := int64(0)
	for _, s := range ss {
		before += s.Metrics().Rounds
	}
	const window = 5 * time.Second
	t0 := time.Now()
	time.Sleep(window)
	after := int64(0)
	for _, s := range ss {
		after += s.Metrics().Rounds
	}
	elapsed := time.Since(t0).Seconds()
	close(stop)
	wg.Wait()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	svc.Shutdown(sctx)
	scancel()
	return sessions, float64(after-before) / elapsed
}

// allocsPerOp is testing.AllocsPerRun without the testing package: heap
// allocations per call of f, single goroutine, steady state.
func allocsPerOp(runs int, f func()) float64 {
	runtime.GC()
	var before, after runtime.MemStats
	f() // warm
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
