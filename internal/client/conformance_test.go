package client_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/gate"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/service"
)

// streamSpec is a small in-process session (Streamed keeps it off UDP
// on the coordinator too): offset-addressable, deterministic for a seed,
// converges in a couple of seconds.
func streamSpec(seed int64) service.SessionSpec {
	return service.SessionSpec{
		Terminals:    3,
		Erasure:      0.45,
		XPerRound:    64,
		PayloadBytes: 16,
		Rotate:       true,
		Seed:         seed,
		LowWater:     256,
		TargetDepth:  512,
		Timeout:      10 * time.Second,
		Streamed:     true,
	}
}

// tier builds one Client implementation over a live stack and hands back
// a ready stream-fed session. The same assertions run against every
// tier — that equivalence is the point of the unified API. Besides the
// three public tiers, two arms cover the hops a gate in front of a
// cluster crosses: client.HTTP against a worker's own /v1 routes, and a
// gate whose backend reads the owning workers.
type tier struct {
	name  string
	setup func(t *testing.T) (client.Client, uint64)
}

func tiers() []tier {
	return []tier{
		{name: "daemon-http", setup: func(t *testing.T) (client.Client, uint64) {
			return setupDaemonHTTP(t, streamSpec(7001))
		}},
		{name: "coordinator-http", setup: func(t *testing.T) (client.Client, uint64) {
			return setupCoordinatorHTTP(t, streamSpec(7002))
		}},
		{name: "gate-frame", setup: func(t *testing.T) (client.Client, uint64) {
			return setupGateFrame(t, streamSpec(7003))
		}},
		{name: "worker-http", setup: func(t *testing.T) (client.Client, uint64) {
			return setupWorkerHTTP(t, streamSpec(7004))
		}},
		{name: "gate-cluster", setup: func(t *testing.T) (client.Client, uint64) {
			return setupGateCluster(t, streamSpec(7005))
		}},
	}
}

// poolFedTiers hands back a ready session of each tier's default UDP
// shape: a UDP session on the daemon, the gate and the worker, and a
// default (not Streamed) session on the coordinator and behind the
// cluster gate, which the coordinator forces onto UDP itself. Its
// ranges are as addressable as a Streamed session's.
func poolFedTiers() []tier {
	udpSpec := func(seed int64) service.SessionSpec {
		sp := streamSpec(seed)
		sp.Streamed, sp.UDP = false, true
		return sp
	}
	return []tier{
		{name: "daemon-http", setup: func(t *testing.T) (client.Client, uint64) {
			return setupDaemonHTTP(t, udpSpec(7101))
		}},
		{name: "coordinator-http", setup: func(t *testing.T) (client.Client, uint64) {
			sp := streamSpec(7102)
			sp.Streamed = false
			return setupCoordinatorHTTP(t, sp)
		}},
		{name: "gate-frame", setup: func(t *testing.T) (client.Client, uint64) {
			return setupGateFrame(t, udpSpec(7103))
		}},
		{name: "worker-http", setup: func(t *testing.T) (client.Client, uint64) {
			return setupWorkerHTTP(t, udpSpec(7104))
		}},
		{name: "gate-cluster", setup: func(t *testing.T) (client.Client, uint64) {
			sp := streamSpec(7105)
			sp.Streamed = false
			return setupGateCluster(t, sp)
		}},
	}
}

func setupDaemonHTTP(t *testing.T, spec service.SessionSpec) (client.Client, uint64) {
	t.Helper()
	sv := service.New(service.Config{MaxSessions: 2, DrainTimeout: 5 * time.Second})
	t.Cleanup(func() { sv.Shutdown(context.Background()) })
	s, err := sv.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	c := client.NewHTTP(ts.URL)
	t.Cleanup(func() { c.Close() })
	return c, uint64(s.ID)
}

func setupCoordinatorHTTP(t *testing.T, spec service.SessionSpec) (client.Client, uint64) {
	t.Helper()
	co := newTestCoordinator(t)
	info, err := co.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	c := client.NewHTTP(ts.URL)
	t.Cleanup(func() { c.Close() })
	waitDrawable(t, c, info.ID)
	return c, info.ID
}

func setupGateFrame(t *testing.T, spec service.SessionSpec) (client.Client, uint64) {
	t.Helper()
	sv := service.New(service.Config{MaxSessions: 2, DrainTimeout: 5 * time.Second})
	t.Cleanup(func() { sv.Shutdown(context.Background()) })
	s, err := sv.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	return dialGate(t, &gate.ServiceBackend{SV: sv}), uint64(s.ID)
}

// workerCID is the cluster id the worker arm places its session under:
// beyond the 32-bit range, as a coordinator's ids may be.
const workerCID = 1<<33 + 5

// setupWorkerHTTP places a session on a cluster worker through its
// /ctl/assign route, as a coordinator does, and reads it with
// client.HTTP over the worker's /v1 routes.
func setupWorkerHTTP(t *testing.T, spec service.SessionSpec) (client.Client, uint64) {
	t.Helper()
	c, cid := assignOnWorker(t, spec)
	waitDrawable(t, c, cid)
	return c, cid
}

func assignOnWorker(t *testing.T, spec service.SessionSpec) (client.Client, uint64) {
	t.Helper()
	w := cluster.NewWorker(cluster.WorkerConfig{Capacity: 2, DrainTimeout: 5 * time.Second})
	t.Cleanup(func() { w.Drain(context.Background()) })
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(ts.Close)
	wc := cluster.NewWorkerClient(ts.URL)
	t.Cleanup(wc.CloseIdle)
	if _, err := wc.Assign(context.Background(), workerCID, spec); err != nil {
		t.Fatal(err)
	}
	c := client.NewHTTP(ts.URL)
	t.Cleanup(func() { c.Close() })
	return c, workerCID
}

// setupGateCluster serves a coordinator's session through a gate whose
// backend reads the owning worker directly.
func setupGateCluster(t *testing.T, spec service.SessionSpec) (client.Client, uint64) {
	t.Helper()
	c, cid := createBehindClusterGate(t, spec)
	waitDrawable(t, c, cid)
	return c, cid
}

func createBehindClusterGate(t *testing.T, spec service.SessionSpec) (client.Client, uint64) {
	t.Helper()
	co := newTestCoordinator(t)
	info, err := co.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	b := gate.NewClusterBackend(gate.ClusterBackendConfig{
		Resolver: gate.LocalResolver{C: co},
		Obs:      obs.New(),
	})
	t.Cleanup(func() { b.Close() })
	return dialGate(t, b), info.ID
}

// dialGate serves one frame-protocol connection over net.Pipe from a
// gate on backend.
func dialGate(t *testing.T, backend gate.Backend) client.Client {
	t.Helper()
	g := gate.New(gate.Config{
		Backend: backend,
		Logf:    func(string, ...any) {},
	})
	t.Cleanup(func() { g.Close() })
	server, clientConn := net.Pipe()
	go g.ServeConn(server)
	c, err := gate.NewClient(clientConn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func newTestCoordinator(t *testing.T) *cluster.Coordinator {
	t.Helper()
	co, err := cluster.New(cluster.Config{
		Workers:         2,
		WorkerCapacity:  4,
		HeartbeatEvery:  50 * time.Millisecond,
		HeartbeatMisses: 3,
		MaxRestarts:     3,
		RespawnBackoff:  20 * time.Millisecond,
		DrainTimeout:    10 * time.Second,
		Logf:            func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Shutdown(context.Background()) })
	return co
}

// waitDrawable polls until the session serves key material (cluster
// sessions pass through placing before their pool converges).
func waitDrawable(t *testing.T, c client.Client, session uint64) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Draw(ctx, session, 8); err == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("session %d never became drawable", session)
}

// deadSpec is a session on a channel so lossy every refresh round
// aborts: the session exhausts its failure budget and dies permanently
// within a few fast in-memory (or loopback-UDP) rounds.
func deadSpec(seed int64) service.SessionSpec {
	return service.SessionSpec{
		Terminals:    3,
		Erasure:      0.999,
		XPerRound:    4,
		PayloadBytes: 16,
		Rotate:       true,
		Seed:         seed,
		LowWater:     64,
		TargetDepth:  128,
		Timeout:      10 * time.Second,
	}
}

// failedTier builds one Client over a live stack plus a session that is
// guaranteed to die permanently.
type failedTier struct {
	name  string
	setup func(t *testing.T) (client.Client, uint64)
}

func failedTiers() []failedTier {
	return []failedTier{
		{name: "daemon-http", setup: func(t *testing.T) (client.Client, uint64) {
			sv := service.New(service.Config{MaxSessions: 2, DrainTimeout: 5 * time.Second})
			t.Cleanup(func() { sv.Shutdown(context.Background()) })
			s, err := sv.Create(deadSpec(8001))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(sv.Handler())
			t.Cleanup(ts.Close)
			c := client.NewHTTP(ts.URL)
			t.Cleanup(func() { c.Close() })
			return c, uint64(s.ID)
		}},
		{name: "coordinator-http", setup: func(t *testing.T) (client.Client, uint64) {
			co := newTestCoordinator(t)
			info, err := co.Create(deadSpec(8002))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(co.Handler())
			t.Cleanup(ts.Close)
			c := client.NewHTTP(ts.URL)
			t.Cleanup(func() { c.Close() })
			return c, info.ID
		}},
		{name: "gate-frame", setup: func(t *testing.T) (client.Client, uint64) {
			sv := service.New(service.Config{MaxSessions: 2, DrainTimeout: 5 * time.Second})
			t.Cleanup(func() { sv.Shutdown(context.Background()) })
			s, err := sv.Create(deadSpec(8003))
			if err != nil {
				t.Fatal(err)
			}
			return dialGate(t, &gate.ServiceBackend{SV: sv}), uint64(s.ID)
		}},
		{name: "worker-http", setup: func(t *testing.T) (client.Client, uint64) {
			return assignOnWorker(t, deadSpec(8004))
		}},
		{name: "gate-cluster", setup: func(t *testing.T) (client.Client, uint64) {
			return createBehindClusterGate(t, deadSpec(8005))
		}},
	}
}

// TestFailedCodeConformance: a session that dies permanently surfaces as
// ErrFailed — not ErrClosed, not a bare ErrNotFound — identically on
// every tier. This is the conformance half of the
// failed-vs-closed split; the envelope and wire halves are pinned by the
// mapping and codec bijection tests.
func TestFailedCodeConformance(t *testing.T) {
	for _, tr := range failedTiers() {
		t.Run(tr.name, func(t *testing.T) {
			t.Parallel()
			c, session := tr.setup(t)
			ctx := context.Background()
			deadline := time.Now().Add(90 * time.Second)
			var last error
			for time.Now().Before(deadline) {
				_, last = c.Draw(ctx, session, 8)
				if errors.Is(last, client.ErrFailed) {
					break
				}
				time.Sleep(50 * time.Millisecond)
			}
			if !errors.Is(last, client.ErrFailed) {
				t.Fatalf("draw on dead session never surfaced ErrFailed; last error: %v", last)
			}
			if errors.Is(last, client.ErrClosed) {
				t.Fatalf("failed session classified as graceful close: %v", last)
			}
			// The error is stable: a second read reports the same death.
			if _, err := c.Draw(ctx, session, 8); !errors.Is(err, client.ErrFailed) {
				t.Fatalf("second draw on dead session: %v, want ErrFailed", err)
			}
			// And distinct from a genuinely unknown id on the same tier.
			if _, err := c.Draw(ctx, session+9999, 8); errors.Is(err, client.ErrFailed) {
				t.Fatalf("unknown session classified as failed: %v", err)
			}
		})
	}
}

// TestConcurrentDrawConformance pins the concurrent-draw contract on
// every tier: concurrent Draw and DrawN callers against one
// session receive pairwise byte-disjoint slices that tile the session's
// deterministic keystream with no gaps (never torn, duplicated, or
// skipped), an over-depth draw fails whole with ErrExhausted, and the
// failure consumes nothing.
func TestConcurrentDrawConformance(t *testing.T) {
	for _, tr := range tiers() {
		t.Run(tr.name, func(t *testing.T) {
			c, session := tr.setup(t)
			ctx := context.Background()

			const callers = 8
			const per = 32 // callers draw per bytes each, as Draw or DrawN
			var wg sync.WaitGroup
			slices := make([][]byte, callers)
			errs := make([]error, callers)
			wg.Add(callers)
			for i := 0; i < callers; i++ {
				go func(i int) {
					defer wg.Done()
					if i%2 == 0 {
						slices[i], errs[i] = c.Draw(ctx, session, per)
						return
					}
					// DrawN is one wire draw split client-side, so its keys
					// concatenate to one contiguous stream slice.
					keys, err := c.DrawN(ctx, session, per/4, 4)
					if err != nil {
						errs[i] = err
						return
					}
					for _, k := range keys {
						slices[i] = append(slices[i], k...)
					}
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("caller %d: %v", i, err)
				}
			}

			// Pool draws consume the keystream sequentially, so each slice
			// sits at some offset of the (non-consuming, re-readable) stream
			// prefix, and together they must tile a contiguous run. The run
			// may start past 0: tier setup probes consume a few bytes.
			ref, err := c.StreamRange(ctx, session, 0, 4096)
			if err != nil {
				t.Fatal(err)
			}
			offs := make([]int, callers)
			for i, sl := range slices {
				off := bytes.Index(ref, sl)
				if off < 0 {
					t.Fatalf("caller %d's draw is not a slice of the session keystream", i)
				}
				if next := bytes.Index(ref[off+1:], sl); next >= 0 {
					t.Fatalf("caller %d's draw appears twice in the stream prefix; tiling ambiguous", i)
				}
				offs[i] = off
			}
			sort.Ints(offs)
			for i := 1; i < len(offs); i++ {
				if offs[i] != offs[i-1]+per {
					t.Fatalf("draw offsets %v are not gap-free (disjointness or completeness broken)", offs)
				}
			}
			end := offs[len(offs)-1] + per

			// All-or-nothing on a short pool: a draw larger than the pool's
			// target depth can never be served and must fail whole...
			if _, err := c.Draw(ctx, session, 2048); !errors.Is(err, client.ErrExhausted) {
				t.Fatalf("over-depth draw: got %v, want ErrExhausted", err)
			}
			// ...without consuming anything: the next draw continues exactly
			// where the successful ones stopped.
			after, err := c.Draw(ctx, session, per)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, ref[end:end+per]) {
				t.Fatalf("draw after a failed over-depth draw is not the contiguous continuation at offset %d", end)
			}
		})
	}
}

// TestPoolFedRangeConformance runs the range cases of
// TestClientConformance over each tier's default UDP session: ranges at
// non-zero offsets are addressed and re-read byte-identically there too.
func TestPoolFedRangeConformance(t *testing.T) {
	for _, tr := range poolFedTiers() {
		t.Run(tr.name, func(t *testing.T) {
			c, session := tr.setup(t)
			rangeCases(t, c, session)
		})
	}
}

// rangeCases asserts the addressed-range contract on one session:
// repeatable reads, offset arithmetic, and ReaderAt agreeing with
// StreamRange.
func rangeCases(t *testing.T, c client.Client, session uint64) {
	ctx := context.Background()
	t.Run("stream-repeatable", func(t *testing.T) {
		a, err := c.StreamRange(ctx, session, 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.StreamRange(ctx, session, 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("same range read twice returned different bytes")
		}
		// Offset addressability: a wider read must contain the
		// narrow one at its offset.
		wide, err := c.StreamRange(ctx, session, 0, 96)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wide[16:80], a) {
			t.Fatal("range [16,80) disagrees with the wider [0,96) read")
		}
	})

	t.Run("reader-at", func(t *testing.T) {
		want, err := c.StreamRange(ctx, session, 128, 48)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 48)
		n, err := c.ReaderAt(session).ReadAt(buf, 128)
		if err != nil {
			t.Fatal(err)
		}
		if n != 48 || !bytes.Equal(buf, want) {
			t.Fatal("ReaderAt disagrees with StreamRange over the same range")
		}
	})
}

// TestClientConformance runs the same behavioural assertions against
// every tier.
func TestClientConformance(t *testing.T) {
	for _, tr := range tiers() {
		t.Run(tr.name, func(t *testing.T) {
			c, session := tr.setup(t)
			ctx := context.Background()

			t.Run("draw", func(t *testing.T) {
				a, err := c.Draw(ctx, session, 32)
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != 32 {
					t.Fatalf("draw returned %d bytes, want 32", len(a))
				}
				b, err := c.Draw(ctx, session, 32)
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(a, b) {
					t.Fatal("two draws returned identical key material")
				}
			})

			t.Run("draw-n", func(t *testing.T) {
				keys, err := c.DrawN(ctx, session, 16, 4)
				if err != nil {
					t.Fatal(err)
				}
				if len(keys) != 4 {
					t.Fatalf("DrawN returned %d keys, want 4", len(keys))
				}
				for i, k := range keys {
					if len(k) != 16 {
						t.Fatalf("key %d has %d bytes, want 16", i, len(k))
					}
					for j := range i {
						if bytes.Equal(k, keys[j]) {
							t.Fatalf("keys %d and %d identical", i, j)
						}
					}
				}
			})

			rangeCases(t, c, session)

			t.Run("errors", func(t *testing.T) {
				if _, err := c.Draw(ctx, session+9999, 8); !errors.Is(err, client.ErrNotFound) {
					t.Fatalf("draw on unknown session: got %v, want ErrNotFound", err)
				}
				// Session ids are 64-bit on every tier: one beyond the
				// daemon's 32-bit space is unknown, not malformed.
				if _, err := c.Draw(ctx, session+1<<32, 8); !errors.Is(err, client.ErrNotFound) {
					t.Fatalf("draw on session %d: got %v, want ErrNotFound", session+1<<32, err)
				}
				if _, err := c.StreamRange(ctx, session+1<<32, 0, 8); !errors.Is(err, client.ErrNotFound) {
					t.Fatalf("range on session %d: got %v, want ErrNotFound", session+1<<32, err)
				}
				if _, err := c.Draw(ctx, session, httpapi.MaxDrawBytes+1); !errors.Is(err, client.ErrBadRequest) {
					t.Fatalf("oversized draw: got %v, want ErrBadRequest", err)
				}
				if _, err := c.StreamRange(ctx, session, 0, 0); !errors.Is(err, client.ErrBadRequest) {
					t.Fatalf("zero-length stream: got %v, want ErrBadRequest", err)
				}
				if _, err := c.DrawN(ctx, session, 0, 3); !errors.Is(err, client.ErrBadRequest) {
					t.Fatalf("zero-size bulk draw: got %v, want ErrBadRequest", err)
				}
			})

			t.Run("context-cancel", func(t *testing.T) {
				cctx, cancel := context.WithCancel(ctx)
				cancel()
				if _, err := c.Draw(cctx, session, 8); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled draw: got %v, want context.Canceled", err)
				}
			})
		})
	}
}
