package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// runCoordinator is `thinaird coordinator`: it spawns and supervises a
// fleet of `thinaird worker` processes (re-execing this binary), owns
// the cluster session registry, and serves the public API.
func runCoordinator(args []string) {
	fs := flag.NewFlagSet("thinaird coordinator", flag.ExitOnError)
	var (
		addr     = fs.String("addr", ":9309", "public HTTP listen address")
		workers  = fs.Int("workers", 3, "worker processes to spawn and supervise")
		capacity = fs.Int("worker-capacity", 16, "max sessions per worker")
		hbEvery  = fs.Duration("heartbeat", time.Second, "worker heartbeat period")
		hbMisses = fs.Int("heartbeat-misses", 3, "missed heartbeats before a worker is replaced")
		restarts = fs.Int("max-restarts", 5, "respawn budget per worker slot")
		backoff  = fs.Duration("respawn-backoff", 200*time.Millisecond, "pause before replacing a dead worker")
		drain    = fs.Duration("drain", 15*time.Second, "graceful drain window per worker")
		bin      = fs.String("worker-bin", "", "worker executable (default: this binary)")
		stateDir = fs.String("state-dir", "", "persist the session registry here; a restarted coordinator replays it and re-adopts surviving workers")
		orphan   = fs.Duration("orphan-grace", 45*time.Second, "how long workers outlive a dead coordinator awaiting re-adoption (needs -state-dir)")
		dbg      = fs.String("debug-addr", "", "serve pprof + /debug/trace + /metrics on this extra address")
	)
	_ = fs.Parse(args)
	if *dbg != "" {
		defer enableDebug(*dbg, obs.Default(), obs.DefaultSpans())()
	}

	spawner := &cluster.ExecSpawner{Binary: *bin}
	if *stateDir != "" {
		// Workers must survive a coordinator crash long enough to be
		// re-adopted; without persistence the old exit-on-reparent
		// behavior stands (a worker nobody can re-adopt must not linger).
		spawner.Args = []string{"-orphan-grace", orphan.String()}
	}
	c, err := cluster.New(cluster.Config{
		Workers:         *workers,
		WorkerCapacity:  *capacity,
		HeartbeatEvery:  *hbEvery,
		HeartbeatMisses: *hbMisses,
		MaxRestarts:     *restarts,
		RespawnBackoff:  *backoff,
		DrainTimeout:    *drain,
		Spawn:           spawner.Spawn,
		StateDir:        *stateDir,
	})
	fatal(err)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = c.Shutdown(context.Background())
		fatal(err)
	}
	srv := &http.Server{Handler: c.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	// Machine-readable ready line: test harnesses and scripts scan for it
	// to learn the bound address when -addr picks an ephemeral port.
	fmt.Printf("THINAIRD_COORDINATOR_READY url=http://%s\n", listenHostPort(ln))
	fmt.Printf("thinaird: coordinating %d workers on %s\n", *workers, ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("thinaird: %v — draining cluster\n", sig)
	case err := <-errc:
		_ = c.Shutdown(context.Background())
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain+15*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	if err := c.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "thinaird: cluster shutdown:", err)
		os.Exit(1)
	}
	fmt.Println("thinaird: cluster drained, all worker pools zeroized")
}

// runWorker is `thinaird worker`: one supervised session host. It
// announces its control RPC address on stdout (the ReadyPrefix line the
// coordinator's spawner scans for) and exits when drained over RPC,
// signaled, or orphaned by its coordinator.
func runWorker(args []string) {
	fs := flag.NewFlagSet("thinaird worker", flag.ExitOnError)
	var (
		ctl        = fs.String("ctl", "127.0.0.1:0", "listen address for the control RPC and the session data plane (loopback)")
		capacity   = fs.Int("capacity", 16, "max concurrently running sessions")
		drain      = fs.Duration("drain", 10*time.Second, "graceful drain window per session")
		slot       = fs.Int("slot", 0, "coordinator slot index (labels logs)")
		supervised = fs.Bool("supervised", false, "exit when the parent process goes away")
		orphan     = fs.Duration("orphan-grace", 0, "after losing the coordinator, keep serving this long awaiting re-adoption (0: exit immediately)")
		dbg        = fs.String("debug-addr", "", "serve pprof + /debug/trace + /metrics on this extra address")
	)
	_ = fs.Parse(args)

	w := cluster.NewWorker(cluster.WorkerConfig{Capacity: *capacity, DrainTimeout: *drain})
	if *dbg != "" {
		// The worker's registry is private (the coordinator merges it
		// into the fleet view), so the debug surface must use the same
		// instance rather than the process default.
		defer enableDebug(*dbg, w.Obs(), w.Spans())()
	}
	ln, err := net.Listen("tcp", *ctl)
	fatal(err)
	srv := &http.Server{Handler: w.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("%s url=http://%s\n", cluster.ReadyPrefix, listenHostPort(ln))

	// A supervised worker must not outlive its coordinator for long:
	// being reparented (the parent pid changes) means the coordinator is
	// gone. With -orphan-grace the worker keeps serving for a bounded
	// window — a coordinator restarted on its state dir re-adopts the
	// worker by probing /ctl, and every control RPC (heartbeats
	// included) resets the silence clock; draws and ranges on the /v1
	// data plane, a gate's included, do not. Only sustained control
	// silence past the grace drains and exits; grace 0 is the immediate
	// exit.
	orphaned := make(chan struct{})
	if *supervised {
		parent := os.Getppid()
		go func() {
			for os.Getppid() == parent {
				time.Sleep(time.Second)
			}
			reparented := time.Now()
			if *orphan > 0 {
				fmt.Fprintf(os.Stderr, "thinaird worker %d: coordinator gone — serving %v awaiting re-adoption\n", *slot, *orphan)
			}
			for {
				last := w.LastControlActivity()
				if last.Before(reparented) {
					last = reparented
				}
				silence := time.Since(last)
				if silence >= *orphan {
					close(orphaned)
					return
				}
				time.Sleep(min(time.Second, *orphan-silence))
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "thinaird worker %d: %v — draining\n", *slot, sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
		_ = w.Drain(ctx)
		cancel()
	case <-orphaned:
		fmt.Fprintf(os.Stderr, "thinaird worker %d: coordinator gone — draining\n", *slot)
		ctx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
		_ = w.Drain(ctx)
		cancel()
	case <-w.Drained():
		// Drained over RPC: pools are zeroized; nothing left to host.
	case err := <-errc:
		fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = srv.Shutdown(ctx)
	cancel()
	fmt.Fprintf(os.Stderr, "thinaird worker %d: exiting\n", *slot)
}

// listenHostPort renders a dialable host:port for a listener that may
// have bound a wildcard address.
func listenHostPort(ln net.Listener) string {
	addr := ln.Addr().(*net.TCPAddr)
	host := addr.IP.String()
	if addr.IP.IsUnspecified() || addr.IP == nil {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, fmt.Sprint(addr.Port))
}
