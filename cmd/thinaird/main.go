// Command thinaird is the multi-session key-agreement daemon: it runs
// many concurrent secret-agreement group sessions — each a keystream
// derived on broadcast buses with one goroutine per terminal, and a key
// pool refilled from it in the background — and exposes creation, key
// draws, stream ranges and telemetry over HTTP.
//
// Serve mode (default):
//
//	thinaird                                  # listen on :9309
//	thinaird -addr :8080 -max-sessions 128
//	thinaird -sessions 8 -n 4 -udp            # pre-create 8 UDP groups
//
// Client mode (-connect) talks to a running daemon:
//
//	thinaird -connect http://localhost:9309 -list
//	thinaird -connect http://localhost:9309 -create -n 3 -erasure 0.45
//	thinaird -connect http://localhost:9309 -draw 1 -bytes 32
//	thinaird -connect http://localhost:9309 -close 1
//
// Cluster mode runs the multi-process tier (internal/cluster): a
// coordinator process owns the session registry and the public API, and
// supervised worker processes host the sessions over loopback UDP buses:
//
//	thinaird coordinator -addr :9309 -workers 3 -worker-capacity 16
//	thinaird worker -ctl 127.0.0.1:0 -capacity 16    # normally spawned by the coordinator
//
// The client-mode flags work against a coordinator too — the tiers share
// the /v1/sessions API shape.
//
// Gate mode runs the persistent-connection front tier: long-lived
// frame-protocol connections (and WebSocket upgrades) multiplexing key
// draws and stream ranges, served straight from owning workers:
//
//	thinaird gate -addr :9310 -coordinator http://localhost:9309
//	thinaird gate -addr :9310 -ws-addr :9311    # also ws://…:9311/v1/gate
//
// Observability: every mode takes -debug-addr to mount pprof,
// /debug/trace and /metrics on a separate listener, and `thinaird
// trace` renders a span's edge → worker → engine chain:
//
//	thinaird -addr :9309 -debug-addr 127.0.0.1:6060
//	thinaird trace -connect http://localhost:9309 -span 01ab23cd45ef6789
package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "coordinator":
			runCoordinator(os.Args[2:])
			return
		case "worker":
			runWorker(os.Args[2:])
			return
		case "gate":
			runGate(os.Args[2:])
			return
		case "trace":
			runTrace(os.Args[2:])
			return
		}
	}
	var (
		// Serve mode.
		addr        = flag.String("addr", ":9309", "HTTP listen address (serve mode)")
		maxSessions = flag.Int("max-sessions", 64, "bound on concurrently running sessions")
		maxQueued   = flag.Int("max-queued", 64, "bound on sessions waiting for a slot")
		drain       = flag.Duration("drain", 10*time.Second, "graceful shutdown drain window")
		sessions    = flag.Int("sessions", 0, "number of sessions to pre-create at startup")
		debugAddr   = flag.String("debug-addr", "", "serve pprof + /debug/trace + /metrics on this extra address")

		// Session parameters (pre-created sessions and -create).
		n       = flag.Int("n", 3, "terminals per group")
		erasure = flag.Float64("erasure", 0.45, "per-link erasure probability")
		x       = flag.Int("x", 90, "x-packets per round")
		payload = flag.Int("payload", 16, "payload bytes per x-packet")
		udp     = flag.Bool("udp", false, "run each keystream block's exchange over loopback UDP instead of in-process channels")
		observe = flag.Bool("observe", false, "attach a wire-level eavesdropper to each session")
		low     = flag.Int("low-water", 1024, "pool bytes below which the background refresher reads more keystream")
		seed    = flag.Int64("seed", 0, "base seed pinning the pre-created sessions' streams, for tests and demos (0: each session draws its own)")

		// Client mode.
		connect = flag.String("connect", "", "daemon base URL; switches to client mode")
		list    = flag.Bool("list", false, "client: list sessions")
		create  = flag.Bool("create", false, "client: create a session from the session flags")
		draw    = flag.Uint("draw", 0, "client: draw key material from this session id")
		drawLen = flag.Int("bytes", 32, "client: bytes to draw")
		closeID = flag.Uint("close", 0, "client: close this session id")
	)
	flag.Parse()

	spec := service.SessionSpec{
		Terminals: *n, Erasure: *erasure, XPerRound: *x, PayloadBytes: *payload,
		Rotate: true, UDP: *udp, Observe: *observe, LowWater: *low,
	}

	if *connect != "" {
		runClient(*connect, spec, *list, *create, *draw, *drawLen, *closeID)
		return
	}
	if *debugAddr != "" {
		// Serve mode's service.New defaults to the process-wide registry
		// and span ring, so the debug surface sees the same instruments.
		defer enableDebug(*debugAddr, obs.Default(), obs.DefaultSpans())()
	}
	runServe(*addr, service.Config{
		MaxSessions: *maxSessions, MaxQueued: *maxQueued, DrainTimeout: *drain,
	}, spec, *sessions, *seed)
}

// runServe serves the daemon with sessions pre-created from spec. A
// non-zero seed pins boot session i to seed + 1009·i; with none, each
// draws its own.
func runServe(addr string, cfg service.Config, spec service.SessionSpec, sessions int, seed int64) {
	sv := service.New(cfg)
	for i := 0; i < sessions; i++ {
		sp := spec
		sp.Name = fmt.Sprintf("boot-%d", i)
		if seed != 0 {
			sp.Seed = seed + int64(i)*1009
		}
		s, err := sv.Create(sp)
		fatal(err)
		fmt.Printf("thinaird: created session %d (%s)\n", s.ID, sp.Name)
	}

	srv := &http.Server{Addr: addr, Handler: sv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("thinaird: serving on %s (%d max sessions)\n", addr, cfg.MaxSessions)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("thinaird: %v — draining sessions\n", sig)
	case err := <-errc:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout+5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	if err := sv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "thinaird: shutdown:", err)
		os.Exit(1)
	}
	fmt.Println("thinaird: all sessions drained, pools zeroized")
}

func runClient(base string, spec service.SessionSpec, list, create bool, draw uint, drawLen int, closeID uint) {
	switch {
	case list:
		clientJSON(http.MethodGet, base+"/v1/sessions", nil)
	case create:
		clientJSON(http.MethodPost, base+"/v1/sessions", spec)
	case draw != 0:
		// Draws go through the unified Client API — the same interface
		// (and error mapping) the gate's frame protocol serves.
		c := client.NewHTTP(base)
		defer c.Close()
		key, err := c.Draw(context.Background(), uint64(draw), drawLen)
		fatal(err)
		out, err := json.MarshalIndent(map[string]any{
			"session": draw, "bytes": len(key), "key": hex.EncodeToString(key),
		}, "", "  ")
		fatal(err)
		fmt.Printf("%s\n", out)
	case closeID != 0:
		clientJSON(http.MethodDelete, fmt.Sprintf("%s/v1/sessions/%d", base, closeID), nil)
	default:
		clientJSON(http.MethodGet, base+"/healthz", nil)
	}
}

// clientJSON performs one API call and pretty-prints the JSON response;
// an error response prints its typed message and exits 1.
func clientJSON(method, url string, body any) {
	var out json.RawMessage
	fatal(httpapi.DoJSON(context.Background(), http.DefaultClient, method, url, body, &out))
	var pretty bytes.Buffer
	if json.Indent(&pretty, out, "", "  ") == nil {
		out = pretty.Bytes()
	}
	fmt.Printf("%s\n", out)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "thinaird:", err)
		os.Exit(1)
	}
}
