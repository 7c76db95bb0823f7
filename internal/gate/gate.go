package gate

import (
	"context"
	"errors"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config parameterizes a Gate.
type Config struct {
	// Backend serves the key-material reads (required).
	Backend Backend
	// HeartbeatEvery is the heartbeat interval advertised in the
	// handshake ack; connections silent for 3× the interval are kicked.
	// 0 disables heartbeat enforcement (and the per-conn timers with it
	// — the mock-client bench runs 100k+ connections this way).
	HeartbeatEvery time.Duration
	// MaxPending bounds in-flight requests per connection; further data
	// frames wait in the socket (TCP backpressure). 0 means 32.
	MaxPending int
	// Obs is the metrics registry. Nil means obs.Default().
	Obs *obs.Registry
	// Spans is the span ring gate-tier events are recorded to. Nil means
	// obs.DefaultSpans().
	Spans *obs.SpanLog
	// Logf receives connection-level events. Nil means log.Printf.
	Logf func(format string, args ...any)
}

// Gate accepts persistent client connections speaking the frame
// protocol and serves their draw/bulk-draw/stream-range requests from
// its Backend. One Gate serves plain TCP listeners (Serve), raw
// connections (ServeConn — the bench's net.Pipe path) and WebSocket
// upgrades (WSHandler) at the same time.
type Gate struct {
	cfg Config

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	agents map[*agent]struct{}
	lns    map[net.Listener]struct{}
	closed bool

	obsReg *obs.Registry
	spans  *obs.SpanLog

	connections       *obs.Gauge
	handshakes        *obs.Counter
	kicks             *obs.Counter
	heartbeatTimeouts *obs.Counter
	framesIn          *obs.Counter
	framesOut         *obs.Counter
	drawOK, drawErr   *obs.Histogram
	strOK, strErr     *obs.Histogram
}

// New builds a Gate. Call Close to kick every connection and stop.
func New(cfg Config) *Gate {
	if cfg.Backend == nil {
		panic("gate: Config.Backend is required")
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 32
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.Default()
	}
	if cfg.Spans == nil {
		cfg.Spans = obs.DefaultSpans()
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	ctx, cancel := context.WithCancel(context.Background())
	g := &Gate{
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		agents: make(map[*agent]struct{}),
		lns:    make(map[net.Listener]struct{}),
		obsReg: cfg.Obs,
		spans:  cfg.Spans,
	}
	r := cfg.Obs
	g.connections = r.Gauge("thinaird_gate_connections",
		"Client connections currently held open by the gate.")
	g.handshakes = r.Counter("thinaird_gate_handshakes_total",
		"Completed client handshakes.")
	g.kicks = r.Counter("thinaird_gate_kicks_total",
		"Connections closed server-side with a kick frame.")
	g.heartbeatTimeouts = r.Counter("thinaird_gate_heartbeat_timeouts_total",
		"Connections kicked after 3 missed heartbeat intervals.")
	frames := r.CounterVec("thinaird_gate_frames_total",
		"Protocol frames by direction.", "dir")
	g.framesIn = frames.With("in")
	g.framesOut = frames.With("out")
	draw := r.HistogramVec("thinaird_gate_draw_seconds",
		"Gate draw/bulk-draw request latency.", obs.LatencyBuckets, "outcome")
	g.drawOK, g.drawErr = draw.With("ok"), draw.With("error")
	str := r.HistogramVec("thinaird_gate_stream_seconds",
		"Gate stream-range request latency.", obs.LatencyBuckets, "outcome")
	g.strOK, g.strErr = str.With("ok"), str.With("error")
	if cfg.HeartbeatEvery > 0 {
		g.wg.Add(1)
		go g.sweep()
	}
	return g
}

// Serve accepts connections from ln until the gate closes or the
// listener fails. Each connection gets its own agent goroutine.
func (g *Gate) Serve(ln net.Listener) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		ln.Close()
		return errors.New("gate: closed")
	}
	g.lns[ln] = struct{}{}
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.lns, ln)
		g.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if g.ctx.Err() != nil {
				return nil
			}
			return err
		}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.ServeConn(conn)
		}()
	}
}

// ServeConn runs the frame protocol on one already-accepted connection,
// blocking until it closes. The bench drives net.Pipe server halves
// through here; the WebSocket handler feeds it upgraded connections.
func (g *Gate) ServeConn(conn net.Conn) {
	a := &agent{g: g, conn: conn}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		conn.Close()
		return
	}
	g.agents[a] = struct{}{}
	g.mu.Unlock()
	g.connections.Add(1)
	defer func() {
		g.mu.Lock()
		delete(g.agents, a)
		g.mu.Unlock()
		g.connections.Add(-1)
		conn.Close()
	}()
	a.run()
}

// Close kicks every connection, closes every listener and waits for the
// agents to wind down.
func (g *Gate) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.wg.Wait()
		return nil
	}
	g.closed = true
	agents := make([]*agent, 0, len(g.agents))
	for a := range g.agents {
		agents = append(agents, a)
	}
	lns := make([]net.Listener, 0, len(g.lns))
	for ln := range g.lns {
		lns = append(lns, ln)
	}
	g.mu.Unlock()
	g.cancel()
	for _, ln := range lns {
		ln.Close()
	}
	for _, a := range agents {
		a.kick("gate shutting down")
	}
	g.wg.Wait()
	return nil
}

// sweep is the heartbeat enforcer: one goroutine for the whole gate
// (never per-connection timers), kicking connections silent for more
// than 3 heartbeat intervals.
func (g *Gate) sweep() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-g.ctx.Done():
			return
		case <-t.C:
		}
		deadline := time.Now().Add(-3 * g.cfg.HeartbeatEvery).UnixNano()
		g.mu.Lock()
		var stale []*agent
		for a := range g.agents {
			if last := a.lastSeen.Load(); last != 0 && last < deadline {
				stale = append(stale, a)
			}
		}
		g.mu.Unlock()
		for _, a := range stale {
			g.heartbeatTimeouts.Inc()
			a.kick("heartbeat timeout")
		}
	}
}
