package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/gate"
	"repro/internal/obs"
	"repro/internal/service"
)

// stack is the system under test, all in this process: a coordinator
// supervising two workers that serve real loopback /ctl HTTP, and a gate
// on a loopback TCP listener resolving owners through the coordinator.
type stack struct {
	co      *cluster.Coordinator
	workers *workerSet
	backend *gate.ClusterBackend
	gate    *gate.Gate
	addr    string
	// reg holds the coordinator's, the backend's and the gate's metrics;
	// each worker keeps its own registry (see WorkerConfig.Obs).
	reg *obs.Registry
}

func quiet(string, ...any) {}

// startStack brings the tiers up. With a non-nil tracer the workers'
// /ctl handlers and the gate's backend are wrapped in the benchmark's
// span recorders; the program itself is unchanged either way.
func startStack(tr *tracer) (*stack, error) {
	reg := obs.New()
	ws := &workerSet{tr: tr, bySlot: make(map[int]*cluster.Worker)}
	co, err := cluster.New(cluster.Config{
		Workers: 2,
		Spawn:   ws.spawn,
		Logf:    quiet,
		Obs:     reg,
		Spans:   obs.NewSpanLog(obs.DefaultSpanCapacity),
	})
	if err != nil {
		return nil, err
	}
	backend := gate.NewClusterBackend(gate.ClusterBackendConfig{
		Resolver: gate.LocalResolver{C: co},
		Obs:      reg,
	})
	var be gate.Backend = backend
	if tr != nil {
		be = tracedBackend{inner: backend, tr: tr}
	}
	g := gate.New(gate.Config{
		Backend: be,
		Obs:     reg,
		Spans:   obs.NewSpanLog(obs.DefaultSpanCapacity),
		Logf:    quiet,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.Close()
		backend.Close()
		co.Shutdown(context.Background())
		return nil, err
	}
	go g.Serve(ln) // returns once Close shuts the listener
	return &stack{co: co, workers: ws, backend: backend, gate: g, addr: ln.Addr().String(), reg: reg}, nil
}

// close tears the stack down: the gate first (kicking its clients), then
// the coordinator, which drains every worker and zeroizes every pool.
func (st *stack) close() error {
	st.gate.Close()
	st.backend.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return st.co.Shutdown(ctx)
}

// session resolves a cluster session to the service session hosting it,
// through the worker handle the benchmark's spawner kept.
func (st *stack) session(cid uint64) (*service.Session, error) {
	oi, err := st.co.Owner(cid)
	if err != nil {
		return nil, err
	}
	w := st.workers.get(oi.Worker)
	if w == nil {
		return nil, fmt.Errorf("session %d: no worker in slot %d", cid, oi.Worker)
	}
	m, err := w.Metrics(cid)
	if err != nil {
		return nil, err
	}
	return w.Service().Get(m.ID)
}

// workerSet is the benchmark's SpawnFunc. It mirrors cluster.InProcess,
// except that it keeps each *cluster.Worker so probes and counter reads
// can reach it, and wraps the worker's handler for the cluster.ctl span.
type workerSet struct {
	tr     *tracer
	mu     sync.Mutex
	bySlot map[int]*cluster.Worker
}

func (ws *workerSet) get(slot int) *cluster.Worker {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.bySlot[slot]
}

func (ws *workerSet) all() []*cluster.Worker {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	out := make([]*cluster.Worker, 0, len(ws.bySlot))
	for _, w := range ws.bySlot {
		out = append(out, w)
	}
	return out
}

// snapshot merges every worker's registry into one snapshot.
func (ws *workerSet) snapshot() obs.Snapshot {
	var snap obs.Snapshot
	for _, w := range ws.all() {
		snap.Merge(w.Obs().Snapshot())
	}
	return snap
}

func (ws *workerSet) spawn(_ context.Context, opts cluster.WorkerSpawnOpts) (cluster.WorkerProc, error) {
	w := cluster.NewWorker(cluster.WorkerConfig{Capacity: opts.Capacity, DrainTimeout: opts.DrainTimeout})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.Service().Shutdown(context.Background())
		return nil, err
	}
	h := w.Handler()
	if ws.tr != nil {
		h = ws.tr.ctlHandler(h)
	}
	p := &workerProc{
		worker: w,
		srv:    &http.Server{Handler: h},
		url:    "http://" + ln.Addr().String(),
		done:   make(chan struct{}),
	}
	go p.srv.Serve(ln) // returns once shutdown closes the server
	go func() {
		// A drained worker exits, as a supervised worker process would.
		<-w.Drained()
		p.shutdown(false)
	}()
	ws.mu.Lock()
	ws.bySlot[opts.Slot] = w
	ws.mu.Unlock()
	return p, nil
}

// workerProc is cluster.WorkerProc for a worker hosted in this process.
type workerProc struct {
	worker *cluster.Worker
	srv    *http.Server
	url    string
	once   sync.Once
	done   chan struct{}
}

func (p *workerProc) URL() string           { return p.url }
func (p *workerProc) PID() int              { return os.Getpid() }
func (p *workerProc) Done() <-chan struct{} { return p.done }

// shutdown stops the worker. hard stands in for SIGKILL: the listener
// closes first and sessions are cut without a drain window.
func (p *workerProc) shutdown(hard bool) {
	p.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if hard {
			cancel()
			_ = p.srv.Close()
		} else {
			_ = p.srv.Shutdown(ctx)
		}
		_ = p.worker.Drain(ctx) // a no-op when the drain RPC got here first
		cancel()
		close(p.done)
	})
}

func (p *workerProc) Stop(ctx context.Context) error {
	go p.shutdown(false)
	select {
	case <-p.done:
		return nil
	case <-ctx.Done():
		p.shutdown(true)
		return ctx.Err()
	}
}

func (p *workerProc) Kill() error {
	p.shutdown(true)
	return nil
}

// tracedBackend is the gate.backend span: a gate.Backend around the
// cluster backend, timing each call that carries a benchmark request id.
type tracedBackend struct {
	inner gate.Backend
	tr    *tracer
}

func (b tracedBackend) Draw(ctx context.Context, session uint64, n int) ([]byte, error) {
	id, ok := b.tr.requestID(obs.SpanID(ctx))
	if !ok {
		return b.inner.Draw(ctx, session, n)
	}
	start := b.tr.now()
	key, err := b.inner.Draw(ctx, session, n)
	b.tr.record(id, layerGate, start, b.tr.now())
	return key, err
}

func (b tracedBackend) StreamTo(ctx context.Context, session uint64, off, n int64, w io.Writer) (int64, error) {
	id, ok := b.tr.requestID(obs.SpanID(ctx))
	if !ok {
		return b.inner.StreamTo(ctx, session, off, n, w)
	}
	start := b.tr.now()
	written, err := b.inner.StreamTo(ctx, session, off, n, w)
	b.tr.record(id, layerGate, start, b.tr.now())
	return written, err
}
