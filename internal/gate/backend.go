package gate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/service"
)

// Backend serves the gate's two key-material reads. The cluster backend
// below talks directly to owning workers; ServiceBackend adapts a
// single-process Service for tests, demos and the bench's stub tier.
type Backend interface {
	// Draw consumes n bytes of the session's key material.
	Draw(ctx context.Context, session uint64, n int) ([]byte, error)
	// StreamTo writes the session's key-stream range [off, off+n) to w,
	// returning the bytes written. Short writes carry an error.
	StreamTo(ctx context.Context, session uint64, off, n int64, w io.Writer) (int64, error)
}

// Resolver answers session→worker ownership queries — the only thing
// the gate ever asks the coordinator. Owner is the cache-miss path;
// EpochSince is the cheap watch poll (returns changed=false while the
// ownership map hasn't moved past since).
type Resolver interface {
	Owner(ctx context.Context, session uint64) (cluster.OwnerInfo, error)
	EpochSince(ctx context.Context, since uint64) (epoch uint64, changed bool, err error)
}

// LocalResolver adapts an in-process Coordinator — examples and tests.
type LocalResolver struct {
	C *cluster.Coordinator
}

func (r LocalResolver) Owner(_ context.Context, session uint64) (cluster.OwnerInfo, error) {
	return r.C.Owner(session)
}

func (r LocalResolver) EpochSince(_ context.Context, since uint64) (uint64, bool, error) {
	e := r.C.OwnersEpoch()
	return e, e != since, nil
}

// HTTPResolver resolves ownership over the coordinator's /v1/cluster
// surface — the deployment shape, where the gate is its own process.
type HTTPResolver struct {
	base string
	hc   *http.Client
}

// NewHTTPResolver returns a resolver against the coordinator at base.
func NewHTTPResolver(base string) *HTTPResolver {
	return &HTTPResolver{base: base, hc: &http.Client{Timeout: 10 * time.Second}}
}

func (r *HTTPResolver) Owner(ctx context.Context, session uint64) (cluster.OwnerInfo, error) {
	var oi cluster.OwnerInfo
	err := httpapi.DoJSON(ctx, r.hc, http.MethodGet,
		r.base+"/v1/cluster/owners?session="+strconv.FormatUint(session, 10), nil, &oi)
	return oi, err
}

func (r *HTTPResolver) EpochSince(ctx context.Context, since uint64) (uint64, bool, error) {
	var om cluster.OwnerMap
	changed := false
	err := httpapi.Do(ctx, r.hc, http.MethodGet,
		r.base+"/v1/cluster/owners?epoch="+strconv.FormatUint(since, 10), nil,
		func(resp *http.Response) error {
			if resp.StatusCode == http.StatusNotModified {
				return nil // the map has not moved past since
			}
			changed = true
			return json.NewDecoder(resp.Body).Decode(&om)
		})
	if err != nil || !changed {
		return since, false, err
	}
	return om.Epoch, true, nil
}

// ClusterBackendConfig parameterizes NewClusterBackend.
type ClusterBackendConfig struct {
	// Resolver answers ownership queries (required).
	Resolver Resolver
	// WatchEvery is the epoch poll period driving proactive cache
	// invalidation. 0 means 500ms; negative disables the watcher (the
	// reactive invalidation on typed RPC errors still runs).
	WatchEvery time.Duration
	// Obs is the metrics registry. Nil means obs.Default().
	Obs *obs.Registry
}

// ClusterBackend serves draws and stream ranges straight from owning
// workers' /v1 session routes. Ownership is resolved once per session via the
// Resolver and cached; the cache invalidates two ways — reactively,
// when a worker RPC comes back with a stale-owner error (not-found,
// unreachable, draining), and proactively, when the watch poll sees the
// coordinator's ownership epoch move.
type ClusterBackend struct {
	res   Resolver
	watch time.Duration

	mu      sync.Mutex
	owners  map[uint64]*cluster.WorkerClient // session → its owner's client
	clients map[string]*cluster.WorkerClient // worker URL → shared client
	epoch   uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	obsReg                  *obs.Registry
	hits, misses, flushes   *obs.Counter
	invalidations           *obs.Counter
	watchErrs               *obs.Counter
	retriesAfterInvalidated *obs.Counter
}

// NewClusterBackend builds the backend and starts its watch poller.
// Call Close to stop it.
func NewClusterBackend(cfg ClusterBackendConfig) *ClusterBackend {
	if cfg.Obs == nil {
		cfg.Obs = obs.Default()
	}
	if cfg.WatchEvery == 0 {
		cfg.WatchEvery = 500 * time.Millisecond
	}
	b := &ClusterBackend{
		res:     cfg.Resolver,
		watch:   cfg.WatchEvery,
		owners:  make(map[uint64]*cluster.WorkerClient),
		clients: make(map[string]*cluster.WorkerClient),
		stop:    make(chan struct{}),
		obsReg:  cfg.Obs,
	}
	ev := cfg.Obs.CounterVec("thinaird_gate_owner_cache_total",
		"Gate ownership-cache events by kind.", "event")
	b.hits = ev.With("hit")
	b.misses = ev.With("miss")
	b.invalidations = ev.With("invalidate")
	b.flushes = ev.With("flush")
	b.watchErrs = cfg.Obs.Counter("thinaird_gate_owner_watch_errors_total",
		"Failed ownership-epoch polls against the coordinator.")
	b.retriesAfterInvalidated = cfg.Obs.Counter("thinaird_gate_owner_retries_total",
		"Worker RPCs retried against a freshly re-resolved owner.")
	if b.watch > 0 {
		b.wg.Add(1)
		go b.watchLoop()
	}
	return b
}

// Close stops the watch poller and drops cached connections.
func (b *ClusterBackend) Close() error {
	b.stopOnce.Do(func() { close(b.stop) })
	b.wg.Wait()
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, cl := range b.clients {
		cl.CloseIdle()
	}
	return nil
}

// watchBackoffCap bounds the error backoff at this multiple of the base
// poll period: 500ms base → 8s worst-case between polls against a dead
// coordinator.
const watchBackoffCap = 16

// jitterDuration spreads d over [0.75d, 1.25d) so independent pollers
// sharing a period drift apart instead of firing in lockstep.
func jitterDuration(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d*3/4 + time.Duration(rng.Int63n(int64(d)/2+1))
}

// watchLoop polls the coordinator's ownership epoch and flushes the
// session→owner cache whenever it moves: reassignments the gate has not
// tripped over yet (no failed RPC) are still picked up within one poll.
//
// Every wait is jittered ±25% — a fleet of gates restarted together (or
// all unblocked by one coordinator restart) must not converge on the
// same poll phase and hammer the coordinator in lockstep. Consecutive
// poll errors double the wait up to watchBackoffCap× the base period,
// so the pressure on a recovering coordinator falls off exactly when it
// is weakest; one successful poll snaps back to the base period.
func (b *ClusterBackend) watchLoop() {
	defer b.wg.Done()
	rng := rand.New(rand.NewSource(rand.Int63()))
	jittered := func(d time.Duration) time.Duration { return jitterDuration(rng, d) }
	fails := 0
	timer := time.NewTimer(jittered(b.watch))
	defer timer.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-timer.C:
		}
		b.mu.Lock()
		since := b.epoch
		b.mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), b.watch)
		epoch, changed, err := b.res.EpochSince(ctx, since)
		cancel()
		if err != nil {
			b.watchErrs.Inc()
			if fails < 31 { // avoid shift overflow; the cap kicks in long before
				fails++
			}
			backoff := b.watch << min(fails, 5)
			if backoff > watchBackoffCap*b.watch {
				backoff = watchBackoffCap * b.watch
			}
			timer.Reset(jittered(backoff))
			continue
		}
		fails = 0
		timer.Reset(jittered(b.watch))
		if !changed {
			continue
		}
		b.mu.Lock()
		flushed := len(b.owners)
		clear(b.owners)
		b.epoch = epoch
		b.mu.Unlock()
		if flushed > 0 {
			b.flushes.Add(uint64(flushed))
		}
	}
}

// invalidate drops one session's cached owner.
func (b *ClusterBackend) invalidate(session uint64) {
	b.mu.Lock()
	_, had := b.owners[session]
	delete(b.owners, session)
	b.mu.Unlock()
	if had {
		b.invalidations.Inc()
	}
}

// resolve returns the worker client owning session, consulting the
// cache first unless force re-resolves. Sessions the coordinator knows
// but cannot currently serve surface as ErrOrphaned (retryable) or, for
// permanently failed ones, service.ErrFailed.
func (b *ClusterBackend) resolve(ctx context.Context, session uint64, force bool) (*cluster.WorkerClient, error) {
	if !force {
		b.mu.Lock()
		cl := b.owners[session]
		b.mu.Unlock()
		if cl != nil {
			b.hits.Inc()
			return cl, nil
		}
	}
	b.misses.Inc()
	oi, err := b.res.Owner(ctx, session)
	if err != nil {
		return nil, err
	}
	if oi.URL == "" {
		if oi.State == "failed" {
			// Permanent session death, NOT a graceful close: surface the
			// dedicated sentinel so clients can tell the two apart.
			return nil, fmt.Errorf("session %d died permanently: %w", session, service.ErrFailed)
		}
		return nil, fmt.Errorf("%w: session %d", cluster.ErrOrphaned, session)
	}
	b.mu.Lock()
	cl := b.clients[oi.URL]
	if cl == nil {
		cl = cluster.NewWorkerClient(oi.URL).WithObs(b.obsReg)
		b.clients[oi.URL] = cl
	}
	b.owners[session] = cl
	b.mu.Unlock()
	return cl, nil
}

// staleOwner reports whether a worker RPC error means the cached
// ownership fact itself may be wrong — the worker no longer hosts the
// session (moved or died) rather than the session rejecting the read.
func staleOwner(err error) bool {
	return errors.Is(err, cluster.ErrNotFound) ||
		errors.Is(err, cluster.ErrUnreachable) ||
		errors.Is(err, cluster.ErrDraining)
}

// Draw draws n bytes from the owning worker, re-resolving ownership and
// retrying once when the cached owner turns out stale.
func (b *ClusterBackend) Draw(ctx context.Context, session uint64, n int) ([]byte, error) {
	cl, err := b.resolve(ctx, session, false)
	if err != nil {
		return nil, err
	}
	key, err := cl.Draw(ctx, session, n)
	if err != nil && staleOwner(err) {
		b.invalidate(session)
		cl, rerr := b.resolve(ctx, session, true)
		if rerr != nil {
			return nil, rerr
		}
		b.retriesAfterInvalidated.Inc()
		return cl.Draw(ctx, session, n)
	}
	return key, err
}

// StreamTo streams [off, off+n) from the owning worker into w. The
// stale-owner retry only runs while nothing has been written — once
// bytes reached w the client already saw them, and a retry would
// re-send the prefix.
func (b *ClusterBackend) StreamTo(ctx context.Context, session uint64, off, n int64, w io.Writer) (int64, error) {
	cl, err := b.resolve(ctx, session, false)
	if err != nil {
		return 0, err
	}
	written, err := cl.StreamRangeTo(ctx, session, off, n, w)
	if err != nil && written == 0 && staleOwner(err) {
		b.invalidate(session)
		cl, rerr := b.resolve(ctx, session, true)
		if rerr != nil {
			return 0, rerr
		}
		b.retriesAfterInvalidated.Inc()
		return cl.StreamRangeTo(ctx, session, off, n, w)
	}
	return written, err
}

// ServiceBackend adapts one in-process Service — the single-daemon gate
// shape, unit tests, and the conformance suite's gate arm.
type ServiceBackend struct {
	SV *service.Service
}

func (sb ServiceBackend) Draw(_ context.Context, session uint64, n int) ([]byte, error) {
	s, err := sb.get(session)
	if err != nil {
		return nil, err
	}
	return s.Draw(n)
}

func (sb ServiceBackend) StreamTo(_ context.Context, session uint64, off, n int64, w io.Writer) (int64, error) {
	s, err := sb.get(session)
	if err != nil {
		return 0, err
	}
	src, err := s.StreamRange(off, n)
	if err != nil {
		return 0, err
	}
	return io.CopyN(w, src, n)
}

func (sb ServiceBackend) get(session uint64) (*service.Session, error) {
	// Lookup (not Get) so a permanently dead session surfaces as
	// ErrFailed over the frame protocol too, matching the HTTP tiers.
	return sb.SV.Lookup(session)
}
