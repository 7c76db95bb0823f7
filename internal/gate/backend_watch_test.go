package gate

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpapi"
	"repro/internal/obs"
)

// flakyResolver records every epoch poll and fails them while failing is
// set — the stub coordinator for the watch-backoff regression.
type flakyResolver struct {
	mu      sync.Mutex
	polls   []time.Time
	failing bool
}

func (r *flakyResolver) Owner(context.Context, uint64) (cluster.OwnerInfo, error) {
	return cluster.OwnerInfo{}, cluster.ErrNotFound
}

func (r *flakyResolver) EpochSince(context.Context, uint64) (uint64, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.polls = append(r.polls, time.Now())
	if r.failing {
		return 0, false, cluster.ErrUnreachable
	}
	return 1, false, nil
}

func (r *flakyResolver) setFailing(v bool) {
	r.mu.Lock()
	r.failing = v
	r.mu.Unlock()
}

func (r *flakyResolver) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.polls)
}

func (r *flakyResolver) snapshot() []time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Time(nil), r.polls...)
}

// TestWatchBackoffOnErrors is the regression for the synchronized-hammer
// bug: the watch poller used a fixed ticker with no backoff, so a fleet
// of gates kept up full poll pressure against a coordinator exactly
// while it was down. Consecutive poll errors must now stretch the poll
// interval exponentially (capped), and one success must snap it back.
func TestWatchBackoffOnErrors(t *testing.T) {
	res := &flakyResolver{}
	res.setFailing(true)
	const base = 20 * time.Millisecond
	b := NewClusterBackend(ClusterBackendConfig{
		Resolver:   res,
		WatchEvery: base,
		Obs:        obs.New(),
	})
	defer b.Close()

	// Failure phase: a fixed 20ms ticker would poll ~30 times in 600ms.
	// With doubling backoff the schedule is ~20,40,80,160,320(cap)… so
	// only a handful of polls may land.
	time.Sleep(30 * base)
	failPolls := res.count()
	if failPolls == 0 {
		t.Fatal("watcher never polled")
	}
	if failPolls > 10 {
		t.Fatalf("%d polls against a failing coordinator in %v — backoff is not engaging", failPolls, 30*base)
	}
	// The gaps must actually grow: somewhere in the failure phase two
	// consecutive polls are at least 4 base periods apart.
	snap := res.snapshot()
	var maxGap time.Duration
	for i := 1; i < len(snap); i++ {
		if g := snap[i].Sub(snap[i-1]); g > maxGap {
			maxGap = g
		}
	}
	if len(snap) >= 2 && maxGap < 4*base*3/4 { // 3/4: jitter's lower bound
		t.Fatalf("max gap between failing polls %v, want >= ~%v", maxGap, 4*base)
	}
	if b.watchErrs.Value() == 0 {
		t.Fatal("watch error counter never incremented")
	}

	// Recovery: after one success the poller returns to the base period.
	res.setFailing(false)
	deadline := time.Now().Add(30 * base * watchBackoffCap / 16)
	for res.count() == failPolls && time.Now().Before(deadline) {
		time.Sleep(base / 2)
	}
	recovered := res.count()
	if recovered == failPolls {
		t.Fatal("watcher never polled again after the resolver recovered")
	}
	time.Sleep(15 * base)
	// ≥ 15 base periods elapsed since recovery; at the base rate (±25%
	// jitter) that is ~12 polls — anything ≥ 5 proves the backoff reset.
	if got := res.count() - recovered; got < 5 {
		t.Fatalf("only %d polls in %v after recovery — interval did not reset", got, 15*base)
	}
}

// TestJitterDuration pins the jitter envelope: [0.75d, 1.25d), and the
// values actually vary (per-gate desynchronization is the point).
func TestJitterDuration(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const d = 500 * time.Millisecond
	seen := map[time.Duration]bool{}
	for i := 0; i < 1000; i++ {
		j := jitterDuration(rng, d)
		if j < d*3/4 || j > d*5/4 {
			t.Fatalf("jitter %v outside [%v, %v]", j, d*3/4, d*5/4)
		}
		seen[j] = true
	}
	if len(seen) < 100 {
		t.Fatalf("only %d distinct jitter values in 1000 draws", len(seen))
	}
	if jitterDuration(rng, 0) != 0 {
		t.Fatal("zero duration must stay zero")
	}
}

// TestHTTPResolverCancelIsTheCallers: a lookup whose context has ended
// answers the context's own error, not ErrUnreachable. ErrUnreachable
// means the coordinator is gone, which the watch loop backs off from;
// the caller giving up says nothing about the coordinator.
func TestHTTPResolverCancelIsTheCallers(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, cluster.OwnerInfo{Session: 1, URL: "http://worker", State: "assigned"})
	}))
	defer ts.Close()
	r := NewHTTPResolver(ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Owner(ctx, 1); !errors.Is(err, context.Canceled) || errors.Is(err, cluster.ErrUnreachable) {
		t.Fatalf("Owner with a cancelled context: %v, want context.Canceled", err)
	}
	if _, _, err := r.EpochSince(ctx, 0); !errors.Is(err, context.Canceled) || errors.Is(err, cluster.ErrUnreachable) {
		t.Fatalf("EpochSince with a cancelled context: %v, want context.Canceled", err)
	}
	if oi, err := r.Owner(context.Background(), 1); err != nil || oi.URL != "http://worker" {
		t.Fatalf("Owner with a live context: %+v, %v", oi, err)
	}
}
