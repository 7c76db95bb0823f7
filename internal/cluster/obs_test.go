package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// obsTestCluster builds a coordinator with a private registry and span
// ring (never the process defaults, so parallel tests don't cross-talk)
// over in-process workers, which mint their own private registries.
func obsTestCluster(t *testing.T, workers int) (*Coordinator, *httptest.Server) {
	t.Helper()
	cfg := testConfig(nil)
	cfg.Workers = workers
	cfg.Obs = obs.New()
	cfg.Spans = obs.NewSpanLog(256)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		srv.Close()
		c.Shutdown(context.Background())
	})
	return c, srv
}

// TestDrawSpanChainsEdgeToEngine is the acceptance check for cross-tier
// tracing: one draw through the coordinator yields a single span whose
// record chains the HTTP edge, the worker that served the RPC, and the
// engine round counters — all under the id echoed on the response.
func TestDrawSpanChainsEdgeToEngine(t *testing.T) {
	c, srv := obsTestCluster(t, 2)

	spec := fastSpec(2024)
	spec.Name = "span-chain"
	info, err := c.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c, info.ID, spec.TargetDepth)

	resp, err := http.Post(srv.URL+"/v1/sessions/1/draw?bytes=32", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draw status %d", resp.StatusCode)
	}
	span := resp.Header.Get(obs.SpanHeader)
	if span == "" {
		t.Fatalf("draw response did not echo %s", obs.SpanHeader)
	}

	evs := c.FleetTrace(context.Background(), span)
	tiers := make(map[string][]obs.SpanEvent)
	for _, ev := range evs {
		if ev.Span != span {
			t.Fatalf("trace for %s contains foreign span %s", span, ev.Span)
		}
		tiers[ev.Tier] = append(tiers[ev.Tier], ev)
	}
	for _, tier := range []string{"edge", "worker", "engine"} {
		if len(tiers[tier]) == 0 {
			t.Fatalf("span %s has no %s event; got %+v", span, tier, evs)
		}
	}
	if got := tiers["engine"][0].Attrs["rounds"]; got == "" || got == "0" {
		t.Fatalf("engine event carries no round count: %+v", tiers["engine"][0])
	}
	// The HTTP surface serves the same merged view.
	hr, err := http.Get(srv.URL + "/debug/trace?span=" + span)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var hevs []obs.SpanEvent
	if err := json.NewDecoder(hr.Body).Decode(&hevs); err != nil {
		t.Fatal(err)
	}
	if len(hevs) != len(evs) {
		t.Fatalf("/debug/trace returned %d events, FleetTrace %d", len(hevs), len(evs))
	}
	for i := 1; i < len(hevs); i++ {
		if hevs[i].Time.Before(hevs[i-1].Time) {
			t.Fatalf("trace events not time-sorted: %+v", hevs)
		}
	}
}

// TestFleetMetricsMergeAcrossWorkers: /v1/cluster/metrics folds every
// worker's registry into the coordinator's own — draw latency observed
// inside two different worker processes lands in one bucket-merged
// histogram, and the coordinator's RPC instrumentation rides alongside.
func TestFleetMetricsMergeAcrossWorkers(t *testing.T) {
	c, srv := obsTestCluster(t, 2)

	for i, seed := range []int64{7001, 7002} {
		spec := fastSpec(seed)
		spec.Name = "fleet-" + string(rune('a'+i))
		info, err := c.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitConverged(t, c, info.ID, spec.TargetDepth)
	}
	// Least-loaded placement puts the two sessions on different workers.
	for cid := uint64(1); cid <= 2; cid++ {
		if _, err := c.Draw(context.Background(), cid, 16); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fleet obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}

	if got := fleet.Total("thinaird_cluster_rpc_seconds"); got == 0 {
		t.Fatal("fleet view lacks coordinator RPC latency observations")
	}
	blocks := fleet.Family("thinaird_keystream_block_derive_seconds")
	if blocks == nil || len(blocks.Series) == 0 || blocks.Series[0].Hist == nil {
		t.Fatalf("fleet view lacks merged block-derive histogram: %+v", blocks)
	}
	h := blocks.Series[0].Hist
	if h.Count == 0 || h.P99 <= 0 {
		t.Fatalf("merged histogram has no quantiles: count=%d p99=%g", h.Count, h.P99)
	}

	// The merged total must equal the sum of the per-worker scrapes —
	// the coordinator derives no blocks itself.
	var workerSum float64
	for _, cl := range c.aliveClients() {
		snap, err := cl.ObsSnapshot(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		n := snap.Total("thinaird_keystream_block_derive_seconds")
		if n == 0 {
			t.Fatal("a worker served draws but derived no blocks")
		}
		workerSum += n
	}
	// Re-scrape the fleet: derivations may have advanced between the
	// two reads, so compare against a fresh merged view instead.
	fresh := c.FleetSnapshot(context.Background())
	if got := fresh.Total("thinaird_keystream_block_derive_seconds"); got < workerSum {
		t.Fatalf("fleet total %g < sum of worker scrapes %g", got, workerSum)
	}

	// The prom rendering of the fleet view is lint-clean.
	resp2, err := http.Get(srv.URL + "/v1/cluster/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if issues := obs.Lint(strings.NewReader(string(body))); len(issues) > 0 {
		t.Fatalf("fleet prom view not lint-clean:\n%s", strings.Join(issues, "\n"))
	}
	if !strings.Contains(string(body), "thinaird_keystream_block_derive_seconds_bucket") {
		t.Fatal("fleet prom view lacks merged histogram buckets")
	}
}

// TestCoordinatorMetricsEndpointLintClean: the coordinator's own
// /metrics (legacy cluster families + registry snapshot, concatenated)
// must stay one valid exposition — no duplicate families, HELP on
// everything, escaped label values.
func TestCoordinatorMetricsEndpointLintClean(t *testing.T) {
	c, srv := obsTestCluster(t, 2)

	spec := fastSpec(31415)
	info, err := c.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c, info.ID, spec.TargetDepth)
	if _, err := c.Draw(context.Background(), info.ID, 8); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if issues := obs.Lint(strings.NewReader(string(body))); len(issues) > 0 {
		t.Fatalf("/metrics not lint-clean:\n%s\nexposition:\n%s",
			strings.Join(issues, "\n"), body)
	}
	for _, want := range []string{
		"# HELP thinaird_cluster_workers_alive ",
		"# TYPE thinaird_cluster_rpc_seconds histogram",
		`thinaird_cluster_rpc_seconds_bucket{op="draw",le="+Inf"}`,
		"thinaird_cluster_respawns_total 0",
		"thinaird_cluster_reassignments_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Each counter is exported once, by its registry family.
	for _, dup := range []string{
		"thinaird_cluster_sessions_reassigned_total",
		"thinaird_cluster_worker_restarts_total",
	} {
		if strings.Contains(string(body), dup) {
			t.Errorf("/metrics still exports the duplicate %q", dup)
		}
	}
}
