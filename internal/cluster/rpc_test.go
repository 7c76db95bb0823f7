package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// newTestWorker spins up a worker behind a real HTTP server and returns
// a client for its control RPC.
func newTestWorker(t *testing.T, cfg WorkerConfig) (*Worker, *WorkerClient) {
	t.Helper()
	w := NewWorker(cfg)
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = w.Drain(ctx)
		srv.Close()
	})
	return w, NewWorkerClient(srv.URL)
}

// TestWorkerControlRPCFailureStates is the table-driven contract for the
// worker-control RPC: each failure condition must come back over the
// wire as the exact typed error the coordinator's placement and routing
// logic switches on.
func TestWorkerControlRPCFailureStates(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cases := []struct {
		name string
		cfg  WorkerConfig
		// arrange runs against the fresh worker before the probed call.
		arrange func(t *testing.T, w *Worker, cl *WorkerClient)
		// act is the call whose error is checked.
		act     func(cl *WorkerClient) error
		wantErr error
	}{
		{
			name: "unreachable worker",
			arrange: func(t *testing.T, w *Worker, cl *WorkerClient) {
			},
			act: func(cl *WorkerClient) error {
				// A port nothing listens on: connection refused.
				dead := NewWorkerClient("http://127.0.0.1:1")
				_, err := dead.Assign(ctx, 1, fastSpec(1))
				return err
			},
			wantErr: ErrUnreachable,
		},
		{
			name: "assign to draining worker",
			arrange: func(t *testing.T, w *Worker, cl *WorkerClient) {
				if err := cl.Drain(ctx); err != nil {
					t.Fatal(err)
				}
			},
			act: func(cl *WorkerClient) error {
				_, err := cl.Assign(ctx, 7, fastSpec(7))
				return err
			},
			wantErr: ErrDraining,
		},
		{
			name: "double assign",
			arrange: func(t *testing.T, w *Worker, cl *WorkerClient) {
				if _, err := cl.Assign(ctx, 42, fastSpec(42)); err != nil {
					t.Fatal(err)
				}
			},
			act: func(cl *WorkerClient) error {
				_, err := cl.Assign(ctx, 42, fastSpec(43))
				return err
			},
			wantErr: ErrDuplicate,
		},
		{
			name: "assign beyond capacity",
			cfg:  WorkerConfig{Capacity: 1},
			arrange: func(t *testing.T, w *Worker, cl *WorkerClient) {
				// Capacity 1 admits one running plus one queued session.
				for cid := uint64(1); cid <= 2; cid++ {
					if _, err := cl.Assign(ctx, cid, fastSpec(int64(cid))); err != nil {
						t.Fatal(err)
					}
				}
			},
			act: func(cl *WorkerClient) error {
				_, err := cl.Assign(ctx, 3, fastSpec(3))
				return err
			},
			wantErr: service.ErrSaturated,
		},
		{
			name: "invalid spec",
			arrange: func(t *testing.T, w *Worker, cl *WorkerClient) {
			},
			act: func(cl *WorkerClient) error {
				bad := fastSpec(1)
				bad.Erasure = 1.5
				_, err := cl.Assign(ctx, 9, bad)
				return err
			},
			wantErr: nil, // generic RPC error: no retry class applies
		},
		{
			name: "draw from unknown session",
			arrange: func(t *testing.T, w *Worker, cl *WorkerClient) {
			},
			act: func(cl *WorkerClient) error {
				_, err := cl.Draw(ctx, 404, 16)
				return err
			},
			wantErr: ErrNotFound,
		},
		{
			name: "close unknown session",
			arrange: func(t *testing.T, w *Worker, cl *WorkerClient) {
			},
			act: func(cl *WorkerClient) error {
				return cl.Close(ctx, 404)
			},
			wantErr: ErrNotFound,
		},
		{
			name: "draw after drain finds nothing",
			arrange: func(t *testing.T, w *Worker, cl *WorkerClient) {
				if _, err := cl.Assign(ctx, 5, fastSpec(5)); err != nil {
					t.Fatal(err)
				}
				if err := cl.Drain(ctx); err != nil {
					t.Fatal(err)
				}
			},
			act: func(cl *WorkerClient) error {
				// The drained session is pruned from the worker's map, so the
				// draw misses rather than hitting a zeroized pool.
				_, err := cl.Draw(ctx, 5, 16)
				return err
			},
			wantErr: ErrNotFound,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, cl := newTestWorker(t, tc.cfg)
			tc.arrange(t, w, cl)
			err := tc.act(cl)
			if err == nil {
				t.Fatalf("call succeeded, want error %v", tc.wantErr)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("error = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestWorkerAssignDrawRoundTrip is the RPC happy path: assign, wait for
// the pool, draw, stats, close.
func TestWorkerAssignDrawRoundTrip(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, cl := newTestWorker(t, WorkerConfig{Capacity: 2})

	spec := fastSpec(99)
	if _, err := cl.Assign(ctx, 11, spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "pool fill over RPC", func() bool {
		m, err := cl.Metrics(ctx, 11)
		return err == nil && m.Pool.Available >= spec.TargetDepth
	})
	key, err := cl.Draw(ctx, 11, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(key) != 64 {
		t.Fatalf("drew %d bytes, want 64", len(key))
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sessions) != 1 || st.Sessions[11].Pool.Drawn != 64 {
		t.Fatalf("stats = %+v", st)
	}
	if err := cl.Close(ctx, 11); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Metrics(ctx, 11); !errors.Is(err, ErrNotFound) {
		t.Fatalf("metrics after close: %v, want ErrNotFound", err)
	}
}

// TestSingleSessionIDSpace: a worker hosts each session under its cluster
// id, so with sessions spread over two workers the coordinator's
// snapshot, the worker's /v1 route, WorkerClient.Metrics and the
// worker's /metrics all name session cid as cid.
func TestSingleSessionIDSpace(t *testing.T) {
	cfg := testConfig(nil)
	cfg.Workers = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx := context.Background()

	workers := make(map[int]bool)
	for i := range 3 {
		spec := fastSpec(int64(500 + i))
		spec.Name = fmt.Sprintf("idspace-%d", i)
		info, err := c.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		workers[info.Worker] = true
	}
	if len(workers) < 2 {
		t.Fatalf("sessions placed on %d workers, want at least 2", len(workers))
	}
	for cid := uint64(1); cid <= 3; cid++ {
		var info SessionInfo
		getJSON(t, fmt.Sprintf("%s/v1/sessions/%d", srv.URL, cid), &info)
		if info.Metrics == nil || info.Metrics.ID != cid {
			t.Fatalf("coordinator snapshot of session %d: metrics %+v, want id %d", cid, info.Metrics, cid)
		}
		wurl := c.Metrics().Workers[info.Worker].URL
		viaClient, err := NewWorkerClient(wurl).Metrics(ctx, cid)
		if err != nil {
			t.Fatal(err)
		}
		var viaRoute service.SessionMetrics
		getJSON(t, fmt.Sprintf("%s/v1/sessions/%d", wurl, cid), &viaRoute)
		if viaRoute.ID != cid || viaClient.ID != cid || viaRoute.Name != viaClient.Name || viaRoute.Name != info.Name {
			t.Fatalf("session %d: worker /v1 route answers %d %q, WorkerClient.Metrics %d %q, want id %d %q",
				cid, viaRoute.ID, viaRoute.Name, viaClient.ID, viaClient.Name, cid, info.Name)
		}
		resp, err := http.Get(wurl + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		prom, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := fmt.Sprintf(`session="%d",name=%q`, cid, info.Name); !strings.Contains(string(prom), want) {
			t.Fatalf("worker /metrics does not label session %d as %s", cid, want)
		}
	}
}

// getJSON fetches url and decodes its 200 JSON body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestOnlyControlAdvancesOrphanClock: the orphan clock measures
// coordinator silence, so draws and stream ranges through WorkerClient
// leave LastControlActivity where it was, and a control call advances
// it.
func TestOnlyControlAdvancesOrphanClock(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w, cl := newTestWorker(t, WorkerConfig{Capacity: 2})
	s, err := w.Assign(3, fastSpec(61))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	before := w.LastControlActivity()
	if _, err := cl.Draw(ctx, 3, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.StreamRange(ctx, 3, 0, 4096); err != nil {
		t.Fatal(err)
	}
	if got := w.LastControlActivity(); !got.Equal(before) {
		t.Fatalf("data-plane traffic moved the orphan clock from %v to %v", before, got)
	}
	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if got := w.LastControlActivity(); !got.After(before) {
		t.Fatalf("/ctl/healthz left the orphan clock at %v, want after %v", got, before)
	}
}

// TestWorkerRefusesOffBooksCreate: a worker creates sessions only through
// /ctl/assign, so the service's POST /v1/sessions is refused and leaves
// nothing the coordinator's reconcile could not see.
func TestWorkerRefusesOffBooksCreate(t *testing.T) {
	w, cl := newTestWorker(t, WorkerConfig{Capacity: 2})
	body, err := json.Marshal(fastSpec(62))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(cl.URL()+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 400 {
		t.Fatalf("POST /v1/sessions on a worker answered %d, want a refusal", resp.StatusCode)
	}
	if n := len(w.Service().Sessions()); n != 0 {
		t.Fatalf("worker service holds %d sessions after a refused create, want 0", n)
	}
}
