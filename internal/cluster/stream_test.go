package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/keypool"
)

// TestCoordinatorStreamRangeRouting: the bulk stream surface routes to
// the owning worker and addresses the session's keystream, so a range on
// one session equals the same bytes of its same-seed twin placed on a
// different worker — at offset 0, where the twin's first pool draw reads
// them, and at any other offset.
func TestCoordinatorStreamRangeRouting(t *testing.T) {
	c, err := New(testConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	ctx := context.Background()

	spec := fastSpec(7373)
	a, err := c.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Worker == b.Worker {
		t.Fatalf("same-seed pair landed on one worker (%d)", a.Worker)
	}
	waitConverged(t, c, a.ID, spec.TargetDepth)
	waitConverged(t, c, b.ID, spec.TargetDepth)

	streamed, err := c.StreamRange(ctx, a.ID, 0, 96)
	if err != nil {
		t.Fatal(err)
	}
	drawn, err := c.Draw(ctx, b.ID, 96)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, drawn) {
		t.Fatal("routed stream read != same-seed draw: range and pool disagree on the keystream")
	}
	// Ranges are addressed, not consumed: the twin's offset range is the
	// same bytes, and so is a re-read after the twin's draw.
	for _, id := range []uint64{b.ID, a.ID, a.ID} {
		got, err := c.StreamRange(ctx, id, 64, 32)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, drawn[64:]) {
			t.Fatalf("session %d: range [64,96) != the same bytes of the keystream", id)
		}
	}

	// Unknown sessions surface the typed not-found error through the RPC.
	if _, err := c.StreamRange(ctx, 99999, 0, 32); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown session: got %v, want ErrNotFound", err)
	}
}

// TestWorkerRangeBeforeStreamUp: on the worker tier, a range on a session
// queued behind the worker's capacity answers exhausted — the retry
// signal — and is served once the session runs.
func TestWorkerRangeBeforeStreamUp(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w, cl := newTestWorker(t, WorkerConfig{Capacity: 1})
	spec := fastSpec(81)
	spec.UDP = true // the coordinator's default cluster shape
	for cid := uint64(1); cid <= 2; cid++ {
		spec.Seed = int64(80 + cid)
		if _, err := cl.Assign(ctx, cid, spec); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, "second session queued", func() bool {
		m := w.Service().Metrics()
		return m.Running == 1 && m.Queued == 1
	})
	if _, err := cl.StreamRange(ctx, 2, 4096, 16); !errors.Is(err, keypool.ErrExhausted) {
		t.Fatalf("range on a queued session: %v, want keypool.ErrExhausted", err)
	}
	if err := cl.Close(ctx, 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "range served once the session runs", func() bool {
		_, err := cl.StreamRange(ctx, 2, 4096, 16)
		return err == nil
	})
}

// TestCoordinatorStreamHTTP exercises the public stream endpoint
// end-to-end: raw octet-stream body of exactly len bytes, and the shared
// parameter validation (400 on a bad len).
func TestCoordinatorStreamHTTP(t *testing.T) {
	c, err := New(testConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())

	spec := fastSpec(515)
	info, err := c.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c, info.ID, spec.TargetDepth)

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/sessions/1/stream?len=64")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream read: status %d body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}
	if len(body) != 64 {
		t.Fatalf("stream body: %d bytes, want 64", len(body))
	}

	resp, err = http.Get(srv.URL + "/v1/sessions/1/stream?len=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("len=0: status %d, want 400", resp.StatusCode)
	}
}
