package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestUnseededSessionsDrawTheirOwnSeed: two sessions created over HTTP
// from the same body with no seed serve different streams, and no
// response mentions the seed. A shared default seed would hand every
// daemon's sessions of one shape the same key.
func TestUnseededSessionsDrawTheirOwnSeed(t *testing.T) {
	sv := New(Config{MaxSessions: 4, DrainTimeout: 5 * time.Second})
	defer sv.Shutdown(context.Background())
	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()

	call := func(method, path, body string) string {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode >= 300 {
			t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, out)
		}
		if strings.Contains(strings.ToLower(string(out)), "seed") {
			t.Fatalf("%s %s answered with the seed: %s", method, path, out)
		}
		return string(out)
	}
	const spec = `{"terminals":3,"erasure":0.4,"lowwater":256}`
	var streams []string
	for range 2 {
		call(http.MethodPost, "/v1/sessions", spec)
	}
	for _, s := range sv.Sessions() {
		if err := s.WaitReady(context.Background()); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, call(http.MethodGet, fmt.Sprintf("/v1/sessions/%d/stream?offset=0&len=32", s.ID), ""))
		call(http.MethodGet, fmt.Sprintf("/v1/sessions/%d", s.ID), "")
	}
	call(http.MethodGet, "/v1/sessions", "")
	if len(streams) != 2 {
		t.Fatalf("%d sessions, want 2", len(streams))
	}
	if streams[0] == streams[1] {
		t.Fatal("two unseeded sessions serve the same stream")
	}
}
