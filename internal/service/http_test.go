package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func doJSON(t *testing.T, h http.Handler, method, path, body string, wantStatus int) map[string]any {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("%s %s: status %d, want %d (body %s)", method, path, rec.Code, wantStatus, rec.Body)
	}
	out := map[string]any{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: bad JSON: %v (%s)", method, path, err, rec.Body)
	}
	return out
}

func TestHTTPSurface(t *testing.T) {
	sv := New(Config{MaxSessions: 2, MaxQueued: 1, DrainTimeout: 5 * time.Second})
	defer sv.Shutdown(context.Background())
	h := sv.Handler()

	if got := doJSON(t, h, "GET", "/healthz", "", http.StatusOK); got["status"] != "ok" {
		t.Fatalf("healthz = %v", got)
	}

	spec := fastSpec(31337)
	spec.Name = "http-grp"
	body, _ := json.Marshal(spec)
	created := doJSON(t, h, "POST", "/v1/sessions", string(body), http.StatusCreated)
	id := fmt.Sprint(int(created["id"].(float64)))

	s, err := sv.Get(uint64(created["id"].(float64)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	got := doJSON(t, h, "GET", "/v1/sessions/"+id, "", http.StatusOK)
	if got["name"] != "http-grp" || got["state"] != "running" {
		t.Fatalf("session snapshot = %v", got)
	}

	draw := doJSON(t, h, "POST", "/v1/sessions/"+id+"/draw?bytes=48", "", http.StatusOK)
	if key, _ := draw["key"].(string); len(key) != 96 { // hex doubles
		t.Fatalf("draw = %v", draw)
	}
	// A draw beyond the pool is backpressure, not a 500.
	doJSON(t, h, "POST", "/v1/sessions/"+id+"/draw?bytes=1000000", "", http.StatusConflict)
	doJSON(t, h, "POST", "/v1/sessions/"+id+"/draw?bytes=0", "", http.StatusBadRequest)

	// Prometheus text surface.
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	for _, want := range []string{
		"thinaird_sessions_running 1",
		`thinaird_session_pool_available_bytes{session="1",name="http-grp"}`,
		"thinaird_session_refreshes_total",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("metrics output missing %q:\n%s", want, rec.Body)
		}
	}

	list := doJSON(t, h, "GET", "/v1/sessions", "", http.StatusOK)
	if n := len(list["sessions"].([]any)); n != 1 {
		t.Fatalf("list sessions = %d", n)
	}

	doJSON(t, h, "DELETE", "/v1/sessions/"+id, "", http.StatusOK)
	doJSON(t, h, "GET", "/v1/sessions/"+id, "", http.StatusNotFound)
	doJSON(t, h, "GET", "/v1/sessions/notanid", "", http.StatusBadRequest)
}

func TestHTTPSaturation(t *testing.T) {
	sv := New(Config{MaxSessions: 1, MaxQueued: 1, DrainTimeout: time.Second})
	defer sv.Shutdown(context.Background())
	h := sv.Handler()
	body, _ := json.Marshal(fastSpec(1))
	doJSON(t, h, "POST", "/v1/sessions", string(body), http.StatusCreated)
	doJSON(t, h, "POST", "/v1/sessions", string(body), http.StatusCreated)
	doJSON(t, h, "POST", "/v1/sessions", string(body), http.StatusTooManyRequests)
	doJSON(t, h, "POST", "/v1/sessions", "{not json", http.StatusBadRequest)
}
