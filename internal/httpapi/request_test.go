package httpapi_test

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/httpapi"
	"repro/internal/obs"
)

// TestDoContract pins the client half of the contract on one stub
// server: a JSON body and the span header go out, a status of 400 or
// above comes back as its typed error without reaching read, a 304 does
// reach read, an unread body is drained so the connection is reused, a
// transport failure is ErrUnreachable and a cancelled call is the
// context's own error.
func TestDoContract(t *testing.T) {
	var conns atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /echo", func(w http.ResponseWriter, r *http.Request) {
		var in map[string]int
		if r.Header.Get("Content-Type") != "application/json" || json.NewDecoder(r.Body).Decode(&in) != nil {
			httpapi.Error(w, http.StatusBadRequest, httpapi.CodeBadRequest, errors.New("want a JSON body"))
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"n": in["n"] + 1, "span": r.Header.Get(obs.SpanHeader)})
	})
	mux.HandleFunc("GET /unchanged", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotModified)
	})
	mux.HandleFunc("GET /draining", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteError(w, httpapi.ErrDraining)
	})
	mux.HandleFunc("GET /big", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(strings.Repeat("x", 64<<10)))
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if id, ok := httpapi.SessionID(w, r); ok {
			httpapi.WriteJSON(w, http.StatusOK, id)
		}
	})
	ts := httptest.NewUnstartedServer(mux)
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	hc := ts.Client()
	ctx := context.Background()

	var out struct {
		N    int    `json:"n"`
		Span string `json:"span"`
	}
	if err := httpapi.DoJSON(obs.WithSpan(ctx, "0123abcd"), hc, http.MethodPost, ts.URL+"/echo",
		map[string]int{"n": 41}, &out); err != nil || out.N != 42 || out.Span != "0123abcd" {
		t.Fatalf("DoJSON echo: %+v, %v; want n 42 and the span header", out, err)
	}

	status := 0
	if err := httpapi.Do(ctx, hc, http.MethodGet, ts.URL+"/unchanged", nil, func(resp *http.Response) error {
		status = resp.StatusCode
		return nil
	}); err != nil || status != http.StatusNotModified {
		t.Fatalf("Do on a 304: status %d, err %v; want read to see 304", status, err)
	}

	err := httpapi.Do(ctx, hc, http.MethodGet, ts.URL+"/draining", nil, func(*http.Response) error {
		t.Fatal("read saw an error response")
		return nil
	})
	if !errors.Is(err, httpapi.ErrDraining) {
		t.Fatalf("Do on a 503 draining: %v, want ErrDraining", err)
	}

	var id uint64
	if err := httpapi.DoJSON(ctx, hc, http.MethodGet, ts.URL+"/v1/sessions/18446744073709551615", nil, &id); err != nil || id != 1<<64-1 {
		t.Fatalf("SessionID of the largest id: %d, %v", id, err)
	}
	if err := httpapi.DoJSON(ctx, hc, http.MethodGet, ts.URL+"/v1/sessions/x", nil, nil); !errors.Is(err, httpapi.ErrBadRequest) {
		t.Fatalf("SessionID of a malformed id: %v, want ErrBadRequest", err)
	}

	before := conns.Load()
	for i := 0; i < 3; i++ {
		if err := httpapi.Do(ctx, hc, http.MethodGet, ts.URL+"/big", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load() - before; n != 0 {
		t.Fatalf("three unread 64 KiB bodies opened %d new connections, want 0 (drained and reused)", n)
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := httpapi.DoJSON(cctx, hc, http.MethodGet, ts.URL+"/unchanged", nil, nil); !errors.Is(err, context.Canceled) || errors.Is(err, httpapi.ErrUnreachable) {
		t.Fatalf("cancelled call: %v, want context.Canceled and not ErrUnreachable", err)
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL + "/unchanged"
	dead.Close()
	if err := httpapi.DoJSON(ctx, hc, http.MethodGet, url, nil, nil); !errors.Is(err, httpapi.ErrUnreachable) {
		t.Fatalf("call to a closed server: %v, want ErrUnreachable", err)
	}
	if err := httpapi.Do(ctx, hc, http.MethodGet, "://bad", nil, nil); err == nil || errors.Is(err, httpapi.ErrUnreachable) {
		t.Fatalf("malformed URL: %v, want a request error", err)
	}
	if err := httpapi.DoJSON(ctx, hc, http.MethodPost, ts.URL+"/echo", func() {}, nil); err == nil {
		t.Fatal("a body that cannot be marshalled was sent")
	}
}
