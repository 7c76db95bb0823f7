package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/httpapi"
)

// TestCoordinatorHTTPSurface drives the public API end to end over
// HTTP: create, list, draw, prometheus, close — the same surface the
// thinaird client mode and the e2e harness use.
func TestCoordinatorHTTPSurface(t *testing.T) {
	cfg := testConfig(nil)
	cfg.Workers = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	post := func(path string, body any, out any) int {
		t.Helper()
		var rd io.Reader
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(raw)
		}
		resp, err := http.Post(srv.URL+path, "application/json", rd)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil {
			_ = json.NewDecoder(resp.Body).Decode(out)
		}
		return resp.StatusCode
	}
	get := func(path string, out any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil {
			_ = json.NewDecoder(resp.Body).Decode(out)
		}
		return resp.StatusCode
	}

	spec := fastSpec(1717)
	spec.Name = "http-grp"
	var info SessionInfo
	if code := post("/v1/sessions", spec, &info); code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	if info.ID == 0 || info.State != sessionAssigned {
		t.Fatalf("create info = %+v", info)
	}

	var list []SessionInfo
	if code := get("/v1/sessions", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("list status %d, %d sessions", code, len(list))
	}

	waitFor(t, 60*time.Second, "convergence over HTTP", func() bool {
		var si SessionInfo
		get(fmt.Sprintf("/v1/sessions/%d", info.ID), &si)
		return si.Metrics != nil && si.Metrics.Pool.Available >= spec.TargetDepth
	})

	var dr httpapi.DrawResponse
	if code := post(fmt.Sprintf("/v1/sessions/%d/draw?bytes=48", info.ID), nil, &dr); code != http.StatusOK {
		t.Fatalf("draw status %d", code)
	}
	if len(dr.Key) != 96 { // hex of 48 bytes
		t.Fatalf("draw key %q", dr.Key)
	}
	if code := post("/v1/sessions/404/draw", nil, nil); code != http.StatusNotFound {
		t.Fatalf("draw on unknown session: status %d", code)
	}

	var cm ClusterMetrics
	if code := get("/v1/cluster", &cm); code != http.StatusOK || cm.WorkersAlive != 2 {
		t.Fatalf("cluster status %d, %+v", code, cm)
	}
	for _, wi := range cm.Workers {
		if wi.PID == 0 || wi.URL == "" {
			t.Fatalf("worker info incomplete: %+v", wi)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"thinaird_cluster_workers_alive 2",
		"thinaird_cluster_sessions 1",
		"thinaird_cluster_sessions_created_total 1",
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, prom)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/sessions/%d", srv.URL, info.ID), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if code := get(fmt.Sprintf("/v1/sessions/%d", info.ID), nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", code)
	}
}
