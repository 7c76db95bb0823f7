package cluster

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// The e2e harness boots the cluster tier the way an operator does: it
// builds cmd/thinaird with `go build`, starts one coordinator process
// (which itself spawns and supervises the worker processes), and drives
// everything over the public HTTP API. Nothing in-process: the
// coordinator, the workers, and every UDP bus live in their own OS
// processes, so these tests prove the tier across real process and
// socket boundaries. Skipped under -short like the UDP soak test; set
// THINAIR_SOAK=1 for the bigger CI variant.

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// buildThinaird compiles cmd/thinaird once per test binary run into a
// temp dir (Go's build cache makes repeats cheap).
func buildThinaird(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "thinaird-e2e-")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "thinaird")
		cmd := exec.Command("go", "build", "-o", buildBin, "repro/cmd/thinaird")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	t.Cleanup(func() {}) // the temp dir is tiny; left to the OS tmp reaper
	return buildBin
}

// coordProc is one coordinator OS process under test.
type coordProc struct {
	t    *testing.T
	cmd  *exec.Cmd
	base string // public API base URL
	exit chan error
}

// startCoordinator launches `thinaird coordinator` and waits for its
// ready line. Worker processes are spawned by the coordinator itself —
// the harness never touches them except to SIGKILL one by pid.
func startCoordinator(t *testing.T, bin string, extra ...string) *coordProc {
	t.Helper()
	args := append([]string{
		"coordinator",
		"-addr", "127.0.0.1:0",
		"-heartbeat", "100ms",
		"-heartbeat-misses", "3",
		"-respawn-backoff", "100ms",
		"-drain", "30s",
	}, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	cp := &coordProc{t: t, cmd: cmd, exit: make(chan error, 1)}
	go func() { cp.exit <- cmd.Wait() }()
	go logLines(t, "coordinator[stderr]", stderr)

	readyc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "THINAIRD_COORDINATOR_READY"); ok {
				readyc <- strings.TrimPrefix(strings.TrimSpace(rest), "url=")
			}
			t.Logf("coordinator: %s", line)
		}
	}()
	select {
	case url := <-readyc:
		cp.base = url
	case err := <-cp.exit:
		t.Fatalf("coordinator exited before ready: %v", err)
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("coordinator never became ready")
	}
	t.Cleanup(func() {
		if cp.cmd.ProcessState == nil {
			_ = cp.cmd.Process.Kill()
			<-cp.exit
		}
	})
	return cp
}

func logLines(t *testing.T, label string, r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		t.Logf("%s: %s", label, sc.Text())
	}
}

func (cp *coordProc) getJSON(path string, out any) int {
	cp.t.Helper()
	resp, err := http.Get(cp.base + path)
	if err != nil {
		cp.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

func (cp *coordProc) postJSON(path string, body, out any) int {
	cp.t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			cp.t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	resp, err := http.Post(cp.base+path, "application/json", rd)
	if err != nil {
		cp.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

func (cp *coordProc) create(t *testing.T, spec service.SessionSpec) SessionInfo {
	t.Helper()
	var info SessionInfo
	if code := cp.postJSON("/v1/sessions", spec, &info); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	return info
}

// draw fetches n key bytes, tolerating the retryable statuses (409 while
// the refresher catches up, 503 while a reassignment is in flight).
func (cp *coordProc) draw(t *testing.T, cid uint64, n int, within time.Duration) []byte {
	t.Helper()
	var key []byte
	waitFor(t, within, fmt.Sprintf("draw from session %d", cid), func() bool {
		var dr drawResponse
		code := cp.postJSON(fmt.Sprintf("/v1/sessions/%d/draw?bytes=%d", cid, n), nil, &dr)
		if code != http.StatusOK {
			return false
		}
		raw, err := hex.DecodeString(dr.Key)
		if err != nil || len(raw) != n {
			t.Fatalf("draw returned %q (%v)", dr.Key, err)
		}
		key = raw
		return true
	})
	return key
}

func (cp *coordProc) cluster(t *testing.T) ClusterMetrics {
	t.Helper()
	var cm ClusterMetrics
	if code := cp.getJSON("/v1/cluster", &cm); code != http.StatusOK {
		t.Fatalf("cluster metrics: status %d", code)
	}
	return cm
}

func (cp *coordProc) waitAllConverged(t *testing.T, ids []uint64, target int, within time.Duration) {
	t.Helper()
	waitFor(t, within, "all sessions converged", func() bool {
		var list []SessionInfo
		if cp.getJSON("/v1/sessions", &list) != http.StatusOK {
			return false
		}
		ready := make(map[uint64]bool)
		for _, si := range list {
			if si.State == sessionAssigned && si.Metrics != nil && si.Metrics.Pool.Available >= target {
				ready[si.ID] = true
			}
		}
		for _, id := range ids {
			if !ready[id] {
				return false
			}
		}
		return true
	})
}

// shutdownAndCheckOrphans SIGTERMs the coordinator, waits for a clean
// exit, and asserts every worker process ever seen is gone.
func (cp *coordProc) shutdownAndCheckOrphans(t *testing.T, workerPIDs map[int]bool) {
	t.Helper()
	if err := cp.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-cp.exit:
		if err != nil {
			t.Fatalf("coordinator exit: %v", err)
		}
	case <-time.After(90 * time.Second):
		_ = cp.cmd.Process.Kill()
		t.Fatal("coordinator did not exit after SIGTERM")
	}
	// Workers are children of the coordinator; with it gone cleanly, no
	// worker process may remain.
	for pid := range workerPIDs {
		waitFor(t, 10*time.Second, fmt.Sprintf("worker pid %d to disappear", pid), func() bool {
			err := syscall.Kill(pid, 0)
			return errors.Is(err, syscall.ESRCH)
		})
	}
}

// collectWorkerPIDs records every pid the cluster has exposed (restarts
// produce new ones; all must be gone at teardown).
func collectWorkerPIDs(cm ClusterMetrics, into map[int]bool) {
	for _, wi := range cm.Workers {
		if wi.PID != 0 {
			into[wi.PID] = true
		}
	}
}

// TestClusterE2EProcesses is the acceptance harness: 1 coordinator + 3
// worker OS processes, >= 16 sessions converging over real UDP sockets,
// key draws routed across the process boundary, the same-seed pair on
// two different worker processes producing identical key streams, one
// worker SIGKILLed mid-round with full recovery, and a graceful
// SIGTERM teardown leaving zero orphan processes.
func TestClusterE2EProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level e2e skipped in -short")
	}
	sessions := 16
	if os.Getenv("THINAIR_SOAK") != "" {
		sessions = 24
	}
	bin := buildThinaird(t)
	cp := startCoordinator(t, bin, "-workers", "3", "-worker-capacity", "12")
	pids := make(map[int]bool)
	collectWorkerPIDs(cp.cluster(t), pids)
	if cm := cp.cluster(t); cm.WorkersAlive != 3 {
		t.Fatalf("workers alive = %d, want 3", cm.WorkersAlive)
	}

	// Session 0 and 1 are the determinism probe: identical spec + seed.
	// Least-loaded placement puts consecutive creates on different
	// workers, so the pair spans two OS processes.
	spec := fastSpec(987654)
	var ids []uint64
	var infos []SessionInfo
	for i := 0; i < sessions; i++ {
		sp := spec
		sp.Name = sessionName(i)
		if i > 1 {
			sp.Seed = int64(9000 + i*31)
		}
		info := cp.create(t, sp)
		ids = append(ids, info.ID)
		infos = append(infos, info)
	}
	if infos[0].Worker == infos[1].Worker {
		t.Fatalf("determinism probe pair landed on one worker (%d)", infos[0].Worker)
	}

	cp.waitAllConverged(t, ids, spec.TargetDepth, 180*time.Second)

	// Same seed, same key stream — across two worker processes.
	ka := cp.draw(t, ids[0], 64, 30*time.Second)
	kb := cp.draw(t, ids[1], 64, 30*time.Second)
	if !bytes.Equal(ka, kb) {
		t.Fatal("same spec and seed on different worker processes produced different key streams")
	}
	// Every session serves draws through the coordinator.
	for _, id := range ids[2:] {
		cp.draw(t, id, 32, 30*time.Second)
	}

	// Chaos: SIGKILL the worker owning the probe session, mid-round (the
	// draws above pushed pools toward the watermark, so refreshers are
	// running protocol rounds).
	victimSlot := infos[0].Worker
	var victimPID int
	for _, wi := range cp.cluster(t).Workers {
		if wi.Slot == victimSlot {
			victimPID = wi.PID
		}
	}
	if victimPID == 0 {
		t.Fatalf("no pid for slot %d", victimSlot)
	}
	if err := syscall.Kill(victimPID, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}

	// The coordinator must replace the worker and reassign its sessions;
	// draws must succeed again from every session.
	waitFor(t, 120*time.Second, "worker respawn + session reassignment", func() bool {
		cm := cp.cluster(t)
		collectWorkerPIDs(cm, pids)
		if cm.WorkersAlive != 3 || cm.Reassigned == 0 {
			return false
		}
		var list []SessionInfo
		if cp.getJSON("/v1/sessions", &list) != http.StatusOK {
			return false
		}
		assigned := 0
		for _, si := range list {
			if si.State == sessionAssigned {
				assigned++
			}
		}
		return assigned == len(ids)
	})
	for _, id := range ids {
		cp.draw(t, id, 32, 120*time.Second)
	}
	cm := cp.cluster(t)
	if cm.Restarts == 0 {
		t.Fatalf("no worker restart recorded after SIGKILL: %+v", cm)
	}
	collectWorkerPIDs(cm, pids)
	if len(pids) < 4 {
		t.Fatalf("expected a fresh worker pid after the kill, saw %v", pids)
	}

	// Fleet observability after chaos: /v1/cluster/metrics merges every
	// live worker's registry, and the coordinator derives no blocks
	// itself — so the fleet total must equal the sum of direct per-worker
	// scrapes. Background refreshers advance the counts between reads, so
	// retry until one pass brackets the fleet scrape with two identical
	// worker sums.
	const blocksFamily = "thinaird_keystream_block_derive_seconds"
	scrapeWorkers := func() (float64, bool) {
		var sum float64
		for _, wi := range cp.cluster(t).Workers {
			if !wi.Alive {
				continue
			}
			resp, err := http.Get(wi.URL + "/ctl/metrics")
			if err != nil {
				return 0, false
			}
			var snap obs.Snapshot
			err = json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
			if err != nil {
				return 0, false
			}
			sum += snap.Total(blocksFamily)
		}
		return sum, true
	}
	var fleet obs.Snapshot
	waitFor(t, 60*time.Second, "fleet metrics to equal the worker sum", func() bool {
		before, ok := scrapeWorkers()
		if !ok || before == 0 {
			return false
		}
		fleet = obs.Snapshot{}
		if cp.getJSON("/v1/cluster/metrics", &fleet) != http.StatusOK {
			return false
		}
		after, ok := scrapeWorkers()
		return ok && after == before && fleet.Total(blocksFamily) == before
	})
	rf := fleet.Family(blocksFamily)
	if rf == nil || len(rf.Series) == 0 || rf.Series[0].Hist == nil {
		t.Fatalf("fleet view lacks the merged %s histogram", blocksFamily)
	}
	if h := rf.Series[0].Hist; h.Count == 0 || h.P99 <= 0 {
		t.Fatalf("merged fleet histogram missing quantiles: count=%d p99=%g", h.Count, h.P99)
	}

	cp.shutdownAndCheckOrphans(t, pids)
}

// TestClusterE2EGracefulDrain boots a smaller tier, verifies draws stop
// with 410 Gone after a tier-wide drain (pools zeroized everywhere, not
// just locally), and checks orphan-freedom on the happy path too.
func TestClusterE2EGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level e2e skipped in -short")
	}
	bin := buildThinaird(t)
	cp := startCoordinator(t, bin, "-workers", "2", "-worker-capacity", "4")
	pids := make(map[int]bool)
	collectWorkerPIDs(cp.cluster(t), pids)

	spec := fastSpec(13131)
	info := cp.create(t, spec)
	cp.waitAllConverged(t, []uint64{info.ID}, spec.TargetDepth, 120*time.Second)
	cp.draw(t, info.ID, 48, 30*time.Second)

	cp.shutdownAndCheckOrphans(t, pids)
}
