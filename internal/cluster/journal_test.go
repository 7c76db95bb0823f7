package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/service"
)

// streamedSpec is fastSpec kept on the in-process bus so the keystream
// stays offset-addressable: repeatable reads are what lets a test prove
// an adopted session serves byte-identical ranges.
func streamedSpec(seed int64) service.SessionSpec {
	sp := fastSpec(seed)
	sp.Streamed = true
	return sp
}

// TestJournalReplay pins the journal's round trip: every record kind
// applied on replay reproduces the state the coordinator recorded.
func TestJournalReplay(t *testing.T) {
	dir := t.TempDir()
	j, state, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if state != nil {
		t.Fatalf("fresh dir replayed state: %+v", state)
	}
	spec := fastSpec(42)
	recs := []journalRecord{
		{Op: jopWorker, Slot: 0, URL: "http://127.0.0.1:1", PID: 11, Epoch: 1},
		{Op: jopWorker, Slot: 1, URL: "http://127.0.0.1:2", PID: 12, Epoch: 2},
		{Op: jopCreate, ID: 1, Spec: &spec, Epoch: 2},
		{Op: jopPlace, ID: 1, Slot: 0, Epoch: 3},
		{Op: jopCreate, ID: 2, Spec: &spec, Epoch: 3},
		{Op: jopPlace, ID: 2, Slot: 1, Epoch: 4},
		{Op: jopCreate, ID: 3, Spec: &spec, Epoch: 4},
		{Op: jopPlace, ID: 3, Slot: 1, Epoch: 5},
		{Op: jopDown, Slot: 1, Epoch: 6},                         // orphans 2 and 3
		{Op: jopPlace, ID: 2, Slot: 0, Reassign: true, Epoch: 7}, // re-placed
		{Op: jopFail, ID: 3, Epoch: 8},                           // died permanently
		{Op: jopWorker, Slot: 1, URL: "http://127.0.0.1:3", PID: 13, Epoch: 9},
		{Op: jopCreate, ID: 4, Spec: &spec, Epoch: 9},
		{Op: jopClose, ID: 4, Epoch: 10},
		{Op: jopRetire, Slot: 0, Epoch: 11},
	}
	for _, rec := range recs {
		j.append(rec)
	}
	j.close()

	_, rs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rs == nil {
		t.Fatal("journaled dir replayed as fresh")
	}
	if rs.NextID != 5 {
		t.Fatalf("nextID = %d, want 5", rs.NextID)
	}
	if rs.Epoch != 11 {
		t.Fatalf("epoch = %d, want 11", rs.Epoch)
	}
	if len(rs.Sessions) != 3 {
		t.Fatalf("replayed %d sessions, want 3 (closed one must be gone)", len(rs.Sessions))
	}
	if s := rs.Sessions[1]; s == nil || s.State != sessionAssigned || s.Worker != 0 || s.Reassigns != 0 {
		t.Fatalf("session 1 replayed wrong: %+v", s)
	}
	if s := rs.Sessions[2]; s == nil || s.State != sessionAssigned || s.Worker != 0 || s.Reassigns != 1 {
		t.Fatalf("session 2 replayed wrong: %+v", s)
	}
	if s := rs.Sessions[3]; s == nil || s.State != sessionFailed || s.Worker != -1 {
		t.Fatalf("session 3 replayed wrong: %+v", s)
	}
	if w := rs.Workers[0]; w == nil || !w.Retired || w.Alive {
		t.Fatalf("worker 0 replayed wrong: %+v", w)
	}
	if w := rs.Workers[1]; w == nil || w.Retired || !w.Alive || w.URL != "http://127.0.0.1:3" {
		t.Fatalf("worker 1 replayed wrong: %+v", w)
	}
	if s := rs.Sessions[1]; s.Spec.Seed != spec.Seed || s.Spec.Terminals != spec.Terminals {
		t.Fatalf("spec (and its seed) did not survive replay: %+v", s.Spec)
	}
}

// TestJournalCompaction drives the journal past its threshold and
// verifies the snapshot+truncate cycle loses nothing, including a torn
// final line (the on-disk shape of a crash mid-append).
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := fastSpec(7)
	due := false
	for i := 1; i <= snapshotEvery; i++ {
		due = j.append(journalRecord{Op: jopCreate, ID: uint64(i), Spec: &spec, Epoch: uint64(i)})
	}
	if !due {
		t.Fatalf("%d appends did not request compaction", snapshotEvery)
	}
	// Compact the way the coordinator would, then keep appending.
	state := &registry{NextID: uint64(snapshotEvery + 1), Epoch: uint64(snapshotEvery), Sessions: sessionTable{}}
	for i := 1; i <= snapshotEvery; i++ {
		state.Sessions[uint64(i)] = &clusterSession{
			ID: uint64(i), Spec: spec, Worker: -1, State: sessionPlacing,
		}
	}
	j.compact(state)
	if fi, err := os.Stat(j.journalPath()); err != nil || fi.Size() != 0 {
		t.Fatalf("journal not truncated after compaction: %v size=%d", err, fi.Size())
	}
	j.append(journalRecord{Op: jopFail, ID: 3, Epoch: uint64(snapshotEvery + 1)})
	// A torn final line must not poison replay of everything before it.
	f, err := os.OpenFile(j.journalPath(), os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"close","id":`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	j.close()

	_, rs, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rs == nil || len(rs.Sessions) != snapshotEvery {
		t.Fatalf("replay after compaction lost sessions: %+v", rs)
	}
	if s := rs.Sessions[3]; s == nil || s.State != sessionFailed {
		t.Fatalf("post-snapshot journal record lost: %+v", s)
	}
	if rs.NextID != uint64(snapshotEvery+1) || rs.Epoch != uint64(snapshotEvery+1) {
		t.Fatalf("nextID/epoch wrong after compaction replay: %d/%d", rs.NextID, rs.Epoch)
	}
}

// restartMisses is the HeartbeatMisses of the restart tests: 40 probes
// of 50ms each, so a worker must stay silent for 2s before it counts as
// dead. These tests pin adoption and respawn counts; with the default 3,
// three slow probes on a loaded host killed a live worker and moved
// them. Neither needs heartbeats to find its dead worker — the
// successor's adoption probe does that — and
// TestCoordinatorHeartbeatDetection stays the test of detection.
const restartMisses = 40

// shutdownOrDump shuts c down within d. When the shutdown fails on a
// deadline — the coordinator's own, or one a worker's drain reported
// back over HTTP — it logs every goroutine's stack first, so a slow
// drain names what held it.
func shutdownOrDump(t *testing.T, c *Coordinator, d time.Duration) error {
	t.Helper()
	sctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	err := c.Shutdown(sctx)
	if err != nil && (errors.Is(err, context.DeadlineExceeded) || strings.Contains(err.Error(), context.DeadlineExceeded.Error())) {
		var stacks strings.Builder
		pprof.Lookup("goroutine").WriteTo(&stacks, 2)
		t.Logf("shutdown: %v; every goroutine:\n%s", err, stacks.String())
	}
	return err
}

// TestCoordinatorRestartAdoptsWorkers is the in-process restart chaos
// test: a coordinator with a state dir is abandoned crash-style (no
// drain, workers left running), and its successor on the same dir must
// re-adopt every surviving worker — zero spawns, zero reassignments,
// byte-identical stream ranges from the very same live sessions — while
// a permanently failed session stays failed across the restart.
func TestCoordinatorRestartAdoptsWorkers(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Config{
		Workers:         2,
		HeartbeatEvery:  50 * time.Millisecond,
		HeartbeatMisses: restartMisses,
		StateDir:        dir,
		Obs:             obs.New(),
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const n = 4
	var ids []uint64
	for i := 0; i < n; i++ {
		info, err := c1.Create(streamedSpec(int64(1000 + i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	// One deterministically doomed session: the failure verdict must
	// survive the restart too.
	dead := fastSpec(99)
	dead.Erasure = 0.999
	dead.XPerRound = 4
	dead.LowWater = 64
	dead.TargetDepth = 128
	deadInfo, err := c1.Create(dead)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 90*time.Second, "doomed session to fail", func() bool {
		_, err := c1.Draw(ctx, deadInfo.ID, 8)
		return errors.Is(err, service.ErrFailed)
	})

	refs := make([][]byte, n)
	for i, id := range ids {
		id := id
		waitFor(t, 60*time.Second, fmt.Sprintf("stream range from session %d", id), func() bool {
			key, err := c1.StreamRange(ctx, id, 0, 512)
			if err != nil {
				return false
			}
			refs[i] = key
			return true
		})
	}
	epochBefore := c1.OwnersEpoch()
	c1.Abandon() // crash-shaped: workers keep running

	// The successor must adopt, never spawn: a spawn attempt is the
	// failure.
	c2, err := New(Config{
		Workers:         2,
		HeartbeatEvery:  50 * time.Millisecond,
		HeartbeatMisses: restartMisses,
		StateDir:        dir,
		Obs:             obs.New(),
		Logf:            t.Logf,
		Spawn: func(context.Context, WorkerSpawnOpts) (WorkerProc, error) {
			return nil, errors.New("restart with surviving workers must adopt, not spawn")
		},
	})
	if err != nil {
		t.Fatalf("restart from journal: %v", err)
	}
	defer func() {
		if err := shutdownOrDump(t, c2, 60*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	if got := c2.adopted.Load(); got != n {
		t.Fatalf("adopted %d sessions, want %d", got, n)
	}
	if e := c2.OwnersEpoch(); e <= epochBefore {
		t.Fatalf("ownership epoch did not advance across restart: %d -> %d", epochBefore, e)
	}
	if cm := c2.Metrics(); cm.Restarts != 0 || cm.Reassigned != 0 {
		t.Fatalf("restart respawned/reassigned surviving sessions: %+v", cm)
	}
	for i, id := range ids {
		info, err := c2.Session(ctx, id)
		if err != nil {
			t.Fatalf("session %d after restart: %v", id, err)
		}
		if info.State != sessionAssigned || info.Reassigns != 0 {
			t.Fatalf("session %d not cleanly adopted: %+v", id, info)
		}
		got, err := c2.StreamRange(ctx, id, 0, 512)
		if err != nil {
			t.Fatalf("stream range from adopted session %d: %v", id, err)
		}
		if !bytes.Equal(got, refs[i]) {
			t.Fatalf("adopted session %d served different bytes for the same range", id)
		}
	}
	// Failure memory: the dead session answers failed, not not-found.
	if _, err := c2.Draw(ctx, deadInfo.ID, 8); !errors.Is(err, service.ErrFailed) {
		t.Fatalf("failed session after restart: err = %v, want ErrFailed", err)
	}
	// The id space must not rewind: a fresh create gets a fresh id.
	info, err := c2.Create(streamedSpec(777))
	if err != nil {
		t.Fatal(err)
	}
	if info.ID <= deadInfo.ID {
		t.Fatalf("id space rewound after restart: new id %d <= old id %d", info.ID, deadInfo.ID)
	}
}

// TestCoordinatorRestartRespawnsOnlyTheDead kills one of two workers
// between crash and restart: the successor must adopt the survivor
// (and its sessions) while spawning exactly one replacement and
// re-placing only the dead worker's sessions — which still serve
// byte-identical ranges, re-derived from their journaled seeds.
func TestCoordinatorRestartRespawnsOnlyTheDead(t *testing.T) {
	dir := t.TempDir()
	base := InProcess(nil)
	procs := make(map[int]WorkerProc)
	c1, err := New(Config{
		Workers:         2,
		HeartbeatEvery:  50 * time.Millisecond,
		HeartbeatMisses: restartMisses,
		StateDir:        dir,
		Obs:             obs.New(),
		Logf:            t.Logf,
		Spawn: func(ctx context.Context, opts WorkerSpawnOpts) (WorkerProc, error) {
			p, err := base(ctx, opts)
			if err == nil {
				procs[opts.Slot] = p
			}
			return p, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const n = 4
	ids := make([]uint64, 0, n)
	bySlot := make(map[uint64]int)
	refs := make(map[uint64][]byte)
	for i := 0; i < n; i++ {
		info, err := c1.Create(streamedSpec(int64(2000 + i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		bySlot[info.ID] = info.Worker
	}
	for _, id := range ids {
		id := id
		waitFor(t, 60*time.Second, fmt.Sprintf("stream range from session %d", id), func() bool {
			key, err := c1.StreamRange(ctx, id, 0, 256)
			if err != nil {
				return false
			}
			refs[id] = key
			return true
		})
	}
	c1.Abandon()
	_ = procs[1].Kill() // this worker does not survive the outage

	spawns := 0
	c2, err := New(Config{
		Workers:         2,
		HeartbeatEvery:  50 * time.Millisecond,
		HeartbeatMisses: restartMisses,
		StateDir:        dir,
		Obs:             obs.New(),
		Logf:            t.Logf,
		Spawn: func(ctx context.Context, opts WorkerSpawnOpts) (WorkerProc, error) {
			spawns++
			return base(ctx, opts)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = shutdownOrDump(t, c2, 60*time.Second)
	}()

	if spawns != 1 {
		t.Fatalf("spawned %d workers, want exactly 1 (the dead slot)", spawns)
	}
	survivors, lost := 0, 0
	for _, id := range ids {
		if bySlot[id] == 0 {
			survivors++
		} else {
			lost++
		}
	}
	if got := c2.adopted.Load(); got != int64(survivors) {
		t.Fatalf("adopted %d sessions, want %d (the survivor's)", got, survivors)
	}
	// Every session — adopted or re-placed — must serve the same bytes.
	for _, id := range ids {
		id := id
		waitFor(t, 60*time.Second, fmt.Sprintf("session %d after partial recovery", id), func() bool {
			got, err := c2.StreamRange(ctx, id, 0, 256)
			return err == nil && bytes.Equal(got, refs[id])
		})
		info, err := c2.Session(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		wantReassigns := 0
		if bySlot[id] != 0 {
			wantReassigns = 1
		}
		if info.Reassigns != wantReassigns {
			t.Fatalf("session %d reassigns = %d, want %d", id, info.Reassigns, wantReassigns)
		}
	}
	if lost > 0 {
		if cm := c2.Metrics(); cm.Reassigned != int64(lost) {
			t.Fatalf("reassigned %d sessions, want %d (only the dead worker's)", cm.Reassigned, lost)
		}
	}
}

// TestAdoptedProbeReusesConnection: an adopted worker's liveness probes
// share one keep-alive connection, a typed error answer still counts as
// reachable, and a worker that stopped answering is gone.
func TestAdoptedProbeReusesConnection(t *testing.T) {
	var conns atomic.Int64
	var probes atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if probes.Add(1) > 5 {
			httpapi.WriteError(w, ErrDraining)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	p := newAdoptedProc(srv.URL, 0)
	for i := 0; i < 10; i++ {
		if !p.reachable() {
			t.Fatalf("probe %d: a live worker is unreachable", i)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("10 probes opened %d connections, want 1", n)
	}
	srv.Close()
	if p.reachable() {
		t.Fatal("a closed worker is still reachable")
	}
}

// TestOwnersEpochAdvancesAcrossRestart: a successor coordinator resumes
// the ownership epoch strictly above the last one its predecessor
// published, so a gate polling the epoch refreshes every cached owner
// after the restart.
func TestOwnersEpochAdvancesAcrossRestart(t *testing.T) {
	cfg := Config{
		StateDir:       t.TempDir(),
		HeartbeatEvery: time.Hour,
		Obs:            obs.New(),
		Logf:           t.Logf,
	}
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Create(streamedSpec(1)); err != nil {
		t.Fatal(err)
	}
	before := c1.OwnersEpoch()
	c1.Abandon()

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownWithin(c2, 30*time.Second)
	if after := c2.OwnersEpoch(); after <= before {
		t.Fatalf("ownership epoch %d before the crash, %d after the restart: a gate keeps its stale owners", before, after)
	}
}

// TestShutdownSnapshotRecordsWorkersDown: a drained tier's final
// snapshot holds no live worker, so the next boot has no URL of an
// exited process to probe.
func TestShutdownSnapshotRecordsWorkersDown(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{
		Workers:        1,
		StateDir:       dir,
		HeartbeatEvery: time.Hour,
		Obs:            obs.New(),
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := shutdownOrDump(t, c, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"alive": true`)) {
		t.Fatalf("the final snapshot records a drained worker alive:\n%s", raw)
	}
}

// counterValue reads one unlabeled counter from a registry, -1 when the
// family does not exist.
func counterValue(reg *obs.Registry, name string) float64 {
	for _, f := range reg.Snapshot().Families {
		if f.Name == name && len(f.Series) == 1 {
			return f.Series[0].Value
		}
	}
	return -1
}

// TestJournalFailureIsLoggedAndCounted: a journal that stops taking
// writes does not stop the control plane, but it is not silent either:
// the first failure is logged and every failure is counted.
func TestJournalFailureIsLoggedAndCounted(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	reg := obs.New()
	c, err := New(Config{
		Workers:        1,
		StateDir:       t.TempDir(),
		HeartbeatEvery: time.Hour,
		Obs:            reg,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownWithin(c, 30*time.Second)
	c.jnl.mu.Lock()
	c.jnl.f.Close()
	c.jnl.mu.Unlock()

	if _, err := c.Create(streamedSpec(2)); err != nil {
		t.Fatalf("create with a failing journal: %v", err)
	}
	// The create and the place record both failed.
	if n := counterValue(reg, "thinaird_cluster_journal_errors_total"); n < 2 {
		t.Fatalf("thinaird_cluster_journal_errors_total = %v, want >= 2", n)
	}
	mu.Lock()
	defer mu.Unlock()
	var failures []string
	for _, l := range logs {
		if strings.Contains(l, "journal") && strings.Contains(l, os.ErrClosed.Error()) {
			failures = append(failures, l)
		}
	}
	if len(failures) != 1 {
		t.Fatalf("journal failure logged %d times, want once: %q", len(failures), logs)
	}
}
