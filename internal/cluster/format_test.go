package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/keystream"
	"repro/internal/obs"
	"repro/internal/service"
)

// TestUnseededClusterSessions: two cluster sessions created with no seed
// serve different streams, and an unseeded session's range re-reads
// byte-identical after its worker is killed and it is re-placed: the
// coordinator draws the seed before it journals the create record, so
// every worker that hosts the session derives the same stream.
func TestUnseededClusterSessions(t *testing.T) {
	rs := newRecordingSpawner()
	c, err := New(testConfig(rs.Spawn))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	ctx := context.Background()

	spec := streamedSpec(0)
	var infos []SessionInfo
	var ranges [][]byte
	for range 2 {
		info, err := c.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitConverged(t, c, info.ID, spec.TargetDepth)
		r, err := c.StreamRange(ctx, info.ID, 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		infos, ranges = append(infos, info), append(ranges, r)
	}
	if bytes.Equal(ranges[0], ranges[1]) {
		t.Fatal("two unseeded cluster sessions serve the same stream")
	}

	victim := infos[0]
	proc := rs.current(victim.Worker)
	if proc == nil {
		t.Fatalf("no proc recorded for slot %d", victim.Worker)
	}
	_ = proc.Kill()
	waitFor(t, 60*time.Second, "reassignment after worker kill", func() bool {
		info, err := c.Session(ctx, victim.ID)
		return err == nil && info.State == sessionAssigned && info.Reassigns > 0
	})
	var again []byte
	waitFor(t, 60*time.Second, "range after reassignment", func() bool {
		again, err = c.StreamRange(ctx, victim.ID, 0, 64)
		return err == nil
	})
	if !bytes.Equal(again, ranges[0]) {
		t.Fatal("an unseeded session's range differs after reassignment")
	}
}

// TestJournalOtherFormatReplaysFailed: a create record journaled before
// stream formats were numbered (no format: format 0) replays as a failed
// session whose reads name the stream format, while a record of this
// build's format is placed and served. Re-deriving the old record in
// this build's format would serve other bytes at offsets a client may
// already have read.
func TestJournalOtherFormatReplaysFailed(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := streamedSpec(4242)
	j.append(journalRecord{Op: jopCreate, ID: 1, Spec: &spec, Epoch: 1})
	j.append(journalRecord{Op: jopPlace, ID: 1, Slot: 0, Epoch: 2})
	j.append(journalRecord{Op: jopCreate, ID: 2, Spec: &spec, Format: keystream.Format, Epoch: 2})
	j.close()

	cfg := testConfig(nil)
	cfg.StateDir = dir
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background())
	ctx := context.Background()

	if _, err := c.StreamRange(ctx, 1, 0, 32); !errors.Is(err, service.ErrFailed) || !errors.Is(err, ErrStreamFormat) {
		t.Fatalf("range on an old-format session: %v, want failed with ErrStreamFormat", err)
	}
	if info, err := c.Session(ctx, 1); err != nil || info.State != sessionFailed {
		t.Fatalf("old-format session: %+v, %v; want state failed", info, err)
	}
	waitFor(t, 60*time.Second, "the current-format session to serve a range", func() bool {
		_, err := c.StreamRange(ctx, 2, 0, 32)
		return err == nil
	})
}

// TestWorkerRefusesForeignFormatAssign: a worker answers an assignment in
// a stream format it does not derive — one with no format, as a
// coordinator from before formats were numbered sends it, or a later
// one — with a bad request naming the stream format, and hosts nothing.
// The same session assigned in its own format is placed.
func TestWorkerRefusesForeignFormatAssign(t *testing.T) {
	w := NewWorker(WorkerConfig{Capacity: 2})
	defer w.Drain(context.Background())
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	ctx := context.Background()

	spec := fastSpec(5)
	for _, body := range []map[string]any{
		{"id": 5, "spec": spec},
		{"id": 5, "spec": spec, "format": 2},
	} {
		err := httpapi.Do(ctx, srv.Client(), http.MethodPost, srv.URL+"/ctl/assign", body, nil)
		if !errors.Is(err, httpapi.ErrBadRequest) || !strings.Contains(err.Error(), ErrStreamFormat.Error()) {
			t.Fatalf("assign %v: %v, want a bad request naming the stream format", body["format"], err)
		}
		if _, err := w.Service().Lookup(5); err == nil {
			t.Fatalf("assign %v: the worker hosts the session it refused", body["format"])
		}
	}
	if _, err := NewWorkerClient(srv.URL).Assign(ctx, 5, spec); err != nil {
		t.Fatalf("assign in the worker's own format: %v", err)
	}
}

// TestAdoptedWorkerDropsOtherFormatSession: a restarted coordinator that
// replays a session in another stream format fails it, and closes the
// copy a surviving worker still hosts instead of adopting it, so no
// capacity stays held by a session nobody may read.
func TestAdoptedWorkerDropsOtherFormatSession(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers:         1,
		HeartbeatEvery:  50 * time.Millisecond,
		HeartbeatMisses: restartMisses,
		StateDir:        dir,
		Obs:             obs.New(),
		Logf:            t.Logf,
	}
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	info, err := c1.Create(streamedSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 60*time.Second, "a range from the session", func() bool {
		_, err := c1.StreamRange(ctx, info.ID, 0, 64)
		return err == nil
	})
	c1.Abandon() // crash-shaped: the worker keeps running

	// Rewrite the session's create record as one from before formats
	// were numbered.
	path := filepath.Join(dir, "journal.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	format := fmt.Sprintf(`"format":%d,`, keystream.Format)
	if !bytes.Contains(raw, []byte(format)) {
		t.Fatalf("the journal records no format:\n%s", raw)
	}
	if err := os.WriteFile(path, bytes.ReplaceAll(raw, []byte(format), nil), 0o600); err != nil {
		t.Fatal(err)
	}

	cfg.Spawn = func(context.Context, WorkerSpawnOpts) (WorkerProc, error) {
		return nil, errors.New("restart with a surviving worker must adopt, not spawn")
	}
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := shutdownOrDump(t, c2, 60*time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	if _, err := c2.StreamRange(ctx, info.ID, 0, 64); !errors.Is(err, ErrStreamFormat) {
		t.Fatalf("range on the replayed old-format session: %v, want ErrStreamFormat", err)
	}
	waitFor(t, 30*time.Second, "the adopted worker to drop the session", func() bool {
		st, err := c2.slots[0].client.Stats(ctx)
		return err == nil && len(st.Sessions) == 0
	})
}

// oldFormatWorker is a worker from before stream formats were numbered:
// its stats carry no format, and it accepts every assignment whatever
// format the request names, as a decoder that ignores unknown fields
// does.
type oldFormatWorker struct {
	srv     *httptest.Server
	assigns atomic.Int32
	drains  atomic.Int32
}

func newOldFormatWorker(t *testing.T) *oldFormatWorker {
	ow := &oldFormatWorker{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ctl/healthz", func(rw http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(rw, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /ctl/stats", func(rw http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(rw, http.StatusOK, map[string]any{
			"pid": os.Getpid(), "capacity": 4, "draining": false, "sessions": map[string]any{},
		})
	})
	mux.HandleFunc("POST /ctl/assign", func(rw http.ResponseWriter, r *http.Request) {
		ow.assigns.Add(1)
		httpapi.WriteJSON(rw, http.StatusCreated, service.SessionMetrics{})
	})
	mux.HandleFunc("POST /ctl/drain", func(rw http.ResponseWriter, r *http.Request) {
		ow.drains.Add(1)
		httpapi.WriteJSON(rw, http.StatusOK, map[string]any{"drained": true})
	})
	ow.srv = httptest.NewServer(mux)
	t.Cleanup(ow.srv.Close)
	return ow
}

// shutdownWithin shuts c down, bounded so a test whose coordinator
// holds an unresponsive worker still ends.
func shutdownWithin(c *Coordinator, d time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	_ = c.Shutdown(ctx)
}

// TestOldFormatWorkerNotAdopted: a restarted coordinator whose journal
// records a surviving worker that reports no stream format does not
// adopt it. It drains that worker, spawns a fresh one in its slot, and
// places no session on the old one, which would accept it and derive
// another stream than the journal records.
func TestOldFormatWorkerNotAdopted(t *testing.T) {
	ow := newOldFormatWorker(t)
	dir := t.TempDir()
	j, _, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.append(journalRecord{Op: jopWorker, Slot: 0, URL: ow.srv.URL, PID: os.Getpid(), Epoch: 1})
	j.close()

	cfg := testConfig(InProcess(nil))
	cfg.Workers = 1
	cfg.StateDir = dir
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownWithin(c, 30*time.Second)
	ctx := context.Background()

	info, err := c.Create(streamedSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 60*time.Second, "a range from the session", func() bool {
		_, err := c.StreamRange(ctx, info.ID, 0, 32)
		return err == nil
	})
	waitFor(t, 30*time.Second, "the old-format worker to be drained", func() bool {
		return ow.drains.Load() > 0
	})
	if n := ow.assigns.Load(); n != 0 {
		t.Fatalf("the old-format worker was sent %d assignments", n)
	}
	if owner, err := c.Owner(info.ID); err != nil || owner.URL == ow.srv.URL {
		t.Fatalf("session owner %+v, %v; want a freshly spawned worker", owner, err)
	}
}

// TestSpawnedOldFormatWorkerRefused: a spawner that starts a worker of
// another stream format (a worker binary from before formats were
// numbered) fails the coordinator's start, and on a respawn the slot
// burns its restart budget and retires rather than host a session on
// that worker.
func TestSpawnedOldFormatWorkerRefused(t *testing.T) {
	ow := newOldFormatWorker(t)
	oldSpawn := func(context.Context, WorkerSpawnOpts) (WorkerProc, error) {
		return newAdoptedProc(ow.srv.URL, os.Getpid()), nil
	}
	cfg := testConfig(oldSpawn)
	cfg.Workers = 1
	if c, err := New(cfg); !errors.Is(err, ErrStreamFormat) {
		if c != nil {
			shutdownWithin(c, 5*time.Second)
		}
		t.Fatalf("New with an old-format worker binary: %v, want ErrStreamFormat", err)
	}

	rs := newRecordingSpawner()
	var spawned atomic.Int32
	cfg.Spawn = func(ctx context.Context, opts WorkerSpawnOpts) (WorkerProc, error) {
		if spawned.Add(1) == 1 {
			return rs.Spawn(ctx, opts)
		}
		return oldSpawn(ctx, opts)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownWithin(c, 30*time.Second)
	ctx := context.Background()
	info, err := c.Create(streamedSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c, info.ID, streamedSpec(0).TargetDepth)
	_ = rs.current(0).Kill()
	waitFor(t, 60*time.Second, "the slot to retire", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.slots[0].retired
	})
	if n := ow.assigns.Load(); n != 0 {
		t.Fatalf("the old-format worker was sent %d assignments", n)
	}
	if info, err := c.Session(ctx, info.ID); err != nil || info.State != sessionOrphaned {
		t.Fatalf("session after its slot retired: %+v, %v; want orphaned", info, err)
	}
}
