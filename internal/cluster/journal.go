package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/httpapi"
	"repro/internal/service"
)

// The coordinator's registry persistence: an append-only JSONL journal
// plus a periodic snapshot, both under Config.StateDir. Every registry
// transition (create, place, close, fail, worker spawn/death/retire)
// appends one fsynced record; every snapshotEvery records the snapshot
// is rewritten and the journal truncated. A restarted coordinator
// replays snapshot+journal, probes the recorded worker URLs, re-adopts
// the live sessions still hosted there (same process, same keystream —
// adopted sessions serve byte-identical ranges), and re-places only
// what actually died with the crash.

// Journal record ops. The record set is deliberately small: everything
// needed to rebuild the registry, nothing derivable from it.
const (
	jopCreate = "create" // session admitted: ID, Spec (carries the seed)
	jopPlace  = "place"  // session assigned: ID, Slot, Reassign
	jopClose  = "close"  // session left the registry: ID
	jopFail   = "fail"   // session died permanently: ID
	jopDown   = "down"   // worker died: Slot (its sessions orphan at replay)
	jopWorker = "worker" // worker (re)spawned or adopted: Slot, URL, PID
	jopRetire = "retire" // worker slot retired: Slot
)

// journalRecord is one JSONL line. Slot is never omitempty — slot 0 is
// a valid worker.
type journalRecord struct {
	Op       string               `json:"op"`
	ID       uint64               `json:"id,omitempty"`
	Spec     *service.SessionSpec `json:"spec,omitempty"`
	Slot     int                  `json:"slot"`
	Reassign bool                 `json:"reassign,omitempty"`
	URL      string               `json:"url,omitempty"`
	PID      int                  `json:"pid,omitempty"`
	Epoch    uint64               `json:"epoch"`
}

// persistedSession is one registry entry in the snapshot.
type persistedSession struct {
	ID        uint64              `json:"id"`
	Spec      service.SessionSpec `json:"spec"`
	Worker    int                 `json:"worker"`
	State     string              `json:"state"`
	Reassigns int                 `json:"reassigns"`
}

// persistedWorker is one worker slot in the snapshot.
type persistedWorker struct {
	Slot    int    `json:"slot"`
	URL     string `json:"url"`
	PID     int    `json:"pid"`
	Alive   bool   `json:"alive"`
	Retired bool   `json:"retired"`
}

// persistState is the snapshot file's whole content.
type persistState struct {
	NextID   uint64             `json:"next_id"`
	Epoch    uint64             `json:"epoch"`
	Sessions []persistedSession `json:"sessions"`
	Workers  []persistedWorker  `json:"workers"`
}

// recoveredState is the replayed view a restarting coordinator adopts
// from: snapshot plus every journal record applied on top.
type recoveredState struct {
	nextID   uint64
	epoch    uint64
	sessions map[uint64]*persistedSession
	workers  map[int]*persistedWorker
}

func newRecoveredState() *recoveredState {
	return &recoveredState{
		nextID:   1,
		sessions: make(map[uint64]*persistedSession),
		workers:  make(map[int]*persistedWorker),
	}
}

// load seeds the replay state from a snapshot.
func (rs *recoveredState) load(ps persistState) {
	if ps.NextID > rs.nextID {
		rs.nextID = ps.NextID
	}
	if ps.Epoch > rs.epoch {
		rs.epoch = ps.Epoch
	}
	for i := range ps.Sessions {
		s := ps.Sessions[i]
		rs.sessions[s.ID] = &s
	}
	for i := range ps.Workers {
		w := ps.Workers[i]
		rs.workers[w.Slot] = &w
	}
}

// apply replays one journal record on top of the snapshot state.
func (rs *recoveredState) apply(rec journalRecord) {
	if rec.Epoch > rs.epoch {
		rs.epoch = rec.Epoch
	}
	switch rec.Op {
	case jopCreate:
		if rec.Spec == nil {
			return
		}
		rs.sessions[rec.ID] = &persistedSession{
			ID: rec.ID, Spec: *rec.Spec, Worker: -1, State: sessionPlacing,
		}
		if rec.ID >= rs.nextID {
			rs.nextID = rec.ID + 1
		}
	case jopPlace:
		if s := rs.sessions[rec.ID]; s != nil {
			s.Worker = rec.Slot
			s.State = sessionAssigned
			if rec.Reassign {
				s.Reassigns++
			}
		}
	case jopClose:
		delete(rs.sessions, rec.ID)
	case jopFail:
		if s := rs.sessions[rec.ID]; s != nil {
			s.State = sessionFailed
			s.Worker = -1
		}
	case jopDown:
		if w := rs.workers[rec.Slot]; w != nil {
			w.Alive = false
		}
		for _, s := range rs.sessions {
			if s.Worker == rec.Slot && s.State == sessionAssigned {
				s.Worker = -1
				s.State = sessionOrphaned
			}
		}
	case jopWorker:
		rs.workers[rec.Slot] = &persistedWorker{
			Slot: rec.Slot, URL: rec.URL, PID: rec.PID, Alive: true,
		}
	case jopRetire:
		if w := rs.workers[rec.Slot]; w != nil {
			w.Alive = false
			w.Retired = true
		}
	}
}

// snapshotEvery is how many journal appends trigger a compaction.
// Registry transitions are rare (creates, closes, worker deaths), so a
// small threshold keeps replay short without measurable write cost.
const snapshotEvery = 64

// journal owns the two state files. Appends fsync before returning:
// once a registry transition is acknowledged anywhere, a crash must not
// unrecord it.
type journal struct {
	dir string

	mu      sync.Mutex
	f       *os.File
	appends int
}

func (j *journal) journalPath() string  { return filepath.Join(j.dir, "journal.jsonl") }
func (j *journal) snapshotPath() string { return filepath.Join(j.dir, "snapshot.json") }

// openJournal opens (creating if needed) the state dir, replays
// snapshot+journal, and leaves the journal open for appending. The
// returned state is nil on a fresh dir — nothing to recover.
func openJournal(dir string) (*journal, *recoveredState, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, nil, err
	}
	j := &journal{dir: dir}
	rs := newRecoveredState()
	found := false

	if raw, err := os.ReadFile(j.snapshotPath()); err == nil {
		var ps persistState
		if err := json.Unmarshal(raw, &ps); err != nil {
			return nil, nil, fmt.Errorf("corrupt snapshot %s: %w", j.snapshotPath(), err)
		}
		rs.load(ps)
		found = true
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}

	if f, err := os.Open(j.journalPath()); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var rec journalRecord
			if json.Unmarshal(line, &rec) != nil {
				// A torn final line is the expected shape of a crash that
				// interrupted an append; everything before it is intact.
				break
			}
			rs.apply(rec)
			found = true
		}
		f.Close()
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}

	f, err := os.OpenFile(j.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, nil, err
	}
	j.f = f
	if !found {
		return j, nil, nil
	}
	return j, rs, nil
}

// append writes one fsynced record and reports whether a compaction is
// due. Errors are swallowed after the first log-worthy failure shape:
// the journal is an availability feature, and a full disk must degrade
// recovery fidelity, not take the live control plane down.
func (j *journal) append(rec journalRecord) bool {
	raw, err := json.Marshal(rec)
	if err != nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return false
	}
	if _, err := j.f.Write(append(raw, '\n')); err != nil {
		return false
	}
	_ = j.f.Sync()
	j.appends++
	return j.appends >= snapshotEvery
}

// compact atomically replaces the snapshot with state and truncates the
// journal. Crash-ordering: the snapshot rename lands (fsynced) before
// the journal is cut, so at every instant snapshot+journal replays to a
// state at least as new as the last acknowledged append.
func (j *journal) compact(state persistState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return
	}
	raw, err := json.MarshalIndent(state, "", "  ")
	if err != nil {
		return
	}
	tmp := j.snapshotPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		os.Remove(tmp)
		return
	}
	_ = f.Sync()
	f.Close()
	if err := os.Rename(tmp, j.snapshotPath()); err != nil {
		os.Remove(tmp)
		return
	}
	if d, err := os.Open(j.dir); err == nil {
		_ = d.Sync() // make the rename itself durable
		d.Close()
	}
	nf, err := os.OpenFile(j.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return
	}
	j.f.Close()
	j.f = nf
	j.appends = 0
}

// close releases the journal file. Appends after close are dropped.
func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// adoptProbeTimeout bounds the per-worker liveness probe during
// recovery: a dead worker's URL must not stall the whole restart.
const adoptProbeTimeout = 2 * time.Second

// adoptedProc is a worker the restarted coordinator re-adopted: a live
// process it did not spawn and holds no Wait handle for. Done never
// fires — death is detected by heartbeat probes, the same way a spawned
// worker that wedged without exiting is. Stop and Kill signal by pid,
// best-effort, and never signal the coordinator's own process (a worker
// adopted in-process in tests reports the host pid).
type adoptedProc struct {
	url  string
	pid  int
	done chan struct{}
	hc   *http.Client // the liveness probes' keep-alive client
}

func newAdoptedProc(url string, pid int) *adoptedProc {
	return &adoptedProc{url: url, pid: pid, done: make(chan struct{}), hc: &http.Client{}}
}

func (p *adoptedProc) URL() string           { return p.url }
func (p *adoptedProc) PID() int              { return p.pid }
func (p *adoptedProc) Done() <-chan struct{} { return p.done }

func (p *adoptedProc) signal(sig os.Signal) {
	if p.pid <= 0 || p.pid == os.Getpid() {
		return
	}
	if proc, err := os.FindProcess(p.pid); err == nil {
		_ = proc.Signal(sig)
	}
}

// reachable probes the worker's control surface. Any HTTP answer counts,
// a typed error included (a drained worker between Drain and exit still
// responds); only an unreachable worker or a probe past its deadline is
// gone. Probes reuse one keep-alive connection.
func (p *adoptedProc) reachable() bool {
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	err := httpapi.Do(ctx, p.hc, http.MethodGet, p.url+"/ctl/healthz", nil, nil)
	return !errors.Is(err, ErrUnreachable) && !errors.Is(err, context.DeadlineExceeded)
}

// Stop asks the adopted worker to exit and polls its control surface
// until it stops answering — there is no child handle to wait on. The
// coordinator drains workers over RPC before calling Stop, and a
// supervised worker exits on its own once drained, so the poll normally
// ends quickly.
func (p *adoptedProc) Stop(ctx context.Context) error {
	p.signal(syscall.SIGTERM)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		if !p.reachable() {
			return nil
		}
		select {
		case <-ctx.Done():
			p.signal(os.Kill)
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Kill terminates the adopted worker immediately, best-effort.
func (p *adoptedProc) Kill() error {
	p.signal(os.Kill)
	return nil
}
