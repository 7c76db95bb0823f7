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
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/httpapi"
)

// The coordinator's registry persistence: an append-only JSONL journal
// plus a periodic snapshot, both under Config.StateDir. Every registry
// transition (create, place, close, fail, worker spawn/death/retire) is
// one journalRecord, appended fsynced before registry.apply runs it;
// every snapshotEvery records the registry itself is marshaled as the
// snapshot and the journal truncated. Replay applies the same records to
// the loaded snapshot. A restarted coordinator replays snapshot+journal,
// probes the recorded worker URLs, re-adopts the live sessions still
// hosted there (same process, same keystream — adopted sessions serve
// byte-identical ranges), and re-places only what actually died with
// the crash.

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

	// logf receives the first write failure; errs counts every one
	// (thinaird_cluster_journal_errors_total).
	logf func(format string, args ...any)
	errs atomic.Int64
}

func (j *journal) journalPath() string  { return filepath.Join(j.dir, "journal.jsonl") }
func (j *journal) snapshotPath() string { return filepath.Join(j.dir, "snapshot.json") }

// openJournal opens (creating if needed) the state dir, replays
// snapshot+journal through registry.apply, and leaves the journal open
// for appending. The returned registry is nil on a fresh dir — nothing
// to recover.
func openJournal(dir string) (*journal, *registry, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, nil, err
	}
	j := &journal{dir: dir}
	reg := newRegistry()
	found := false

	if raw, err := os.ReadFile(j.snapshotPath()); err == nil {
		if err := json.Unmarshal(raw, reg); err != nil {
			return nil, nil, fmt.Errorf("corrupt snapshot %s: %w", j.snapshotPath(), err)
		}
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
			found = true
			if reg.covers(rec) {
				// Left behind by a compaction whose snapshot landed and
				// whose truncation did not: the snapshot holds it.
				continue
			}
			reg.apply(rec)
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
	return j, reg, nil
}

// fail records one write, sync or rename failure. The journal is an
// availability feature: a full disk degrades recovery fidelity but must
// not take the live control plane down, so the coordinator keeps
// serving. The first failure is logged; every one is counted. Caller
// holds j.mu.
func (j *journal) fail(what string, err error) {
	if j.errs.Add(1) == 1 && j.logf != nil {
		j.logf("cluster: journal %s in %s failed: %v; the state dir may no longer replay to the live registry",
			what, j.dir, err)
	}
}

// append writes one fsynced record and reports whether a compaction is
// due.
func (j *journal) append(rec journalRecord) bool {
	raw, err := json.Marshal(rec)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return false
	}
	if err == nil {
		_, err = j.f.Write(append(raw, '\n'))
	}
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		j.fail("append", err)
		return false
	}
	j.appends++
	return j.appends >= snapshotEvery
}

// compact atomically replaces the snapshot with the registry and
// truncates the journal. Crash-ordering: the snapshot rename lands
// (fsynced) before the journal is cut, so at every instant
// snapshot+journal replays to a state at least as new as the last
// acknowledged append. Between the two, the journal still holds records
// the snapshot has applied; their sequence numbers are at or below the
// snapshot's, and replay skips them. Caller holds whatever lock orders
// reg's writes.
func (j *journal) compact(reg *registry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return
	}
	if err := j.writeSnapshot(reg); err != nil {
		j.fail("snapshot", err)
		return
	}
	nf, err := os.OpenFile(j.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		j.fail("truncation", err)
		return
	}
	j.f.Close()
	j.f = nf
	j.appends = 0
}

// writeSnapshot writes reg to a temporary file, fsyncs it, renames it
// over the snapshot and fsyncs the dir so the rename itself is durable.
// A failed dir sync is counted, not returned: the rename landed, so the
// journal should still be cut. Caller holds j.mu.
func (j *journal) writeSnapshot(reg *registry) error {
	raw, err := json.MarshalIndent(reg, "", "  ")
	if err != nil {
		return err
	}
	tmp := j.snapshotPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	_, err = f.Write(raw)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, j.snapshotPath())
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(j.dir); err == nil {
		if err := d.Sync(); err != nil {
			j.fail("snapshot", err)
		}
		d.Close()
	}
	return nil
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
