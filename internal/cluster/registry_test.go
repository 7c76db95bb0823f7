package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/keystream"
)

// cloneRegistry deep-copies r without going through its JSON form, so a
// field the snapshot drops shows as a difference after replay.
func cloneRegistry(r *registry) *registry {
	c := &registry{NextID: r.NextID, Epoch: r.Epoch, Seq: r.Seq, Sessions: make(sessionTable, len(r.Sessions))}
	for id, cs := range r.Sessions {
		v := *cs
		c.Sessions[id] = &v
	}
	for _, sl := range r.Workers {
		v := *sl
		c.Workers = append(c.Workers, &v)
	}
	return c
}

// FuzzRegistryReplay drives apply through random transitions, journals
// each one the way commitLocked does, compacts at random points, and
// tears the journal's tail at a random byte offset. Some compactions
// are torn too: the snapshot lands and the journal is never cut, so it
// still holds the records the snapshot has applied. Replay must rebuild
// the live registry as it stood after the last record before the tear,
// or as the newest snapshot holds it if that is later.
func FuzzRegistryReplay(f *testing.F) {
	f.Add([]byte{0, 1, 6, 0, 1, 0, 0, 3, 2, 1, 5, 0, 4, 2, 7, 1, 3, 1}, uint16(0xffff))
	f.Add([]byte{6, 0, 6, 1, 0, 1, 1, 1, 0, 1, 8, 0, 1, 2, 5, 1, 2, 2, 6, 1, 3, 1}, uint16(90))
	f.Add([]byte{0, 1, 0, 3, 0, 5, 8, 8, 4, 1, 3, 2, 0, 7, 7, 0}, uint16(3))
	// Two sessions are created and compacted; session 2 is placed, its
	// worker dies and it is reassigned; a compaction tears after its
	// snapshot lands; the worker dies again and session 2 is reassigned
	// again. Replay of the whole journal must count two reassignments,
	// not three, and of the journal cut inside the last record one, not
	// two.
	f.Add([]byte{6, 0, 6, 1, 0, 1, 0, 1, 8, 0, 1, 1, 5, 1, 2, 1, 9, 0, 5, 1, 2, 1}, uint16(261))
	f.Add([]byte{6, 0, 6, 1, 0, 1, 0, 1, 8, 0, 1, 1, 5, 1, 2, 1, 9, 0, 5, 1, 2, 1}, uint16(200))
	spec := fastSpec(5)
	f.Fuzz(func(t *testing.T, ops []byte, tear uint16) {
		dir := t.TempDir()
		j, _, err := openJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		live := newRegistry()
		// marks[k] is the live registry after the k-th record since the
		// last compaction, ends[k] the journal's length once it is
		// written; marks[floor] is what the newest torn compaction's
		// snapshot holds.
		marks := []*registry{cloneRegistry(live)}
		ends := []int64{0}
		floor := 0
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%10, ops[i+1]
			id, slot := uint64(arg%8)+1, int(arg%4)
			var rec journalRecord
			switch op {
			case 0:
				if arg&1 == 1 {
					id = live.NextID
				}
				rec = journalRecord{Op: jopCreate, ID: id, Spec: &spec, Format: int(arg % 3)}
			case 1, 2:
				rec = journalRecord{Op: jopPlace, ID: id, Slot: slot, Reassign: op == 2}
			case 3:
				rec = journalRecord{Op: jopClose, ID: id}
			case 4:
				rec = journalRecord{Op: jopFail, ID: id}
			case 5:
				rec = journalRecord{Op: jopDown, Slot: slot}
			case 6:
				rec = journalRecord{Op: jopWorker, Slot: slot, URL: "http://127.0.0.1:" + strconv.Itoa(int(arg)), PID: int(arg)}
			case 7:
				rec = journalRecord{Op: jopRetire, Slot: slot}
			case 8:
				j.compact(live)
				marks, ends, floor = []*registry{cloneRegistry(live)}, []int64{0}, 0
				continue
			case 9:
				// Torn compaction: the snapshot lands, the truncation
				// never happens.
				j.mu.Lock()
				err := j.writeSnapshot(live)
				j.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
				floor = len(marks) - 1
				continue
			}
			live.stamp(&rec)
			due := j.append(rec)
			live.apply(rec)
			if due {
				j.compact(live)
				marks, ends, floor = []*registry{cloneRegistry(live)}, []int64{0}, 0
				continue
			}
			fi, err := os.Stat(j.journalPath())
			if err != nil {
				t.Fatal(err)
			}
			marks, ends = append(marks, cloneRegistry(live)), append(ends, fi.Size())
		}
		j.close()
		if n := j.errs.Load(); n != 0 {
			t.Fatalf("%d journal writes failed", n)
		}

		cut := int64(tear) % (ends[len(ends)-1] + 1)
		if err := os.Truncate(j.journalPath(), cut); err != nil {
			t.Fatal(err)
		}
		// A record survives when its JSON does; the newline may be torn.
		k := 0
		for k+1 < len(ends) && ends[k+1]-1 <= cut {
			k++
		}
		k = max(k, floor)
		_, got, err := openJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got == nil {
			got = newRegistry()
		}
		if !reflect.DeepEqual(got, marks[k]) {
			g, _ := json.Marshal(got)
			l, _ := json.Marshal(marks[k])
			t.Fatalf("replay of %d records (journal cut at %d) differs from the live registry:\nreplayed %s\nlive     %s",
				k, cut, g, l)
		}
	})
}

// TestJournalReplaysParentState replays the state dir a coordinator
// from before the one registry wrote: two workers, sessions created,
// placed and closed, a compaction, a session failed on a live worker,
// worker 1 killed and respawned (its session reassigned), another
// create, then worker 1 killed again and retired (the session reassigned
// once more). testdata/parent-state holds its snapshot and journal.
func TestJournalReplaysParentState(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snapshot.json", "journal.jsonl"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "parent-state", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	j, reg, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.close()
	if reg == nil {
		t.Fatal("the parent's state dir replayed as fresh")
	}
	if reg.NextID != 6 {
		t.Fatalf("nextID = %d, want 6", reg.NextID)
	}
	// The parent journaled each place, down and respawn record before it
	// bumped the epoch, so its records top out at 11 while its gates had
	// read 12. Replay must not land below what they read.
	if reg.Epoch != 12 {
		t.Fatalf("epoch = %d, want 12", reg.Epoch)
	}
	want := map[uint64]clusterSession{
		1: {Worker: 0, State: sessionAssigned, Reassigns: 0},
		2: {Worker: 0, State: sessionAssigned, Reassigns: 2},
		3: {Worker: -1, State: sessionFailed, Reassigns: 0},
		5: {Worker: 0, State: sessionAssigned, Reassigns: 0},
	}
	if len(reg.Sessions) != len(want) {
		t.Fatalf("replayed %d sessions, want %d (session 4 was closed)", len(reg.Sessions), len(want))
	}
	for id, w := range want {
		cs := reg.Sessions[id]
		if cs == nil {
			t.Fatalf("session %d missing", id)
		}
		if cs.ID != id || cs.Worker != w.Worker || cs.State != w.State || cs.Reassigns != w.Reassigns {
			t.Errorf("session %d replayed as %+v, want worker %d state %s reassigns %d",
				id, cs, w.Worker, w.State, w.Reassigns)
		}
		if cs.Spec.Seed != int64(500+id) || !cs.Spec.Streamed || cs.Format != keystream.Format {
			t.Errorf("session %d spec seed %d streamed %v format %d, want seed %d streamed format %d",
				id, cs.Spec.Seed, cs.Spec.Streamed, cs.Format, 500+id, keystream.Format)
		}
	}
	if len(reg.Workers) != 2 {
		t.Fatalf("replayed %d workers, want 2", len(reg.Workers))
	}
	if w := reg.Workers[0]; w.Slot != 0 || !w.Alive || w.Retired || w.URL == "" || w.PID == 0 {
		t.Errorf("worker 0 replayed as %+v, want alive", w)
	}
	if w := reg.Workers[1]; w.Slot != 1 || w.Alive || !w.Retired {
		t.Errorf("worker 1 replayed as %+v, want retired", w)
	}
}
