package cluster

import (
	"encoding/json"
	"sort"
	"time"

	"repro/internal/service"
)

// Session lifecycle states in the coordinator's registry.
const (
	// sessionAssigned: owned by a live worker. The state is only entered
	// after the worker's assign RPC has succeeded, so assigned always
	// means the worker actually hosts the session.
	sessionAssigned = "assigned"
	// sessionPlacing: exclusively claimed by one placement attempt (the
	// assign RPC may be in flight). The claim keeps concurrent placers —
	// Create and the per-slot supervisors' placeOrphans — from assigning
	// one session to two workers.
	sessionPlacing = "placing"
	// sessionOrphaned: its worker died; awaiting placement on a survivor
	// or the replacement worker. Draws fail retryably meanwhile.
	sessionOrphaned = "orphaned"
	// sessionFailed: the session failed on a live worker (dead channel,
	// exhausted round space). A deterministic failure would recur on any
	// worker, so it is not reassigned.
	sessionFailed = "failed"
	// sessionClosed: transient marker set by closeLocked just before the
	// entry leaves the registry; an in-flight placement that sees it
	// undoes its assignment instead of stranding a copy on a worker.
	sessionClosed = "closed"
)

// Journal record ops. The record set is deliberately small: everything
// needed to rebuild the registry, nothing derivable from it.
const (
	jopCreate = "create" // session admitted: ID, Spec (carries the seed), Format
	jopPlace  = "place"  // session assigned: ID, Slot, Reassign
	jopClose  = "close"  // session left the registry: ID
	jopFail   = "fail"   // session died permanently: ID
	jopDown   = "down"   // worker died: Slot (its sessions orphan)
	jopWorker = "worker" // worker (re)spawned or adopted: Slot, URL, PID
	jopRetire = "retire" // worker slot retired: Slot
)

// journalRecord is one registry transition, and one JSONL line of the
// journal. Slot is never omitempty — slot 0 is a valid worker. Format is
// the stream format (keystream.Format) a create record's session
// derives; records from before formats were numbered carry none and read
// as 0. Epoch is the ownership epoch the registry holds once the record
// is applied. Seq numbers records one up from the registry's Seq; records
// from before records were numbered carry none and read as 0.
type journalRecord struct {
	Op       string               `json:"op"`
	ID       uint64               `json:"id,omitempty"`
	Spec     *service.SessionSpec `json:"spec,omitempty"`
	Format   int                  `json:"format,omitempty"`
	Slot     int                  `json:"slot"`
	Reassign bool                 `json:"reassign,omitempty"`
	URL      string               `json:"url,omitempty"`
	PID      int                  `json:"pid,omitempty"`
	Epoch    uint64               `json:"epoch"`
	Seq      uint64               `json:"seq,omitempty"`
}

// clusterSession is one registry entry: everything needed to re-create
// the session elsewhere (the spec carries the seed, so a reassigned
// session re-derives the same key stream from round zero). Format is the
// stream format it was created under; a session of another format than
// this build's is failed at recovery. The exported fields are journaled
// and written by apply; placedAt is the driver's clock reading, never
// persisted.
type clusterSession struct {
	ID        uint64              `json:"id"`
	Spec      service.SessionSpec `json:"spec"`
	Format    int                 `json:"format"`
	Worker    int                 `json:"worker"` // owning slot, -1 when orphaned/failed
	State     string              `json:"state"`
	Reassigns int                 `json:"reassigns"`

	placedAt time.Time
}

// workerSlot is one supervised worker position. The slot index is
// stable; the process (and RPC address) behind it changes on restart.
// The exported fields are journaled and written by apply; the rest are
// the driver's live handles and counters, never persisted.
type workerSlot struct {
	Slot    int    `json:"slot"`
	URL     string `json:"url"`
	PID     int    `json:"pid"`
	Alive   bool   `json:"alive"`
	Retired bool   `json:"retired"` // restart budget exhausted

	proc        WorkerProc
	client      *WorkerClient
	restarts    int
	misses      int
	lastRespawn time.Time
}

// registry is the coordinator's whole journaled state, and its JSON form
// is the snapshot file. apply is its only writer, so a live transition
// and its replay are the same call on the same record. The placement
// claim and the closed marker are the two exceptions: recovery orphans
// every session that has not failed, so neither needs a record.
//
// Seq is the sequence number of the last numbered record applied, so a
// snapshot says which journal records it already holds: a compaction
// torn between the snapshot's rename and the journal's truncation leaves
// those records behind, and replay skips them (covers).
type registry struct {
	NextID   uint64        `json:"next_id"`
	Epoch    uint64        `json:"epoch"`
	Seq      uint64        `json:"seq,omitempty"`
	Sessions sessionTable  `json:"sessions"`
	Workers  []*workerSlot `json:"workers"` // indexed by slot
}

func newRegistry() *registry {
	return &registry{NextID: 1, Sessions: make(sessionTable)}
}

// sessionTable is the registry's sessions by id. Its JSON form is an
// id-sorted list, the snapshot's shape.
type sessionTable map[uint64]*clusterSession

func (t sessionTable) MarshalJSON() ([]byte, error) {
	list := make([]*clusterSession, 0, len(t))
	for _, cs := range t {
		list = append(list, cs)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	return json.Marshal(list)
}

func (t *sessionTable) UnmarshalJSON(raw []byte) error {
	var list []*clusterSession
	if err := json.Unmarshal(raw, &list); err != nil {
		return err
	}
	*t = make(sessionTable, len(list))
	for _, cs := range list {
		(*t)[cs.ID] = cs
	}
	return nil
}

// epochAfter is the ownership epoch once rec is applied. A record that
// can change which worker (or URL) serves a session moves the epoch one
// past the registry's; any record also lifts it to its own stamp. A
// live record is stamped with this value before it is journaled, so its
// replay lands on the same epoch. A record journaled before the bump it
// caused (older coordinators did that) replays one past its stamp, never
// below the epoch it was published under.
func (r *registry) epochAfter(rec journalRecord) uint64 {
	e := r.Epoch
	switch rec.Op {
	case jopPlace, jopClose, jopFail, jopDown, jopWorker:
		e++
	}
	return max(e, rec.Epoch)
}

// stamp numbers a live record and stamps the epoch it produces, before
// it is journaled, so its replay lands on the same sequence and epoch.
func (r *registry) stamp(rec *journalRecord) {
	rec.Seq = r.Seq + 1
	rec.Epoch = r.epochAfter(*rec)
}

// covers reports whether rec is already part of the registry: a
// numbered record at or below the registry's sequence. Unnumbered
// records (older coordinators wrote them) are never covered.
func (r *registry) covers(rec journalRecord) bool {
	return rec.Seq != 0 && rec.Seq <= r.Seq
}

// apply performs one journaled transition. It reads no clock and runs no
// effect; the caller does both around it.
func (r *registry) apply(rec journalRecord) {
	r.Epoch = r.epochAfter(rec)
	r.Seq = max(r.Seq, rec.Seq)
	switch rec.Op {
	case jopCreate:
		if rec.Spec == nil {
			return
		}
		// Born already claimed (placing, not orphaned): a concurrent
		// placeOrphans pass must never see — and race Create for — a
		// session whose first placement is still in flight.
		r.Sessions[rec.ID] = &clusterSession{
			ID: rec.ID, Spec: *rec.Spec, Format: rec.Format, Worker: -1, State: sessionPlacing,
		}
		r.NextID = max(r.NextID, rec.ID+1)
	case jopPlace:
		if cs := r.Sessions[rec.ID]; cs != nil {
			cs.Worker = rec.Slot
			cs.State = sessionAssigned
			if rec.Reassign {
				cs.Reassigns++
			}
		}
	case jopClose:
		delete(r.Sessions, rec.ID)
	case jopFail:
		if cs := r.Sessions[rec.ID]; cs != nil {
			cs.State = sessionFailed
			cs.Worker = -1
		}
	case jopDown:
		if sl := r.slot(rec.Slot); sl != nil {
			sl.Alive = false
		}
		for _, cs := range r.Sessions {
			if cs.Worker == rec.Slot && cs.State == sessionAssigned {
				cs.Worker = -1
				cs.State = sessionOrphaned
			}
		}
	case jopWorker:
		if rec.Slot < 0 {
			return // a corrupt record; slots count up from 0
		}
		for len(r.Workers) <= rec.Slot {
			r.Workers = append(r.Workers, &workerSlot{Slot: len(r.Workers)})
		}
		sl := r.Workers[rec.Slot]
		sl.URL, sl.PID, sl.Alive, sl.Retired = rec.URL, rec.PID, true, false
	case jopRetire:
		if sl := r.slot(rec.Slot); sl != nil {
			sl.Alive = false
			sl.Retired = true
		}
	}
}

// slot returns the worker recorded for a slot, nil when none is.
func (r *registry) slot(i int) *workerSlot {
	if i < 0 || i >= len(r.Workers) {
		return nil
	}
	return r.Workers[i]
}
