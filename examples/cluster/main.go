// Cluster: the multi-process tier in one program. A Coordinator owns
// the session registry and supervises a fleet of workers, each hosting
// group sessions over its own loopback-UDP buses; key draws route
// through the coordinator to whichever worker owns the session.
//
// For demo convenience the workers here are hosted in-process behind
// real loopback HTTP listeners (cluster.InProcess) — the supervision,
// RPC and reassignment paths are identical to the OS-process tier that
// `thinaird coordinator` runs via cluster.ExecSpawner. The demo kills a
// worker mid-flight to show the registry surviving it: the dead
// worker's sessions are re-placed on survivors, where their seeds
// re-derive the same key streams.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	thinair "repro"
	"repro/internal/cluster"
)

// procs records the live proc behind each worker slot so the demo can
// kill one — the same handle the coordinator supervises through.
var procs sync.Map

func main() {
	inproc := cluster.InProcess(nil)
	coord, err := thinair.NewCoordinator(thinair.ClusterConfig{
		Workers:        3,
		WorkerCapacity: 4,
		HeartbeatEvery: 100 * time.Millisecond,
		Logf:           log.Printf,
		Spawn: func(ctx context.Context, opts cluster.WorkerSpawnOpts) (cluster.WorkerProc, error) {
			p, err := inproc(ctx, opts)
			if err == nil {
				procs.Store(opts.Slot, p)
			}
			return p, err
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Six groups across three workers (least-loaded placement).
	var ids []uint64
	for i := 0; i < 6; i++ {
		info, err := coord.Create(thinair.SessionSpec{
			Name: fmt.Sprintf("grp-%d", i), Terminals: 3, Erasure: 0.45,
			XPerRound: 64, PayloadBytes: 16, Rotate: true,
			Seed: int64(40 + i*11), LowWater: 512, TargetDepth: 1024,
		})
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, info.ID)
		fmt.Printf("session %d (%s) placed on worker %d\n", info.ID, info.Name, info.Worker)
	}

	ctx := context.Background()
	for _, id := range ids {
		waitConverged(ctx, coord, id, 1024)
		key, err := coord.Draw(ctx, id, 32)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("session %d: drew %d one-time key bytes through the coordinator\n", id, len(key))
	}

	// Chaos: take down the worker owning session 1; the coordinator
	// reassigns its sessions and draws succeed again.
	victim, err := coord.Session(ctx, ids[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nkilling worker %d ...\n", victim.Worker)
	if p, ok := procs.Load(victim.Worker); ok {
		_ = p.(cluster.WorkerProc).Kill()
	}
	for {
		info, err := coord.Session(ctx, ids[0])
		if err != nil {
			log.Fatal(err)
		}
		if info.State == "assigned" && info.Reassigns > 0 {
			fmt.Printf("session %d reassigned to worker %d\n", info.ID, info.Worker)
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	waitConverged(ctx, coord, ids[0], 1024)
	if _, err := coord.Draw(ctx, ids[0], 32); err != nil {
		log.Fatal(err)
	}
	fmt.Println("draws succeed again after reassignment")

	m := coord.Metrics()
	fmt.Printf("\ncluster: %d workers alive, %d sessions, %d reassigned, %d worker restarts\n",
		m.WorkersAlive, m.Sessions, m.Reassigned, m.Restarts)

	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := coord.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("tier drained: every worker pool zeroized")
}

func waitConverged(ctx context.Context, coord *thinair.Coordinator, id uint64, target int) {
	for {
		info, err := coord.Session(ctx, id)
		if err != nil {
			log.Fatal(err)
		}
		if info.Metrics != nil && info.Metrics.Pool.Available >= target {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
}
