// Daemon: the service layer in one program. A Service runs several
// concurrent secret-agreement groups, each continuously refreshing a key
// pool in the background; the main goroutine plays the application that
// draws one-time pads, and the whole thing shuts down gracefully —
// draining in-flight protocol rounds and zeroizing every pool.
//
// This is the in-process twin of cmd/thinaird (which serves the same
// service over HTTP).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	thinair "repro"
)

func main() {
	svc := thinair.NewService(thinair.ServiceConfig{
		MaxSessions:  4,
		DrainTimeout: 5 * time.Second,
	})

	// Three groups with different flavors: plain, authenticated, observed.
	specs := []thinair.SessionSpec{
		{Name: "plain", Terminals: 3, Erasure: 0.45, Seed: 11},
		{Name: "authed", Terminals: 4, Erasure: 0.45, Seed: 22,
			AuthBootstrap: []byte("group bootstrap secret")},
		{Name: "observed", Terminals: 3, Erasure: 0.45, Seed: 33, Observe: true},
	}
	var sessions []*thinair.ServiceSession
	for i := range specs {
		specs[i].Rotate = true
		specs[i].XPerRound = 64
		specs[i].PayloadBytes = 16
		specs[i].LowWater = 512
		s, err := svc.Create(specs[i])
		if err != nil {
			log.Fatal(err)
		}
		sessions = append(sessions, s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, s := range sessions {
		if err := s.WaitReady(ctx); err != nil {
			log.Fatal(err)
		}
		m := s.Metrics()
		fmt.Printf("session %d (%s): pool %d bytes after %d keystream blocks\n",
			s.ID, m.Name, m.Pool.Available, m.Refreshes)
	}

	// Draw one-time pads while the refreshers keep the pools topped up.
	msg := []byte("information-theoretic security needs no RSA")
	for _, s := range sessions {
		pad, ct, err := s.Pool().DrawPad(msg)
		if err != nil {
			log.Fatal(err)
		}
		pt := make([]byte, len(ct))
		for i := range ct {
			pt[i] = ct[i] ^ pad[i]
		}
		fmt.Printf("session %d: %x… decrypts to %q\n", s.ID, ct[:12], pt[:24])
	}

	// Give the background refreshers a beat, then inspect telemetry.
	time.Sleep(100 * time.Millisecond)
	for _, sm := range svc.Metrics().Sessions {
		fmt.Printf("session %d (%s): rounds=%d productive=%d secret=%dB pool=%dB lowWaterHits=%d",
			sm.ID, sm.Name, sm.Rounds, sm.Productive, sm.SecretBytes,
			sm.Pool.Available, sm.Pool.LowWaterHits)
		if sm.EveSecretDims > 0 {
			fmt.Printf(" eveReliability=%.3f", sm.EveReliability)
		}
		fmt.Println()
	}

	sctx, scancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer scancel()
	if err := svc.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("daemon drained; pools zeroized")
}
