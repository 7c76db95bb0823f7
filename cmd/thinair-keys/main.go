// Command thinair-keys runs the concurrent protocol runtime — one
// goroutine per terminal over an in-process or loopback-UDP broadcast bus
// — and continuously generates group keys, printing the rate and a digest
// of each session's secret. A wire-level eavesdropper taps the bus and
// reports how much of the secret it could infer.
//
// Examples:
//
//	thinair-keys -n 4 -sessions 5
//	thinair-keys -n 3 -udp -erasure 0.5
//	thinair-keys -n 3 -auth "group bootstrap secret"
package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/auth"
	"repro/internal/transport"

	thinair "repro"
)

func main() {
	var (
		n         = flag.Int("n", 3, "number of terminals")
		sessions  = flag.Int("sessions", 3, "number of sessions to run")
		rounds    = flag.Int("rounds", 3, "rounds per session")
		x         = flag.Int("x", 90, "x-packets per round")
		payload   = flag.Int("payload", 100, "payload bytes")
		erasure   = flag.Float64("erasure", 0.45, "per-link erasure probability")
		udp       = flag.Bool("udp", false, "use the loopback UDP bus instead of in-process channels")
		bootstrap = flag.String("auth", "", "enable active-Eve authentication with this bootstrap secret")
		seed      = flag.Int64("seed", time.Now().UnixNano()%100000, "seed")
	)
	flag.Parse()

	for s := 0; s < *sessions; s++ {
		var bus transport.Bus
		var err error
		if *udp {
			bus, err = transport.NewUDPBus(*erasure, *seed+int64(s), transport.DefaultInbox)
			fatal(err)
		} else {
			bus = transport.NewChanBus(*erasure, *seed+int64(s), transport.DefaultInbox)
		}

		session := uint32(1000 + s)
		obsEp, err := bus.Endpoint(*n)
		fatal(err)
		obs := thinair.NewObserver(session)
		obsCtx, obsCancel := context.WithCancel(context.Background())
		obsDone := make(chan struct{})
		go func() {
			obs.Run(obsCtx, obsEp, time.Second)
			close(obsDone)
		}()

		var chains []*auth.KeyChain
		if *bootstrap != "" {
			chains = make([]*auth.KeyChain, *n)
			for i := range chains {
				chains[i] = auth.NewKeyChain([]byte(*bootstrap))
			}
		}

		cfg := transport.NodeConfig{
			Config: thinair.Config{
				Terminals: *n, XPerRound: *x, PayloadBytes: *payload,
				Rounds: *rounds, Rotate: true, Seed: *seed + int64(s)*101,
			},
			Session: session,
			Timeout: 10 * time.Second,
		}
		start := time.Now()
		results, err := transport.RunGroup(context.Background(), bus, cfg, chains)
		elapsed := time.Since(start)
		obsCancel()
		<-obsDone
		fatal(err)

		secret := results[0].Secret
		digest := sha256.Sum256(secret)
		rate := float64(len(secret)*8) / elapsed.Seconds() / 1000
		fmt.Printf("session %d: %4d secret bytes in %7.1fms (%8.1f kbps wall) key=%x…", s,
			len(secret), float64(elapsed.Microseconds())/1000, rate, digest[:8])
		if obs.SecretDims > 0 {
			fmt.Printf("  eve: reliability %.3f (%d/%d packets hidden)",
				obs.Reliability(), obs.UnknownDims, obs.SecretDims)
		}
		if chains != nil {
			fmt.Printf("  auth epoch %d", chains[0].Epoch())
		}
		fmt.Println()
		bus.Close()
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "thinair-keys:", err)
		os.Exit(1)
	}
}
