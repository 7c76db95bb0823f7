// Gate: the persistent-client tier in one program. A daemon hosts a
// session; a Gate serves it over the multiplexed frame
// protocol; and the same thinair.Client interface reads key material
// over three transports — daemon HTTP, the gate's TCP frames, and the
// gate's WebSocket upgrade — returning byte-identical answers.
//
// This is the in-process twin of `thinaird gate` (which fronts a whole
// cluster and streams ranges straight from owning workers).
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	thinair "repro"
	"repro/internal/gate"
)

func main() {
	svc := thinair.NewService(thinair.ServiceConfig{
		MaxSessions:  2,
		DrainTimeout: 5 * time.Second,
	})

	// One session: its ranges are offset-addressable, so they are
	// repeatable across transports.
	s, err := svc.Create(thinair.SessionSpec{
		Name: "padsource", Terminals: 3, Erasure: 0.45,
		XPerRound: 64, PayloadBytes: 16, Rotate: true,
		Seed: 7, LowWater: 512, TargetDepth: 1024,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		log.Fatal(err)
	}
	session := uint64(s.ID)

	// The gate serves the session over persistent frame connections.
	g := thinair.NewGate(thinair.GateConfig{
		Backend:        gate.ServiceBackend{SV: svc},
		HeartbeatEvery: 5 * time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go g.Serve(ln)

	// WebSocket upgrades reach the same gate.
	mux := http.NewServeMux()
	mux.Handle("/v1/gate", g.WSHandler())
	ws := httptest.NewServer(mux)
	defer ws.Close()

	// The daemon's /v1 HTTP surface, for the third transport.
	api := httptest.NewServer(svc.Handler())
	defer api.Close()

	// Three transports, one Client interface.
	httpC := thinair.NewHTTPClient(api.URL)
	frameC, err := thinair.DialGate(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	wsC, err := thinair.DialGateWS(ws.URL + "/v1/gate")
	if err != nil {
		log.Fatal(err)
	}
	clients := []struct {
		name string
		c    thinair.Client
	}{{"daemon-http", httpC}, {"gate-frame", frameC}, {"gate-ws", wsC}}

	// The same stream range through each transport: identical bytes.
	var first []byte
	for _, tc := range clients {
		got, err := tc.c.StreamRange(ctx, session, 4096, 48)
		if err != nil {
			log.Fatalf("%s: %v", tc.name, err)
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(first, got) {
			log.Fatalf("%s returned different bytes for the same range", tc.name)
		}
		fmt.Printf("%-12s stream[4096:4144) = %x…\n", tc.name, got[:12])
	}

	// Draws consume: each hands out fresh material, whatever the tier.
	for _, tc := range clients {
		key, err := tc.c.Draw(ctx, session, 32)
		if err != nil {
			log.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Printf("%-12s drew %d fresh pad bytes\n", tc.name, len(key))
		tc.c.Close()
	}

	_ = g.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer scancel()
	if err := svc.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("gate closed; daemon drained and zeroized")
}
