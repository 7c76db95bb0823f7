package transport

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/wire"
)

// blockChainFor is a bootstrap chain ratcheted once with a block label,
// the shape of a per-block control-plane chain.
func blockChainFor(bootstrap []byte, block string) *auth.KeyChain {
	kc := auth.NewKeyChain(bootstrap)
	kc.Ratchet([]byte(block))
	return kc
}

// recvWithin returns the next frame on ep, or fails after d.
func recvWithin(t *testing.T, ep Endpoint, d time.Duration) Env {
	t.Helper()
	select {
	case env, ok := <-ep.Recv():
		if !ok {
			t.Fatal("endpoint closed")
		}
		return env
	case <-time.After(d):
		t.Fatal("no frame delivered")
	}
	return Env{}
}

// TestSealedBusDropsForgeries: a control frame sealed with the
// bootstrap-only chain, with another block's chain, or with a flipped
// tag never reaches a sealed endpoint, and each drop is counted. A
// genuine control frame arrives stripped of its tag; data frames pass
// through untouched; a tap on the raw bus overhears everything.
func TestSealedBusDropsForgeries(t *testing.T) {
	bootstrap := []byte("group bootstrap")
	raw := NewChanBus(0, 3)
	sealed := NewSealedBus(raw, blockChainFor(bootstrap, "block 1"))
	defer sealed.Close()
	tap, err := raw.Endpoint(9)
	if err != nil {
		t.Fatal(err)
	}
	forger, err := raw.Endpoint(8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sealed.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sealed.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}

	msg := wire.Marshal(&wire.Beacon{
		Header: wire.Header{Type: wire.TypeBeacon, From: 0, Session: 5, Round: 1},
		Kind:   wire.BeaconEndOfX, Value: 7,
	})
	flipped := blockChainFor(bootstrap, "block 1").Seal(msg)
	flipped[len(flipped)-1] ^= 1
	forgeries := [][]byte{
		auth.NewKeyChain(bootstrap).Seal(msg),
		blockChainFor(bootstrap, "block 2").Seal(msg),
		flipped,
	}
	for _, f := range forgeries {
		if err := forger.SendCtrl(f); err != nil {
			t.Fatal(err)
		}
	}
	data := []byte("an unsealed data frame")
	if err := forger.SendData(data); err != nil {
		t.Fatal(err)
	}
	if err := a.SendCtrl(msg); err != nil {
		t.Fatal(err)
	}

	// b sees exactly the data frame, then the genuine control frame.
	if env := recvWithin(t, b, 2*time.Second); env.Reliable || !bytes.Equal(env.Frame, data) {
		t.Fatalf("first delivery %+v, want the untouched data frame", env)
	}
	if env := recvWithin(t, b, 2*time.Second); !env.Reliable || !bytes.Equal(env.Frame, msg) {
		t.Fatalf("second delivery %+v, want the opened control frame", env)
	}
	// a (the genuine sender) sees only the data frame; once it has, the
	// forgeries ahead of it were dropped at both sealed endpoints.
	if env := recvWithin(t, a, 2*time.Second); env.Reliable || !bytes.Equal(env.Frame, data) {
		t.Fatalf("sender's delivery %+v, want the untouched data frame", env)
	}
	if got := sealed.Rejected(); got != int64(2*len(forgeries)) {
		t.Fatalf("Rejected() = %d, want %d", got, 2*len(forgeries))
	}
	select {
	case env := <-b.Recv():
		t.Fatalf("unexpected delivery %+v", env)
	case <-time.After(50 * time.Millisecond):
	}
	// The raw tap heard the three forgeries, the data frame and the
	// sealed genuine frame.
	if n := len(tap.Recv()); n != len(forgeries)+2 {
		t.Fatalf("tap heard %d frames, want %d", n, len(forgeries)+2)
	}
}

// TestSealedBusObserverDecodes: a group runs whole protocol rounds over
// a sealed bus with no chains of its own, and an Observer tapping the
// raw bus still decodes the sealed control frames into a certificate.
func TestSealedBusObserverDecodes(t *testing.T) {
	const n = 3
	raw := NewChanBus(0.5, 11)
	sealed := NewSealedBus(raw, blockChainFor([]byte("group bootstrap"), "block 0"))
	defer sealed.Close()
	tap, err := raw.Endpoint(n)
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObserver(777)
	obsCtx, obsCancel := context.WithCancel(context.Background())
	obsDone := make(chan struct{})
	go func() {
		obs.Run(obsCtx, tap, 500*time.Millisecond)
		close(obsDone)
	}()

	results, err := RunGroup(context.Background(), sealed, baseNodeConfig(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	obsCancel()
	<-obsDone
	if len(results[0].Secret) == 0 {
		t.Fatal("no secret over the sealed bus")
	}
	if obs.SecretDims == 0 {
		t.Fatal("observer decoded no secret rounds from sealed frames")
	}
	if sealed.Rejected() != 0 {
		t.Fatalf("genuine frames rejected: %d", sealed.Rejected())
	}
}
