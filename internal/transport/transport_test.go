package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/wire"
)

func baseNodeConfig(n int) NodeConfig {
	return NodeConfig{
		Config: core.Config{
			Terminals: n, XPerRound: 80, PayloadBytes: 16,
			Rounds: 2, Rotate: true, Seed: 42,
		},
		Session: 777,
		Timeout: 5 * time.Second,
	}
}

func TestChanBusBasics(t *testing.T) {
	bus := NewChanBus(0, 1, DefaultInbox)
	defer bus.Close()
	a, err := bus.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bus.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != 0 || b.ID() != 1 {
		t.Fatal("ids wrong")
	}
	if err := a.SendData([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := a.SendCtrl([]byte("ctrl")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case env := <-b.Recv():
			if env.From != 0 {
				t.Fatalf("from = %d", env.From)
			}
		case <-time.After(time.Second):
			t.Fatal("timeout")
		}
	}
	if bus.BitsSent() != int64(len("hello")+len("ctrl"))*8 {
		t.Fatalf("bits = %d", bus.BitsSent())
	}
	// Same id returns the same endpoint.
	a2, _ := bus.Endpoint(0)
	if a2 != a {
		t.Fatal("endpoint not reused")
	}
}

func TestChanBusErasures(t *testing.T) {
	bus := NewChanBus(1, 1, DefaultInbox) // everything erased
	defer bus.Close()
	a, _ := bus.Endpoint(0)
	b, _ := bus.Endpoint(1)
	a.SendData([]byte("gone"))
	a.SendCtrl([]byte("kept")) // reliable survives p=1
	select {
	case env := <-b.Recv():
		if !env.Reliable || string(env.Frame) != "kept" {
			t.Fatalf("got %+v", env)
		}
	case <-time.After(time.Second):
		t.Fatal("reliable frame lost")
	}
}

func TestChanBusClosed(t *testing.T) {
	bus := NewChanBus(0, 1, DefaultInbox)
	a, _ := bus.Endpoint(0)
	bus.Close()
	if err := a.SendData([]byte("x")); err == nil {
		t.Fatal("send on closed bus accepted")
	}
	if bits := bus.BitsSent(); bits != 0 {
		t.Fatalf("a refused send counted %d bits", bits)
	}
	if _, err := bus.Endpoint(5); err == nil {
		t.Fatal("endpoint on closed bus accepted")
	}
	bus.Close() // idempotent
}

// TestChanBusOverOwnedInboxes: a bus over caller-owned inboxes delivers
// into them, gives an endpoint beyond them an inbox of its own as deep,
// and on Close stops delivering but closes only its own inbox.
func TestChanBusOverOwnedInboxes(t *testing.T) {
	inboxes := []chan Env{make(chan Env, 4), make(chan Env, 4)}
	bus := NewChanBusOver(0, 1, inboxes)
	a, _ := bus.Endpoint(0)
	b, _ := bus.Endpoint(1)
	tap, _ := bus.Endpoint(2)
	if b.Recv() != (<-chan Env)(inboxes[1]) || cap(tap.Recv()) != 4 {
		t.Fatalf("endpoint 1 does not receive into the caller's inbox, or the tap's inbox holds %d frames", cap(tap.Recv()))
	}
	if err := a.SendCtrl([]byte("ctrl")); err != nil {
		t.Fatal(err)
	}
	if len(inboxes[1]) != 1 || len(tap.Recv()) != 1 || len(inboxes[0]) != 0 {
		t.Fatalf("inbox depths %d, %d, tap %d after one control frame from 0", len(inboxes[0]), len(inboxes[1]), len(tap.Recv()))
	}
	bus.Close()
	if err := b.SendCtrl([]byte("late")); err == nil {
		t.Fatal("send on a closed bus accepted")
	}
	if env := <-inboxes[1]; string(env.Frame) != "ctrl" || len(inboxes[0]) != 0 {
		t.Fatalf("caller's inboxes hold %q and %d frames after Close", env.Frame, len(inboxes[0]))
	}
	select {
	case inboxes[1] <- Env{}: // still open: the caller's to close or reuse
	default:
		t.Fatal("caller's inbox full")
	}
	<-tap.Recv()
	if _, ok := <-tap.Recv(); ok {
		t.Fatal("the bus's own inbox stayed open after Close")
	}
}

func TestRunGroupOverChanBus(t *testing.T) {
	const n = 4
	bus := NewChanBus(0.4, 7, DefaultInbox)
	defer bus.Close()
	cfg := baseNodeConfig(n)
	results, err := RunGroup(context.Background(), bus, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("results = %d", len(results))
	}
	if len(results[0].Secret) == 0 {
		t.Fatal("no secret generated")
	}
	for i := 1; i < n; i++ {
		if string(results[i].Secret) != string(results[0].Secret) {
			t.Fatalf("node %d secret differs", i)
		}
	}
	if results[0].Rounds != cfg.Rounds {
		t.Fatalf("rounds = %d", results[0].Rounds)
	}
}

// TestChanBusBroadcastAllocFree: broadcasting an x-packet to three
// receivers allocates nothing — the coin key is peeked from the header and
// every receiver shares the one frame.
func TestChanBusBroadcastAllocFree(t *testing.T) {
	bus := NewChanBus(0.4, 3, DefaultInbox)
	defer bus.Close()
	var eps []Endpoint
	for id := 0; id < 4; id++ {
		ep, err := bus.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep)
	}
	xh := wire.Header{Type: wire.TypeX, Session: 1, Round: 2}
	frame := wire.Marshal(&wire.XPacket{Header: xh, Seq: 5, Payload: make([]byte, 64)})
	if n := testing.AllocsPerRun(100, func() {
		if err := eps[0].SendData(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("x-frame broadcast to 3 receivers allocates %v times, want 0", n)
	}
}

// TestObserverDoesNotChangeKey: attaching a wire-level observer to a bus
// leaves every terminal's erasures, hence the group secret, unchanged.
func TestObserverDoesNotChangeKey(t *testing.T) {
	const n = 3
	run := func(observed bool) []byte {
		bus := NewChanBus(0.4, 19, DefaultInbox)
		defer bus.Close()
		if observed {
			obsEp, err := bus.Endpoint(n)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				NewObserver(777).Run(ctx, obsEp, time.Second)
				close(done)
			}()
			defer func() { cancel(); <-done }()
		}
		results, err := RunGroup(context.Background(), bus, baseNodeConfig(n), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(results[0].Secret) == 0 {
			t.Fatal("no secret generated")
		}
		return results[0].Secret
	}
	if bare, observed := run(false), run(true); string(bare) != string(observed) {
		t.Fatalf("an observer changed the key: %d bytes bare, %d observed", len(bare), len(observed))
	}
}

func TestRunGroupWithWireLevelObserver(t *testing.T) {
	const n = 3
	bus := NewChanBus(0.5, 11, DefaultInbox)
	defer bus.Close()
	obsEp, err := bus.Endpoint(n) // Eve's tap
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObserver(777)
	obsCtx, obsCancel := context.WithCancel(context.Background())
	obsDone := make(chan struct{})
	go func() {
		obs.Run(obsCtx, obsEp, 500*time.Millisecond)
		close(obsDone)
	}()

	cfg := baseNodeConfig(n)
	results, err := RunGroup(context.Background(), bus, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	obsCancel()
	<-obsDone

	if len(results[0].Secret) > 0 && obs.SecretDims == 0 {
		t.Fatal("observer saw no secret rounds despite productive session")
	}
	if obs.UnknownDims > obs.SecretDims {
		t.Fatal("certificate out of range")
	}
	if obs.SecretDims > 0 {
		r := obs.Reliability()
		if r < 0 || r > 1 {
			t.Fatalf("reliability = %v", r)
		}
	}
}

// TestRunGroupAuthenticated: an honest authenticated group ratchets its
// chains in lockstep and rejects nothing. A node that re-opened its
// passed rounds' frames under the ratcheted key counted about 15,300
// rejections over these five sessions.
func TestRunGroupAuthenticated(t *testing.T) {
	const n = 3
	for seed := int64(1); seed <= 5; seed++ {
		bus := NewChanBus(0.3, seed, DefaultInbox)
		chains := make([]*auth.KeyChain, n)
		for i := range chains {
			chains[i] = auth.NewKeyChain([]byte("group bootstrap"))
		}
		cfg := baseNodeConfig(n)
		cfg.Rounds, cfg.Seed = 20, seed
		results, err := RunGroup(context.Background(), bus, cfg, chains)
		bus.Close()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, r := range results {
			if r.AuthRejected != 0 {
				t.Fatalf("seed %d: node %d rejected %d honest frames", seed, i, r.AuthRejected)
			}
			if chains[i].Epoch() != chains[0].Epoch() {
				t.Fatalf("seed %d: chain %d epoch %d != %d", seed, i, chains[i].Epoch(), chains[0].Epoch())
			}
		}
		if chains[0].Epoch() == 0 {
			t.Fatalf("seed %d: chains never ratcheted", seed)
		}
	}
}

// TestAuthenticatedGroupRejectsForgery: an active Eve injects a forged
// ack report claiming she is terminal 1 with a full reception set, before
// the session starts. Every authenticated node drops it and counts it
// once, and the group still agrees.
func TestAuthenticatedGroupRejectsForgery(t *testing.T) {
	const n = 3
	bus := NewChanBus(0.3, 9, DefaultInbox)
	defer bus.Close()
	for i := 0; i < n; i++ {
		if _, err := bus.Endpoint(i); err != nil {
			t.Fatal(err)
		}
	}
	eveEp, err := bus.Endpoint(n)
	if err != nil {
		t.Fatal(err)
	}
	chains := make([]*auth.KeyChain, n)
	for i := range chains {
		chains[i] = auth.NewKeyChain([]byte("honest bootstrap"))
	}
	cfg := baseNodeConfig(n)
	h := wire.Header{Type: wire.TypeAck, From: 1, Session: cfg.Session}
	forged := &wire.AckReport{Header: h, NumX: uint32(cfg.XPerRound), Bitmap: fullIDs(cfg.XPerRound).Words()}
	if err := eveEp.SendCtrl(auth.NewKeyChain([]byte("EVE")).Seal(wire.Marshal(forged))); err != nil {
		t.Fatal(err)
	}
	results, err := RunGroup(context.Background(), bus, cfg, chains)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.AuthRejected != 1 {
			t.Fatalf("node %d rejected %d frames, want the one forgery", i, r.AuthRejected)
		}
	}
	if len(results[0].Secret) == 0 {
		t.Fatal("no secret agreed: agreement is untested")
	}
	for i := 1; i < n; i++ {
		if string(results[i].Secret) != string(results[0].Secret) {
			t.Fatal("forgery disrupted agreement")
		}
	}
}

// TestAuthenticatedGroupSurvivesEarlyNextRound: without a hub ordering
// every receiver's frames alike, a member can read the next round's
// sealed end-of-X before the s-announce that lets it ratchet its chain.
// Here member 2 gets round 1's beacon before round 0's s-announce; it
// must keep the beacon unopened until round 1, or it drops it as a
// forgery and times out.
func TestAuthenticatedGroupSurvivesEarlyNextRound(t *testing.T) {
	const n = 3
	bus := NewChanBus(0.3, 5, DefaultInbox)
	inner, err := bus.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	late := heldEndpoint{Endpoint: inner, ch: make(chan Env, DefaultInbox)}
	var reordered bool
	relayDone := make(chan struct{})
	go func() {
		defer close(relayDone)
		defer close(late.ch)
		var held []Env
		for env := range inner.Recv() {
			frame := env.Frame
			if env.Reliable {
				frame = frame[:len(frame)-auth.TagSize]
			}
			h, _ := wire.PeekHeader(frame)
			switch {
			case h.Type == wire.TypeSAnnounce && h.Round == 0:
				held = append(held, env)
				continue
			case h.Type == wire.TypeBeacon && h.Round == 1:
				late.ch <- env
				for _, env := range held {
					late.ch <- env
				}
				reordered, held = len(held) > 0, nil
				continue
			}
			late.ch <- env
		}
	}()
	chains := make([]*auth.KeyChain, n)
	for i := range chains {
		chains[i] = auth.NewKeyChain([]byte("group bootstrap"))
	}
	cfg := baseNodeConfig(n)
	cfg.Timeout = 2 * time.Second
	results, err := RunGroup(context.Background(), reorderBus{ChanBus: bus, late: late}, cfg, chains)
	bus.Close()
	<-relayDone
	if err != nil {
		t.Fatal(err)
	}
	if !reordered {
		t.Fatal("round 0 announced no secret: nothing was reordered")
	}
	if results[2].Productive != 2 {
		t.Fatalf("member 2: %d productive rounds, want 2", results[2].Productive)
	}
}

// reorderBus is a ChanBus whose endpoint 2 is late.
type reorderBus struct {
	*ChanBus
	late Endpoint
}

func (b reorderBus) Endpoint(id int) (Endpoint, error) {
	if id == 2 {
		return b.late, nil
	}
	return b.ChanBus.Endpoint(id)
}

// heldEndpoint receives from ch instead of its bus's inbox.
type heldEndpoint struct {
	Endpoint
	ch chan Env
}

func (e heldEndpoint) Recv() <-chan Env { return e.ch }

// TestRunNodeBacklogStaysWithinARound: a node drops a frame it did not
// take once the frame's round has passed. When it kept them all, its
// backlog grew by about 1.5 frames a round, to about 600 after 400
// rounds, and every wait re-decoded all of it.
func TestRunNodeBacklogStaysWithinARound(t *testing.T) {
	const n = 3
	bus := NewChanBus(0.4, 7, DefaultInbox)
	defer bus.Close()
	cfg := baseNodeConfig(n)
	cfg.Rounds = 400
	nodes := make([]*node, n)
	for i := range nodes {
		ep, err := bus.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		nc := cfg
		nc.Self = i
		if nodes[i], err = newNode(ep, nc); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, n)
	for _, nd := range nodes {
		go func() {
			_, err := nd.run(context.Background())
			errs <- err
		}()
	}
	for range nodes {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i, nd := range nodes {
		if held := len(nd.held) + len(nd.early); held > cfg.XPerRound {
			t.Fatalf("node %d holds %d frames after %d rounds of %d x-packets", i, held, cfg.Rounds, cfg.XPerRound)
		}
	}
}

func TestRunNodeValidation(t *testing.T) {
	bus := NewChanBus(0, 1, DefaultInbox)
	defer bus.Close()
	ep, _ := bus.Endpoint(0)
	// Oracle estimator is analysis-only.
	cfg := baseNodeConfig(2)
	cfg.Estimator = core.Oracle{}
	if _, err := RunNode(context.Background(), ep, cfg); err == nil {
		t.Fatal("oracle accepted in distributed mode")
	}
	cfg = baseNodeConfig(2)
	cfg.Self = 9
	if _, err := RunNode(context.Background(), ep, cfg); err == nil {
		t.Fatal("bad self accepted")
	}
}

func TestRunNodeTimeout(t *testing.T) {
	// A terminal alone on the bus times out waiting for the leader.
	bus := NewChanBus(0, 1, DefaultInbox)
	defer bus.Close()
	ep, _ := bus.Endpoint(1)
	cfg := baseNodeConfig(2)
	cfg.Self = 1
	cfg.Rotate = false
	cfg.Timeout = 100 * time.Millisecond
	if _, err := RunNode(context.Background(), ep, cfg); err == nil {
		t.Fatal("lonely terminal did not time out")
	}
}

func TestRunNodeContextCancel(t *testing.T) {
	bus := NewChanBus(0, 1, DefaultInbox)
	defer bus.Close()
	ep, _ := bus.Endpoint(1)
	cfg := baseNodeConfig(2)
	cfg.Self = 1
	cfg.Rotate = false
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunNode(ctx, ep, cfg)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancellation ignored")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("node did not observe cancellation")
	}
}

func TestUDPBusEndToEnd(t *testing.T) {
	const n = 3
	bus, err := NewUDPBus(0.3, 13, DefaultInbox)
	if err != nil {
		t.Fatal(err)
	}
	defer bus.Close()
	cfg := baseNodeConfig(n)
	cfg.XPerRound = 30
	cfg.Rounds = 2
	results, err := RunGroup(context.Background(), bus, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if string(results[i].Secret) != string(results[0].Secret) {
			t.Fatalf("node %d secret differs over UDP", i)
		}
	}
	if bus.BitsSent() == 0 {
		t.Fatal("no accounting")
	}
}

func TestUDPBusCtrlSurvivesTotalDataLoss(t *testing.T) {
	// With p = 1 every data frame is erased but the ARQ still delivers
	// control frames; the protocol then aborts rounds cleanly (terminals
	// received nothing, so L = 0) rather than deadlocking.
	const n = 2
	bus, err := NewUDPBus(1, 3, DefaultInbox)
	if err != nil {
		t.Fatal(err)
	}
	defer bus.Close()
	cfg := baseNodeConfig(n)
	cfg.XPerRound = 10
	cfg.Rounds = 1
	cfg.Rotate = false
	results, err := RunGroup(context.Background(), bus, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results[0].Secret) != 0 {
		t.Fatal("secret from a dead channel")
	}
	if results[0].Productive != 0 {
		t.Fatal("round counted productive")
	}
}

// TestUDPSendCtrlReturnsOnClose pins that a closed endpoint's SendCtrl
// fails at once with ErrClosed, as on a ChanBus, instead of retransmitting
// into a closed socket for the whole retry budget: a block's teardown
// closes its bus and then waits for its members, so a member sending its
// last report after the close held every block it hit for two seconds.
func TestUDPSendCtrlReturnsOnClose(t *testing.T) {
	prompt := retransmitEvery * maxRetries / 4
	t.Run("after close", func(t *testing.T) {
		bus, err := NewUDPBus(0, 1, 16)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := bus.Endpoint(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bus.Endpoint(1); err != nil {
			t.Fatal(err)
		}
		bus.Close()
		t0 := time.Now()
		err = ep.SendCtrl([]byte{1, 2, 3}, []byte{4})
		if d := time.Since(t0); !errors.Is(err, ErrClosed) || d > prompt {
			t.Fatalf("SendCtrl on a closed bus: %v after %v, want ErrClosed within %v", err, d, prompt)
		}
		if err := ep.SendData([]byte{1}); !errors.Is(err, ErrClosed) {
			t.Fatalf("SendData on a closed bus: %v, want ErrClosed", err)
		}
	})
	t.Run("while waiting", func(t *testing.T) {
		// A peer that reads and never acks: SendCtrl retransmits to it
		// until the endpoint closes.
		bus, eps := udpEndpoints(t, 0, 1)
		mute, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer mute.Close()
		bus.mu.Lock()
		peer := &udpEndpoint{id: 1, bus: bus, conn: mute, addr: mute.LocalAddr().(*net.UDPAddr).AddrPort(), stop: make(chan struct{})}
		bus.eps.Store(&[]*udpEndpoint{eps[0].(*udpEndpoint), peer})
		bus.mu.Unlock()
		res := make(chan error, 1)
		go func() { res <- eps[0].SendCtrl([]byte{1, 2, 3}) }()
		mute.SetReadDeadline(time.Now().Add(time.Second))
		if _, _, err := mute.ReadFromUDP(make([]byte, 64)); err != nil {
			t.Fatalf("the control datagram never reached the peer: %v", err)
		}
		t0 := time.Now()
		eps[0].Close()
		select {
		case err := <-res:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("SendCtrl released by Close: %v, want ErrClosed", err)
			}
		case <-time.After(prompt):
			t.Fatalf("SendCtrl still waiting %v after Close", time.Since(t0))
		}
	})
}

func TestRunGroupSurvivesGarbageInjection(t *testing.T) {
	// A node on the bus spraying garbage frames (not even protocol
	// messages) must not break an unauthenticated session: decode failures
	// are dropped silently.
	const n = 3
	bus := NewChanBus(0.3, 15, DefaultInbox)
	defer bus.Close()
	junkEp, err := bus.Endpoint(n)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		i := byte(0)
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				junkEp.SendCtrl([]byte{i, i + 1, i + 2})
				junkEp.SendData([]byte{0xFF, i})
				i++
			}
		}
	}()
	cfg := baseNodeConfig(n)
	results, err := RunGroup(context.Background(), bus, cfg, nil)
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if string(results[i].Secret) != string(results[0].Secret) {
			t.Fatal("garbage disrupted agreement")
		}
	}
}

func TestSequentialSessionsOnOneBus(t *testing.T) {
	// Reuse a bus for several sessions back to back; session IDs keep
	// the streams separate.
	bus := NewChanBus(0.4, 23, DefaultInbox)
	defer bus.Close()
	var prev []byte
	for s := 0; s < 3; s++ {
		cfg := baseNodeConfig(3)
		cfg.Session = uint32(100 + s)
		cfg.Seed = int64(42 + s)
		cfg.Rounds = 1
		results, err := RunGroup(context.Background(), bus, cfg, nil)
		if err != nil {
			t.Fatalf("session %d: %v", s, err)
		}
		if prev != nil && len(results[0].Secret) > 0 && string(results[0].Secret) == string(prev) {
			t.Fatal("two sessions produced identical secrets")
		}
		if len(results[0].Secret) > 0 {
			prev = results[0].Secret
		}
	}
}

func TestObserverOverUDP(t *testing.T) {
	const n = 3
	bus, err := NewUDPBus(0.4, 29, DefaultInbox)
	if err != nil {
		t.Fatal(err)
	}
	defer bus.Close()
	obsEp, err := bus.Endpoint(n)
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObserver(777)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		obs.Run(ctx, obsEp, 500*time.Millisecond)
		close(done)
	}()
	cfg := baseNodeConfig(n)
	cfg.XPerRound = 40
	cfg.Rounds = 1
	results, err := RunGroup(context.Background(), bus, cfg, nil)
	if err != nil {
		cancel()
		<-done
		t.Fatal(err)
	}
	// Frames still in flight on loopback reach the observer after the
	// terminals return: let it run to its idle timeout instead of
	// cancelling it.
	<-done
	cancel()
	if len(results[0].Secret) > 0 && obs.SecretDims == 0 {
		t.Fatal("UDP observer missed the session")
	}
}

// TestNodePayloadsKeyedBeyond31Bits: node seeds s and s + (2^31−1) give
// different x-payloads, and so different secrets over the same bus
// schedule. math/rand reduces its seed mod 2^31−1, so a generator seeded
// from the node seed ran both groups identically. The same seed twice
// must still agree: the secrets depend on nothing else.
func TestNodePayloadsKeyedBeyond31Bits(t *testing.T) {
	const n = 3
	secret := func(seed int64) []byte {
		bus := NewChanBus(0.4, 7, DefaultInbox)
		defer bus.Close()
		cfg := baseNodeConfig(n)
		cfg.Seed = seed
		results, err := RunGroup(context.Background(), bus, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(results[0].Secret) == 0 {
			t.Fatal("no secret generated")
		}
		return results[0].Secret
	}
	const s = 42
	a, b := secret(s), secret(s)
	if string(a) != string(b) {
		t.Fatal("two groups with the same seed and bus schedule disagree")
	}
	if string(secret(s+(1<<31-1))) == string(a) {
		t.Fatal("seeds s and s+(2^31−1) gave the same secret")
	}
}
