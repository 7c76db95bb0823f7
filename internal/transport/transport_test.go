package transport

import (
	"context"
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

func TestRunGroupAuthenticated(t *testing.T) {
	const n = 3
	bus := NewChanBus(0.3, 5, DefaultInbox)
	defer bus.Close()
	chains := make([]*auth.KeyChain, n)
	for i := range chains {
		chains[i] = auth.NewKeyChain([]byte("group bootstrap"))
	}
	cfg := baseNodeConfig(n)
	results, err := RunGroup(context.Background(), bus, cfg, chains)
	if err != nil {
		t.Fatal(err)
	}
	if len(results[0].Secret) == 0 {
		t.Skip("no secret this seed")
	}
	// All chains ratcheted in lockstep.
	for i := 1; i < n; i++ {
		if chains[i].Epoch() != chains[0].Epoch() {
			t.Fatalf("chain %d epoch %d != %d", i, chains[i].Epoch(), chains[0].Epoch())
		}
	}
	if chains[0].Epoch() == 0 {
		t.Fatal("chains never ratcheted")
	}
}

func TestAuthenticatedGroupRejectsForgery(t *testing.T) {
	// An active Eve injects a forged ack report claiming she is terminal
	// 1 with a full reception set; authenticated nodes must drop it.
	const n = 3
	bus := NewChanBus(0.3, 9, DefaultInbox)
	defer bus.Close()
	eveEp, err := bus.Endpoint(n)
	if err != nil {
		t.Fatal(err)
	}
	chains := make([]*auth.KeyChain, n)
	for i := range chains {
		chains[i] = auth.NewKeyChain([]byte("honest bootstrap"))
	}
	stop := make(chan struct{})
	go func() {
		// Spray forgeries (wrong key) while the session runs.
		forger := auth.NewKeyChain([]byte("EVE"))
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				frame := forger.Seal([]byte{0x54, 0x41, 1, 2, 1, 0, 0, 3, 9, 0, 0})
				eveEp.SendCtrl(frame)
			}
		}
	}()
	cfg := baseNodeConfig(n)
	results, err := RunGroup(context.Background(), bus, cfg, chains)
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for _, r := range results {
		rejected += r.AuthRejected
	}
	if rejected == 0 {
		t.Fatal("no forgeries were rejected (injection broken?)")
	}
	for i := 1; i < n; i++ {
		if string(results[i].Secret) != string(results[0].Secret) {
			t.Fatal("forgery disrupted agreement")
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
