package thinair

import (
	"context"
	"testing"
	"time"

	"repro/internal/transport"
)

func TestSimulateQuickstart(t *testing.T) {
	res, err := Simulate(SimOptions{Terminals: 3, Erasure: 0.4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAgreed {
		t.Fatal("terminals disagreed")
	}
	if len(res.Secret) == 0 {
		t.Fatal("no secret")
	}
	if res.Efficiency <= 0 {
		t.Fatal("efficiency not positive")
	}
}

func TestSimulateOracleIsPerfect(t *testing.T) {
	res, err := Simulate(SimOptions{
		Terminals: 4, Erasure: 0.5, Estimator: Oracle{}, Rounds: 2, Rotate: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SecretDims == 0 || res.Reliability != 1 {
		t.Fatalf("dims=%d reliability=%v", res.SecretDims, res.Reliability)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(SimOptions{Terminals: 3, Erasure: 1.0}); err == nil {
		t.Fatal("erasure 1.0 accepted")
	}
	if _, err := Simulate(SimOptions{Terminals: 0, Erasure: 0.5}); err == nil {
		t.Fatal("0 terminals accepted")
	}
}

func TestSimulateMultiAntenna(t *testing.T) {
	one, err := Simulate(SimOptions{Terminals: 3, Erasure: 0.5, Estimator: Oracle{}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Simulate(SimOptions{Terminals: 3, Erasure: 0.5, Estimator: Oracle{}, EveAntennas: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if two.SecretDims > one.SecretDims {
		t.Fatalf("more antennas should not increase the secret: %d > %d", two.SecretDims, one.SecretDims)
	}
	if two.Reliability != 1 {
		t.Fatal("oracle multi-antenna run leaked")
	}
}

func TestRunExperimentFacade(t *testing.T) {
	ch := DefaultChannel()
	res, err := RunExperiment(&Experiment{
		Placement: Placement{EveCell: 4, TerminalCells: []Cell{0, 2, 8}},
		Channel:   ch,
		Protocol:  Config{XPerRound: 36, PayloadBytes: 8, Estimator: Oracle{}},
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAgreed {
		t.Fatal("disagreement")
	}
	if len(EnumeratePlacements(8)) != 9 {
		t.Fatal("placement enumeration wrong")
	}
}

func TestConcurrentFacade(t *testing.T) {
	bus := NewChanBus(0.4, 7)
	defer bus.Close()
	cfg := NodeConfig{
		Config:  Config{Terminals: 3, XPerRound: 60, PayloadBytes: 8, Rounds: 1},
		Session: 1,
		Timeout: 5 * time.Second,
	}
	results, err := transport.RunGroup(context.Background(), bus, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		if string(results[i].Secret) != string(results[0].Secret) {
			t.Fatal("secrets differ")
		}
	}
}

func TestKeyChainFacade(t *testing.T) {
	a := NewKeyChain([]byte("b"))
	b := NewKeyChain([]byte("b"))
	sealed := a.Seal([]byte("x"))
	if _, err := b.Open(sealed); err != nil {
		t.Fatal(err)
	}
	if Reliability(4, 4) != 1 {
		t.Fatal("reliability facade wrong")
	}
}

func TestKeyPoolFacade(t *testing.T) {
	sessions := 0
	pool := NewKeyPoolWithRefill(func() ([]byte, error) {
		sessions++
		res, err := Simulate(SimOptions{Terminals: 3, Erasure: 0.4, Seed: int64(sessions)})
		if err != nil {
			return nil, err
		}
		return res.Secret, nil
	}, 64)
	k, err := pool.Draw(128)
	if err != nil {
		t.Fatal(err)
	}
	if len(k) != 128 || sessions == 0 {
		t.Fatalf("k=%d sessions=%d", len(k), sessions)
	}
	p2 := NewKeyPool()
	p2.Deposit([]byte{1, 2, 3})
	if p2.Available() != 3 {
		t.Fatal("facade pool broken")
	}
}

func TestServiceFacade(t *testing.T) {
	svc := NewService(ServiceConfig{MaxSessions: 2})
	s, err := svc.Create(SessionSpec{
		Terminals: 3, Erasure: 0.45, XPerRound: 64, PayloadBytes: 16,
		Rounds: 1, Rotate: true, Seed: 7, LowWater: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	key, err := s.Draw(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(key) != 32 {
		t.Fatalf("key = %d bytes", len(key))
	}
	if m := s.Metrics(); m.Productive == 0 || m.Pool.Drawn != 32 {
		t.Fatalf("metrics = %+v", m)
	}
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestTracerFacade(t *testing.T) {
	log := NewSpanLog(64)
	_, err := Simulate(SimOptions{Terminals: 3, Erasure: 0.4, Seed: 2, Tracer: log})
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Recent(0)) == 0 {
		t.Fatal("no events traced")
	}
}

func TestSelfJamExperimentFacade(t *testing.T) {
	ch := DefaultChannel()
	ch.SelfJam = true
	ch.JamPErase = 0
	res, err := RunExperiment(&Experiment{
		Placement: Placement{EveCell: 4, TerminalCells: []Cell{0, 2, 6, 8}},
		Channel:   ch,
		Protocol:  Config{XPerRound: 45, PayloadBytes: 8, Rounds: 2, Rotate: true, Estimator: Oracle{}},
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAgreed {
		t.Fatal("self-jam run disagreed")
	}
	if res.UnknownDims != res.SecretDims {
		t.Fatal("oracle self-jam run leaked")
	}
	// Self-jamming must actually degrade Eve.
	for _, ri := range res.Rounds {
		if ri.EveMissRate <= 0.05 {
			t.Fatalf("Eve miss rate %v suspiciously low under self-jamming", ri.EveMissRate)
		}
	}
}

func TestSimulatePairwiseFacade(t *testing.T) {
	res, err := SimulatePairwise(SimOptions{Terminals: 4, Erasure: 0.4, Estimator: Oracle{}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 3 {
		t.Fatalf("pairs = %d", len(res.Pairs))
	}
	for _, p := range res.Pairs {
		if p.SecretDims > 0 && p.UnknownDims != p.SecretDims {
			t.Fatalf("terminal %d pairwise leaked", p.Terminal)
		}
	}
	if _, err := SimulatePairwise(SimOptions{Terminals: 2, Erasure: 1.5}); err == nil {
		t.Fatal("bad erasure accepted")
	}
}

func TestSimulateUnicastBaselineFacade(t *testing.T) {
	group, err := Simulate(SimOptions{Terminals: 6, Erasure: 0.5, XPerRound: 80, Rounds: 2, Rotate: true,
		Estimator: Oracle{}, Pooling: ExactPooling{}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	uni, err := SimulateUnicastBaseline(SimOptions{Terminals: 6, Erasure: 0.5, XPerRound: 80, Rounds: 2, Rotate: true,
		Estimator: Oracle{}, Pooling: ExactPooling{}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if uni.SecretDims == 0 || group.SecretDims == 0 {
		t.Skip("no secrets this seed")
	}
	if uni.UnknownDims != uni.SecretDims {
		t.Fatal("unicast baseline leaked under oracle")
	}
	if group.Efficiency <= uni.Efficiency {
		t.Fatalf("group %.4f <= unicast %.4f at n=6 (Figure 1's point)", group.Efficiency, uni.Efficiency)
	}
	if _, err := SimulateUnicastBaseline(SimOptions{Terminals: 2, Erasure: -1}); err == nil {
		t.Fatal("bad erasure accepted")
	}
}
