package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/eve"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/radio"
)

// mediumFor builds a symmetric-erasure medium with n terminals plus one
// Eve node (index n).
func mediumFor(n int, p float64, seed int64) *radio.Medium {
	return radio.NewMedium(radio.Uniform{P: p}, n+1, seed)
}

func TestRunSessionOraclePerfectSecrecy(t *testing.T) {
	cfg := Config{
		Terminals: 4, XPerRound: 60, PayloadBytes: 20,
		Rounds: 3, Rotate: true, Estimator: Oracle{}, Seed: 7,
	}
	med := mediumFor(4, 0.4, 99)
	res, err := RunSession(cfg, med, []radio.NodeID{4})
	if err != nil {
		t.Fatal(err)
	}
	if res.SecretDims == 0 {
		t.Fatal("oracle session generated no secret")
	}
	if !res.AllAgreed {
		t.Fatal("terminals disagreed")
	}
	// The oracle budgets exactly Eve's misses: secrecy must be PERFECT.
	if res.UnknownDims != res.SecretDims {
		t.Fatalf("unknown %d of %d secret dims — oracle must be perfect", res.UnknownDims, res.SecretDims)
	}
	if res.Reliability != 1 {
		t.Fatalf("reliability = %v, want 1", res.Reliability)
	}
	if res.Efficiency <= 0 || res.Efficiency >= 1 {
		t.Fatalf("efficiency = %v", res.Efficiency)
	}
	if int64(len(res.Secret))*8 != res.SecretBits {
		t.Fatal("secret bits accounting wrong")
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("round infos = %d", len(res.Rounds))
	}
	// Rotation actually rotated.
	if res.Rounds[0].Leader == res.Rounds[1].Leader {
		t.Fatal("rotation did not change leader")
	}
	// Secret bytes length = SecretDims * PayloadBytes.
	if len(res.Secret) != res.SecretDims*cfg.PayloadBytes {
		t.Fatalf("secret length %d, dims %d", len(res.Secret), res.SecretDims)
	}
}

func TestRunSessionDeterminism(t *testing.T) {
	run := func() *SessionResult {
		cfg := Config{Terminals: 3, XPerRound: 40, PayloadBytes: 10, Rounds: 2, Estimator: Oracle{}, Seed: 5}
		med := mediumFor(3, 0.35, 123)
		res, err := RunSession(cfg, med, []radio.NodeID{3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if string(a.Secret) != string(b.Secret) {
		t.Fatal("same seeds produced different secrets")
	}
	if a.BitsTransmitted != b.BitsTransmitted || a.UnknownDims != b.UnknownDims {
		t.Fatal("same seeds produced different metrics")
	}
}

func TestRunSessionOracleRandomizedInvariants(t *testing.T) {
	// The core property-based test: across random seeds, group sizes and
	// channel qualities, an oracle-budgeted session must ALWAYS be
	// perfectly secret and all terminals must ALWAYS agree.
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(5)
		p := 0.15 + 0.6*rng.Float64()
		cfg := Config{
			Terminals: n, XPerRound: 30 + rng.Intn(40), PayloadBytes: 8,
			Rounds: 1 + rng.Intn(2), Rotate: rng.Intn(2) == 0,
			Estimator: Oracle{}, Seed: rng.Int63(),
		}
		med := mediumFor(n, p, rng.Int63())
		res, err := RunSession(cfg, med, []radio.NodeID{radio.NodeID(n)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.AllAgreed {
			t.Fatalf("trial %d (n=%d p=%.2f): disagreement", trial, n, p)
		}
		if res.UnknownDims != res.SecretDims {
			t.Fatalf("trial %d (n=%d p=%.2f): leak %d/%d", trial, n, p,
				res.SecretDims-res.UnknownDims, res.SecretDims)
		}
	}
}

func TestRunSessionEveHearsEverything(t *testing.T) {
	// p = 0: Eve receives every x-packet; no secret can exist.
	cfg := Config{Terminals: 3, XPerRound: 30, PayloadBytes: 8, Estimator: Oracle{}, Seed: 1}
	med := mediumFor(3, 0, 1)
	res, err := RunSession(cfg, med, []radio.NodeID{3})
	if err != nil {
		t.Fatal(err)
	}
	if res.SecretDims != 0 || len(res.Secret) != 0 {
		t.Fatalf("secret generated despite omniscient Eve: %d dims", res.SecretDims)
	}
	if !math.IsNaN(res.Reliability) {
		t.Fatalf("reliability = %v, want NaN", res.Reliability)
	}
	if res.Rounds[0].L != 0 {
		t.Fatal("round L should be 0")
	}
}

func TestRunSessionLeaveOneOut(t *testing.T) {
	cfg := Config{
		Terminals: 5, XPerRound: 80, PayloadBytes: 16,
		Rounds: 2, Rotate: true, Seed: 11, // default LOO estimator
	}
	med := mediumFor(5, 0.45, 77)
	res, err := RunSession(cfg, med, []radio.NodeID{5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAgreed {
		t.Fatal("terminals disagreed")
	}
	if res.SecretDims == 0 {
		t.Skip("LOO produced no secret at this seed; acceptable but uninformative")
	}
	if res.Reliability < 0 || res.Reliability > 1 {
		t.Fatalf("reliability out of range: %v", res.Reliability)
	}
}

func TestRunSessionMultiAntennaEve(t *testing.T) {
	// Two-antenna Eve on independent channels hears strictly more;
	// with the oracle the protocol adapts and stays perfect.
	cfg := Config{Terminals: 3, XPerRound: 50, PayloadBytes: 8, Estimator: Oracle{}, Seed: 3}
	med := radio.NewMedium(radio.Uniform{P: 0.5}, 5, 42)
	res, err := RunSession(cfg, med, []radio.NodeID{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnknownDims != res.SecretDims {
		t.Fatal("oracle with multi-antenna Eve must still be perfect")
	}

	// And the secret is smaller than against a single antenna (strictly
	// more knowledge can only shrink the budgets) — compare by rerunning.
	med1 := radio.NewMedium(radio.Uniform{P: 0.5}, 5, 42)
	res1, err := RunSession(cfg, med1, []radio.NodeID{3})
	if err != nil {
		t.Fatal(err)
	}
	if res.SecretDims > res1.SecretDims {
		t.Fatalf("two antennas (%d dims) beat one (%d dims)", res.SecretDims, res1.SecretDims)
	}
}

func TestRunSessionValidation(t *testing.T) {
	cfg := Config{Terminals: 3, XPerRound: 10}
	if _, err := RunSession(Config{Terminals: 1, XPerRound: 5}, mediumFor(3, 0.5, 1), nil); err == nil {
		t.Fatal("bad config accepted")
	}
	// Medium too small.
	if _, err := RunSession(cfg, radio.NewMedium(radio.Uniform{}, 2, 1), nil); err == nil {
		t.Fatal("small medium accepted")
	}
	// Eve node out of range.
	if _, err := RunSession(cfg, mediumFor(3, 0.5, 1), []radio.NodeID{9}); err == nil {
		t.Fatal("eve out of range accepted")
	}
	// Eve colliding with terminal.
	if _, err := RunSession(cfg, mediumFor(3, 0.5, 1), []radio.NodeID{1}); err == nil {
		t.Fatal("eve/terminal collision accepted")
	}
}

// greedyEstimator deliberately over-budgets: every class gets its full
// size. It exists to prove the reliability machinery detects leaks.
type greedyEstimator struct{}

func (greedyEstimator) Name() string      { return "greedy(unsafe)" }
func (greedyEstimator) NeedsOracle() bool { return false }
func (greedyEstimator) Budgets(ctx *EstimatorContext) []int {
	out := make([]int, len(ctx.Classes))
	for i, cl := range ctx.Classes {
		out[i] = cl.Size()
	}
	return out
}

func TestGreedyEstimatorLeaksAndIsDetected(t *testing.T) {
	cfg := Config{Terminals: 3, XPerRound: 60, PayloadBytes: 8, Estimator: greedyEstimator{}, Seed: 13}
	med := mediumFor(3, 0.4, 555)
	res, err := RunSession(cfg, med, []radio.NodeID{3})
	if err != nil {
		t.Fatal(err)
	}
	if res.SecretDims == 0 {
		t.Fatal("greedy produced nothing")
	}
	// Eve received ~60% of x-packets; full-size budgets are far beyond
	// her misses, so she must know a positive fraction.
	if res.UnknownDims == res.SecretDims {
		t.Fatal("greedy over-budgeting reported as perfectly secret")
	}
	if !(res.Reliability < 1) {
		t.Fatalf("reliability = %v, want < 1", res.Reliability)
	}
	if res.EveKnownFraction <= 0 {
		t.Fatalf("known fraction = %v", res.EveKnownFraction)
	}
	// Agreement among terminals is unaffected by leakage.
	if !res.AllAgreed {
		t.Fatal("terminals disagreed")
	}
}

func TestRankCertificateMatchesConstructiveAttack(t *testing.T) {
	// White-box: replay one round manually and verify that the number of
	// secret rows Eve can actually reconstruct equals SecretDims -
	// UnknownDims when her span cleanly contains them, and that she can
	// never reconstruct MORE than the certificate allows.
	rng := rand.New(rand.NewSource(31))
	f := Field()
	for trial := 0; trial < 15; trial++ {
		n := 3
		numX := 24
		// Random receptions.
		recv := []*packet.IDSet{fullIDSet(numX), packet.NewIDSet(numX), packet.NewIDSet(numX)}
		eveSet := packet.NewIDSet(numX)
		for id := 0; id < numX; id++ {
			for ti := 1; ti < n; ti++ {
				if rng.Float64() < 0.7 {
					recv[ti].Add(packet.ID(id))
				}
			}
			if rng.Float64() < 0.5 {
				eveSet.Add(packet.ID(id))
			}
		}
		ctx := &EstimatorContext{Terminals: n, Leader: 0, NumX: numX, Recv: recv}
		ctx.Classes = BuildClasses(n, 0, numX, recv)
		// Use the unsafe estimator so leakage actually happens sometimes.
		plan := BuildPlan(ctx, greedyEstimator{})
		if plan.L == 0 {
			continue
		}
		xSym := make([][]Sym, numX)
		for i := range xSym {
			p := make([]Sym, 4)
			for j := range p {
				p[j] = Sym(rng.Intn(65536))
			}
			xSym[i] = p
		}
		x := wireRows(xSym)
		lr := ComputeLeaderRound(nil, plan, x)

		know := eve.NewKnowledge(f, numX)
		for _, id := range eveSet.Slice() {
			know.AddUnit(int(id), x[int(id)])
		}
		yox := plan.YOverX()
		zc := plan.Redist.ZCoeffs()
		for j := 0; j < zc.Rows(); j++ {
			row := make([]Sym, numX)
			for yi, c := range zc.Row(j) {
				if c != 0 {
					f.AddMulSlice(row, yox.Row(yi), c)
				}
			}
			know.AddCombo(row, lr.Z[j])
		}
		sm := secretOverXMatrix(plan)
		u := know.UnknownSecretDims(sm)
		recovered := 0
		for i := 0; i < sm.Rows(); i++ {
			row := append([]Sym(nil), sm.Row(i)...)
			got, ok := know.Reconstruct(row)
			if ok {
				recovered++
				// When Eve reconstructs, the payload must be the REAL
				// secret packet.
				if !bytes.Equal(got, lr.Secret[i]) {
					t.Fatalf("trial %d: Eve reconstructed wrong payload", trial)
				}
			}
		}
		if recovered > plan.L-u {
			t.Fatalf("trial %d: attack recovered %d rows but certificate says only %d dims known",
				trial, recovered, plan.L-u)
		}
	}
}

func TestSecretKbpsAt(t *testing.T) {
	r := &SessionResult{Efficiency: 0.038}
	if got := r.SecretKbpsAt(1e6); math.Abs(got-38) > 1e-9 {
		t.Fatalf("kbps = %v", got)
	}
}

// Guard against accidental field-size regressions: symbols must be 2 bytes.
func TestSymbolWidth(t *testing.T) {
	var s Sym = 0xffff
	if s != 65535 {
		t.Fatal("Sym must be uint16")
	}
	if Field().Size() != 65536 {
		t.Fatal("protocol field must be GF(2^16)")
	}
}

func TestAirtimeAccounting(t *testing.T) {
	cfg := Config{Terminals: 3, XPerRound: 30, PayloadBytes: 20, Estimator: Oracle{}, Seed: 2}
	med := mediumFor(3, 0.4, 3)
	res, err := RunSession(cfg, med, []radio.NodeID{3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Airtime <= 0 {
		t.Fatal("no airtime accounted")
	}
	// Airtime must exceed the bare serialization time at 1 Mbps (MAC
	// overheads only add).
	bare := time.Duration(float64(res.BitsTransmitted) / 1e6 * float64(time.Second))
	if res.Airtime <= bare {
		t.Fatalf("airtime %v <= serialization floor %v", res.Airtime, bare)
	}
	if res.SecretBits > 0 && res.SecretKbpsAirtime() <= 0 {
		t.Fatal("airtime rate not positive")
	}
	// The airtime-derived rate is strictly more conservative than the
	// bits-derived one.
	if res.SecretKbpsAirtime() >= res.SecretKbpsAt(1e6) {
		t.Fatalf("airtime rate %.2f should be below bits rate %.2f",
			res.SecretKbpsAirtime(), res.SecretKbpsAt(1e6))
	}
}

func TestTracerReceivesEvents(t *testing.T) {
	log := obs.NewSpanLog(64)
	cfg := Config{
		Terminals: 3, XPerRound: 40, PayloadBytes: 8,
		Rounds: 2, Estimator: Oracle{}, Seed: 4, Tracer: log,
	}
	med := mediumFor(3, 0.4, 17)
	if _, err := RunSession(cfg, med, []radio.NodeID{3}); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range log.Recent(0) {
		kinds[e.Name]++
	}
	if kinds["round_start"] != 2 {
		t.Fatalf("round_start count = %d", kinds["round_start"])
	}
	if kinds["session_done"] != 1 {
		t.Fatalf("session_done count = %d", kinds["session_done"])
	}
	if kinds["plan_built"] != 2 {
		t.Fatalf("plan_built count = %d", kinds["plan_built"])
	}
	if kinds["secret_derived"]+kinds["round_aborted"] != 2 {
		t.Fatal("every round must end in secret or abort")
	}
}
