package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

// The paper's joint-secrecy argument rests on structural invariants
// of the plan; this file checks them over randomized reception patterns
// with testing/quick driving the randomness.

type planInvariantInput struct {
	Seed int64
}

func buildRandomPlan(seed int64, est Estimator, pooling Pooling) (*Plan, *EstimatorContext) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(6)
	numX := 10 + rng.Intn(80)
	recv := make([]*packet.IDSet, n)
	recv[0] = fullIDSet(numX)
	for i := 1; i < n; i++ {
		recv[i] = packet.NewIDSet(numX)
		keep := 0.2 + 0.7*rng.Float64()
		for id := 0; id < numX; id++ {
			if rng.Float64() < keep {
				recv[i].Add(packet.ID(id))
			}
		}
	}
	eveRecv := packet.NewIDSet(numX)
	for id := 0; id < numX; id++ {
		if rng.Float64() < 0.5 {
			eveRecv.Add(packet.ID(id))
		}
	}
	ctx := &EstimatorContext{
		Terminals: n, Leader: 0, NumX: numX,
		Recv:    recv,
		Classes: BuildClasses(n, 0, numX, recv),
		EveRecv: eveRecv,
	}
	ctx.Classes = pooling.Pools(ctx)
	return BuildPlan(ctx, est), ctx
}

func checkPlanInvariants(t *testing.T, plan *Plan, ctx *EstimatorContext) {
	t.Helper()
	// M is the sum of budgets; every budget fits its pool.
	sum := 0
	for k, b := range plan.Budgets {
		if b <= 0 || b > plan.Classes[k].Size() {
			t.Fatalf("budget %d out of range for pool of %d", b, plan.Classes[k].Size())
		}
		sum += b
	}
	if sum != plan.M {
		t.Fatalf("M = %d but budgets sum to %d", plan.M, sum)
	}
	// Mi bookkeeping: leader has all; L = min over non-leader terminals.
	if plan.M > 0 && plan.Mi[ctx.Leader] != plan.M {
		t.Fatalf("leader Mi = %d, want %d", plan.Mi[ctx.Leader], plan.M)
	}
	minMi := plan.M
	for i := 0; i < ctx.Terminals; i++ {
		if i == ctx.Leader {
			continue
		}
		if got := len(plan.TerminalYIndices(i)); got != plan.Mi[i] {
			t.Fatalf("terminal %d indices %d != Mi %d", i, got, plan.Mi[i])
		}
		if plan.Mi[i] < minMi {
			minMi = plan.Mi[i]
		}
	}
	if plan.M > 0 && plan.L != minMi {
		t.Fatalf("L = %d, want min Mi %d", plan.L, minMi)
	}
	// THE load-bearing invariant: the y-over-x matrix always has full row
	// rank M — per-pool Cauchy blocks on disjoint supports cannot
	// interfere — so the (z, s) bijection argument applies whenever the
	// per-pool wiretap guarantees hold.
	if plan.M > 0 {
		yox := plan.YOverX()
		if r := yox.Rank(); r != plan.M {
			t.Fatalf("YOverX rank %d, want %d", r, plan.M)
		}
	}
}

func TestPlanInvariantsQuick(t *testing.T) {
	cfgs := []struct {
		est  Estimator
		pool Pooling
	}{
		{Oracle{}, ExactPooling{}},
		{Oracle{}, BalancedPooling{}},
		{LeaveOneOut{}, BalancedPooling{}},
		{LeaveOneOut{}, BalancedPooling{UsePairs: true}},
		{FixedDelta{Delta: 0.5}, ExactPooling{}},
		{KSubset{K: 2}, BalancedPooling{}},
	}
	err := quick.Check(func(in planInvariantInput) bool {
		for _, c := range cfgs {
			plan, ctx := buildRandomPlan(in.Seed, c.est, c.pool)
			checkPlanInvariants(t, plan, ctx)
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOracleBudgetsNeverExceedTrueMisses(t *testing.T) {
	// Soundness of the oracle: for every pool, budget <= Eve's true
	// misses within the pool (this is what makes oracle sessions
	// provably perfect).
	err := quick.Check(func(in planInvariantInput) bool {
		plan, ctx := buildRandomPlan(in.Seed, Oracle{}, BalancedPooling{})
		for k, cl := range plan.Classes {
			missed := 0
			for _, id := range cl.IDs {
				if !ctx.EveRecv.Has(id) {
					missed++
				}
			}
			if plan.Budgets[k] > missed {
				t.Fatalf("oracle budget %d > true misses %d", plan.Budgets[k], missed)
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLeaderRoundLinearConsistency(t *testing.T) {
	// The computed payloads must satisfy the announced linear relations:
	// y = YOverX · x, z = Zc · y, s = Sc · y — checked numerically on
	// random instances. This ties the wire announcements to the actual
	// contents, which is what Eve's tracker assumes.
	err := quick.Check(func(in planInvariantInput) bool {
		plan, _ := buildRandomPlan(in.Seed, Oracle{}, BalancedPooling{})
		if plan.L == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(in.Seed ^ 0x5eed))
		xSym := make([][]Sym, plan.NumX)
		for i := range xSym {
			xSym[i] = []Sym{Sym(rng.Intn(65536)), Sym(rng.Intn(65536))}
		}
		lr := ComputeLeaderRound(nil, plan, wireRows(xSym))
		ly, lz := symRows(lr.Y), symRows(lr.Z)
		f := Field()
		yox := plan.YOverX()
		for j := 0; j < plan.M; j++ {
			want := make([]Sym, 2)
			for c := 0; c < plan.NumX; c++ {
				if v := yox.At(j, c); v != 0 {
					f.AddMulSlice(want, xSym[c], v)
				}
			}
			if want[0] != ly[j][0] || want[1] != ly[j][1] {
				t.Fatalf("y[%d] does not match YOverX · x", j)
			}
		}
		zc := plan.Redist.ZCoeffs()
		for j := range lz {
			want := make([]Sym, 2)
			for yi := 0; yi < plan.M; yi++ {
				if v := zc.At(j, yi); v != 0 {
					f.AddMulSlice(want, ly[yi], v)
				}
			}
			if want[0] != lz[j][0] || want[1] != lz[j][1] {
				t.Fatalf("z[%d] does not match Zc · y", j)
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}
