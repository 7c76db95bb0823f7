package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/packet"
)

func TestConfigValidateDefaults(t *testing.T) {
	cfg := Config{Terminals: 3, XPerRound: 20}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.PayloadBytes != DefaultPayloadBytes {
		t.Fatalf("PayloadBytes = %d", cfg.PayloadBytes)
	}
	if cfg.Rounds != 1 || cfg.SlotsPerRound != DefaultSlotsPerRound {
		t.Fatalf("defaults: rounds=%d slots=%d", cfg.Rounds, cfg.SlotsPerRound)
	}
	if cfg.Estimator == nil || cfg.Estimator.Name() != "leave-one-out" {
		t.Fatalf("default estimator = %v", cfg.Estimator)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	bad := []Config{
		{Terminals: 1, XPerRound: 10},
		{Terminals: 17, XPerRound: 10},
		{Terminals: 3, XPerRound: 0},
		{Terminals: 3, XPerRound: 99999},
		{Terminals: 3, XPerRound: 10, PayloadBytes: 7},
		{Terminals: 3, XPerRound: 10, Rounds: -1},
		{Terminals: 3, XPerRound: 10, SlotsPerRound: -2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
			t.Errorf("case %d: err = %v, want ErrConfig", i, err)
		}
	}
}

func TestReliabilityMetric(t *testing.T) {
	if r := Reliability(10, 10); r != 1 {
		t.Fatalf("perfect secrecy r = %v", r)
	}
	if r := Reliability(10, 0); r != 0 {
		t.Fatalf("total leak r = %v", r)
	}
	if !math.IsNaN(Reliability(0, 0)) {
		t.Fatal("no secret should be NaN")
	}
	// The paper's n=6 example: r = 0.2 corresponds to guess prob 0.87.
	// With f = 2*0.87-1 = 0.74 known.
	r := Reliability(100, 26)
	if math.Abs(GuessProbability(r)-0.87) > 0.001 {
		t.Fatalf("r=%v -> guess prob %v, want ~0.87", r, GuessProbability(r))
	}
}

func TestReliabilityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown > secret did not panic")
		}
	}()
	Reliability(2, 3)
}

func setOf(ids ...packet.ID) *packet.IDSet { return packet.FromSlice(ids) }

func TestBuildClasses(t *testing.T) {
	// n=3, leader 0. Terminal 1 received {0,1,2,5}; terminal 2 {1,2,3}.
	recv := []*packet.IDSet{nil, setOf(0, 1, 2, 5), setOf(1, 2, 3)}
	cls := BuildClasses(3, 0, 6, recv)
	// Expected classes: {1,2} -> {1,2}; {1} -> {0,5}; {2} -> {3}. ID 4
	// received by nobody is dropped.
	if len(cls) != 3 {
		t.Fatalf("classes = %d: %+v", len(cls), cls)
	}
	if cls[0].Members != (1<<1)|(1<<2) || cls[0].Size() != 2 {
		t.Fatalf("first class %+v", cls[0])
	}
	if cls[1].Members != 1<<1 || len(cls[1].IDs) != 2 {
		t.Fatalf("second class %+v", cls[1])
	}
	if cls[2].Members != 1<<2 || cls[2].IDs[0] != 3 {
		t.Fatalf("third class %+v", cls[2])
	}
	if !cls[0].HasMember(1) || !cls[0].HasMember(2) || cls[0].HasMember(0) {
		t.Fatal("HasMember wrong")
	}
	if cls[0].MemberCount() != 2 {
		t.Fatal("MemberCount wrong")
	}
}

func TestBuildClassesEmptyAndLeaderIgnored(t *testing.T) {
	recv := []*packet.IDSet{setOf(0, 1), nil, nil}
	cls := BuildClasses(3, 0, 2, recv) // only the leader "received"
	if len(cls) != 0 {
		t.Fatalf("classes = %+v, want none", cls)
	}
}

func TestBinomialLowerQuantile(t *testing.T) {
	// Degenerate cases.
	if binomialLowerQuantile(0, 0.5, 0.05) != 0 {
		t.Fatal("c=0")
	}
	if binomialLowerQuantile(5, 0, 0.05) != 0 {
		t.Fatal("p=0")
	}
	if binomialLowerQuantile(5, 1, 0.05) != 5 {
		t.Fatal("p=1")
	}
	// c=1, p=0.5: P[Bin<1]=0.5 > 0.05 -> m=0.
	if got := binomialLowerQuantile(1, 0.5, 0.05); got != 0 {
		t.Fatalf("c=1 m=%d", got)
	}
	// c=20, p=0.5: CDF(4) = 0.0059, CDF(5) = 0.0207, CDF(6)=0.0577.
	// eps=0.05 -> largest m with CDF(m-1)<=eps is m=6.
	if got := binomialLowerQuantile(20, 0.5, 0.05); got != 6 {
		t.Fatalf("c=20 m=%d", got)
	}
	// Monotonicity in c and p.
	prev := 0
	for c := 1; c <= 60; c++ {
		m := binomialLowerQuantile(c, 0.4, 0.01)
		if m < prev {
			t.Fatalf("quantile not monotone in c at %d: %d < %d", c, m, prev)
		}
		prev = m
	}
	if binomialLowerQuantile(30, 0.6, 0.01) < binomialLowerQuantile(30, 0.3, 0.01) {
		t.Fatal("quantile not monotone in p")
	}
	// Large class: log-space recurrence must not underflow.
	m := binomialLowerQuantile(5000, 0.5, 0.01)
	if m < 2300 || m > 2500 {
		t.Fatalf("c=5000 m=%d, want near 2418", m)
	}
}

func TestOracleEstimator(t *testing.T) {
	ctx := &EstimatorContext{
		Terminals: 3, Leader: 0, NumX: 6,
		Recv:    []*packet.IDSet{fullIDSet(6), setOf(0, 1, 2, 5), setOf(1, 2, 3)},
		EveRecv: setOf(1, 3, 5),
	}
	ctx.Classes = BuildClasses(3, 0, 6, ctx.Recv)
	got := (Oracle{}).Budgets(ctx)
	// Classes: {1,2}:{1,2} -> Eve has 1, missed 2 -> 1.
	//          {1}:{0,5}   -> Eve has 5, missed 0 -> 1.
	//          {2}:{3}     -> Eve has 3 -> 0.
	want := []int{1, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("budgets = %v, want %v", got, want)
		}
	}
	if !(Oracle{}).NeedsOracle() || (Oracle{}).Name() != "oracle" {
		t.Fatal("oracle metadata wrong")
	}
}

func TestOraclePanicsWithoutEveRecv(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(Oracle{}).Budgets(&EstimatorContext{Classes: []Class{{Members: 1}}})
}

func TestMinMissRate(t *testing.T) {
	// Terminal 1 missed 2 of 6 (received 4); terminal 2 missed 3 of 6.
	ctx := &EstimatorContext{
		Terminals: 3, Leader: 0, NumX: 6,
		Recv: []*packet.IDSet{fullIDSet(6), setOf(0, 1, 2, 5), setOf(1, 2, 3)},
	}
	if got := minMissRate(ctx, 1); math.Abs(got-2.0/6) > 1e-12 {
		t.Fatalf("k=1 miss = %v", got)
	}
	// k=2: union {0,1,2,3,5} misses only packet 4 -> 1/6.
	if got := minMissRate(ctx, 2); math.Abs(got-1.0/6) > 1e-12 {
		t.Fatalf("k=2 miss = %v", got)
	}
	// k larger than available subsets clamps.
	if got := minMissRate(ctx, 5); math.Abs(got-1.0/6) > 1e-12 {
		t.Fatalf("k=5 miss = %v", got)
	}
}

func TestLeaveOneOutAndKSubsetBudgets(t *testing.T) {
	// Build a context with a big class so budgets are nonzero.
	ids := make([]packet.ID, 40)
	for i := range ids {
		ids[i] = packet.ID(i)
	}
	recv := []*packet.IDSet{fullIDSet(40), packet.FromSlice(ids[:30]), packet.FromSlice(ids[:30])}
	ctx := &EstimatorContext{Terminals: 3, Leader: 0, NumX: 40, Recv: recv}
	ctx.Classes = BuildClasses(3, 0, 40, recv)
	// Both terminals received exactly ids 0..29 -> one class {1,2} of 30,
	// miss rate 10/40 = 0.25 for each pretend-Eve.
	loo := LeaveOneOut{}
	b := loo.Budgets(ctx)
	if len(b) != 1 || b[0] <= 0 {
		t.Fatalf("LOO budgets = %v", b)
	}
	wantB := binomialLowerQuantile(30, 0.25, DefaultEpsilon)
	if b[0] != wantB {
		t.Fatalf("LOO budget = %d, want %d", b[0], wantB)
	}
	// Safety < 1 shrinks budgets.
	safe := LeaveOneOut{Safety: 0.5}
	bs := safe.Budgets(ctx)
	if bs[0] > b[0] {
		t.Fatalf("safety did not shrink budget: %d > %d", bs[0], b[0])
	}
	// KSubset(1) == LeaveOneOut.
	k1 := KSubset{K: 1}.Budgets(ctx)
	if k1[0] != b[0] {
		t.Fatalf("KSubset(1)=%v != LOO %v", k1, b)
	}
	// KSubset(2): union of both = ids 0..29, miss rate still 0.25 here
	// (identical receptions), budgets equal.
	k2 := KSubset{K: 2}.Budgets(ctx)
	if k2[0] != b[0] {
		t.Fatalf("KSubset(2)=%v", k2)
	}
	if (KSubset{K: 2}).Name() == "" || (LeaveOneOut{}).NeedsOracle() || (KSubset{}).NeedsOracle() {
		t.Fatal("estimator metadata wrong")
	}
}

func TestFixedDeltaBudgets(t *testing.T) {
	cls := []Class{
		{Members: 1, IDs: make([]packet.ID, 20)},
		{Members: 2, IDs: make([]packet.ID, 1)},
	}
	ctx := &EstimatorContext{Classes: cls}
	b := FixedDelta{Delta: 0.5}.Budgets(ctx)
	if len(b) != 2 {
		t.Fatalf("budgets = %v", b)
	}
	if b[0] <= 0 {
		t.Fatalf("large class budget = %d", b[0])
	}
	if b[1] != 0 {
		t.Fatalf("singleton class budget = %d, want 0 (coin-flip class)", b[1])
	}
	if (FixedDelta{Delta: 0.5}).Name() != "fixed-delta(0.50)" {
		t.Fatal("name wrong")
	}
}

func TestBuildPlanArithmetic(t *testing.T) {
	// Deterministic context where budgets are forced via Oracle.
	recv := []*packet.IDSet{fullIDSet(8), setOf(0, 1, 2, 3, 6), setOf(0, 1, 2, 3, 7)}
	ctx := &EstimatorContext{
		Terminals: 3, Leader: 0, NumX: 8,
		Recv:    recv,
		EveRecv: setOf(4, 5), // Eve missed everything the terminals share
	}
	ctx.Classes = BuildClasses(3, 0, 8, recv)
	plan := BuildPlan(ctx, Oracle{})
	// Classes: {1,2}: ids {0,1,2,3} budget 4 (Eve missed all 4);
	// {1}: {6} budget 1; {2}: {7} budget 1.
	if plan.M != 6 {
		t.Fatalf("M = %d, want 6", plan.M)
	}
	if plan.Mi[1] != 5 || plan.Mi[2] != 5 || plan.Mi[0] != 6 {
		t.Fatalf("Mi = %v", plan.Mi)
	}
	if plan.L != 5 {
		t.Fatalf("L = %d, want 5", plan.L)
	}
	if plan.Redist == nil || plan.Redist.M() != 6 || plan.Redist.L() != 5 {
		t.Fatal("redistribution code wrong")
	}
	// Terminal y-index coverage.
	y1 := plan.TerminalYIndices(1)
	if len(y1) != 5 {
		t.Fatalf("terminal 1 indices = %v", y1)
	}
	y0 := plan.TerminalYIndices(0) // leader has all
	if len(y0) != 6 {
		t.Fatalf("leader indices = %v", y0)
	}
	// YOverX shape and support.
	yox := plan.YOverX()
	if yox.Rows() != 6 || yox.Cols() != 8 {
		t.Fatalf("YOverX %dx%d", yox.Rows(), yox.Cols())
	}
	// Rows of the {1}-class (id 6) must be supported only on column 6.
	found := false
	for r := 0; r < 6; r++ {
		nonzero := []int{}
		for c := 0; c < 8; c++ {
			if yox.At(r, c) != 0 {
				nonzero = append(nonzero, c)
			}
		}
		if len(nonzero) == 1 && nonzero[0] == 6 {
			found = true
		}
	}
	if !found {
		t.Fatal("no y-row supported on x6 alone")
	}
}

func TestBuildPlanZeroBudgetsAbandonsRound(t *testing.T) {
	recv := []*packet.IDSet{fullIDSet(4), setOf(0, 1), setOf(2, 3)}
	ctx := &EstimatorContext{
		Terminals: 3, Leader: 0, NumX: 4,
		Recv:    recv,
		EveRecv: fullIDSet(4), // Eve got everything
	}
	ctx.Classes = BuildClasses(3, 0, 4, recv)
	plan := BuildPlan(ctx, Oracle{})
	if plan.L != 0 || plan.M != 0 || plan.Redist != nil {
		t.Fatalf("plan = %+v, want abandoned round", plan)
	}
}

func TestBuildPlanUncoveredTerminalForcesLZero(t *testing.T) {
	// Terminal 2 received nothing: L must be 0 even though terminal 1 has
	// a fat class.
	recv := []*packet.IDSet{fullIDSet(6), setOf(0, 1, 2, 3, 4, 5), packet.NewIDSet(6)}
	ctx := &EstimatorContext{
		Terminals: 3, Leader: 0, NumX: 6,
		Recv:    recv,
		EveRecv: packet.NewIDSet(6),
	}
	ctx.Classes = BuildClasses(3, 0, 6, recv)
	plan := BuildPlan(ctx, Oracle{})
	if plan.L != 0 {
		t.Fatalf("L = %d, want 0", plan.L)
	}
	if plan.M == 0 {
		t.Fatal("M should be positive (terminal 1 has budget)")
	}
}

func TestPairwiseSecret(t *testing.T) {
	recv := []*packet.IDSet{fullIDSet(8), setOf(0, 1, 2, 3, 6), setOf(0, 1, 2, 3, 7)}
	ctx := &EstimatorContext{
		Terminals: 3, Leader: 0, NumX: 8,
		Recv:    recv,
		EveRecv: setOf(4, 5),
	}
	ctx.Classes = BuildClasses(3, 0, 8, recv)
	plan := BuildPlan(ctx, Oracle{})
	xSym := make([][]Sym, 8)
	for i := range xSym {
		xSym[i] = []Sym{Sym(i + 1), Sym(100 + i)}
	}
	y := ComputeY(plan, wireRows(xSym))
	s1 := PairwiseSecret(plan, y, 1)
	s2 := PairwiseSecret(plan, y, 2)
	if len(s1) != plan.Mi[1]*4 || len(s2) != plan.Mi[2]*4 {
		t.Fatalf("pairwise sizes: %d, %d (Mi=%v)", len(s1), len(s2), plan.Mi)
	}
	// The leader's "pairwise secret with itself" is all M y-packets.
	if len(PairwiseSecret(plan, y, 0)) != plan.M*4 {
		t.Fatal("leader pairwise size wrong")
	}
	// Shared class y-packets appear in both terminals' secrets (prefix of
	// both, since the shared class sorts first).
	shared := plan.Budgets[0] * 4
	if string(s1[:shared]) != string(s2[:shared]) {
		t.Fatal("shared y-packets differ between terminals")
	}
	// Per-terminal tails differ (distinct singleton classes).
	if string(s1) == string(s2) {
		t.Fatal("pairwise secrets identical despite distinct classes")
	}
}
