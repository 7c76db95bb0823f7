package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gf"
	"repro/internal/packet"
	"repro/internal/wire"
)

// buildTestRound assembles one leader round (plan, payloads, wire
// messages) over numX x-packets of 64 bytes with every terminal
// receiving rcv.
func buildTestRound(t *testing.T, seed int64, numX int, rcv func(term int) *packet.IDSet) (*LeaderRound, *wire.YAnnounce, []*wire.ZPacket, *wire.SAnnounce, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recv := []*packet.IDSet{fullIDSet(numX), rcv(1), rcv(2)}
	ctx := &EstimatorContext{
		Terminals: 3, Leader: 0, NumX: numX,
		Recv:    recv,
		EveRecv: setOf(1, 3),
	}
	ctx.Classes = BuildClasses(3, 0, numX, recv)
	plan := BuildPlan(ctx, Oracle{})
	if plan.L == 0 {
		t.Fatal("test round produced no secret; adjust the shape")
	}
	xSym := make([][]Sym, numX)
	for i := range xSym {
		xSym[i] = make([]Sym, 32)
		for j := range xSym[i] {
			xSym[i][j] = Sym(rng.Intn(65536))
		}
	}
	x := wireRows(xSym)
	lr := ComputeLeaderRound(nil, plan, x)
	h := wire.Header{From: 0, Session: 9, Round: 1}
	ya := BuildYAnnounce(h, plan)
	zs := make([]*wire.ZPacket, len(lr.Z))
	for j, z := range lr.Z {
		zs[j] = new(wire.ZPacket)
		FillZPacket(zs[j], h, plan, j, z)
	}
	sa := BuildSAnnounce(h, plan)
	return lr, ya, zs, sa, x
}

// TestFillZPacketAllocs: filling a z-packet allocates nothing, its row is
// the plan's (capped, so an append cannot write into the next row), and
// its payload is the leader's z row itself, capped the same way.
func TestFillZPacketAllocs(t *testing.T) {
	shape := func(term int) *packet.IDSet {
		if term == 1 {
			return setOf(0, 1, 2, 3, 4, 5)
		}
		return setOf(2, 3, 4, 5, 6, 7)
	}
	lr, _, _, _, _ := buildTestRound(t, 41, 8, shape)
	if len(lr.Z) == 0 {
		t.Fatal("test round has no z-packets; adjust the shape")
	}
	h := wire.Header{From: 0, Session: 9, Round: 1}
	var zp wire.ZPacket
	for j, z := range lr.Z {
		if n := testing.AllocsPerRun(10, func() { FillZPacket(&zp, h, lr.Plan, j, z) }); n != 0 {
			t.Fatalf("z-packet %d: FillZPacket allocated %v times", j, n)
		}
		row := lr.Plan.Redist.Row(j)
		if zp.Type != wire.TypeZ || zp.Index != uint16(j) || &zp.Coeffs[0] != &row[0] || cap(zp.Coeffs) != len(row) {
			t.Fatalf("z-packet %d: header %+v, index %d, or a row that is not the plan's capped row", j, zp.Header, zp.Index)
		}
		if &zp.Payload[0] != &z[0] || len(zp.Payload) != len(z) || cap(zp.Payload) != len(z) {
			t.Fatalf("z-packet %d: payload is not the capped z row", j)
		}
	}
}

// TestComputeTerminalSecretIntoMatchesFresh pins scratch reuse: the same
// scratch driven through differently-shaped rounds (full reception, then
// partial with erasure completion, then full again) must reproduce the
// scratch-free results bit for bit.
func TestComputeTerminalSecretIntoMatchesFresh(t *testing.T) {
	var sc RoundScratch
	shapes := []func(term int) *packet.IDSet{
		func(int) *packet.IDSet { return fullIDSet(8) },
		func(term int) *packet.IDSet {
			if term == 1 {
				return setOf(0, 1, 2, 3, 4, 5)
			}
			return setOf(2, 3, 4, 5, 6, 7)
		},
		func(int) *packet.IDSet { return fullIDSet(8) },
	}
	for round, shape := range shapes {
		lr, ya, zs, sa, x := buildTestRound(t, int64(40+round), 8, shape)
		for term := 1; term <= 2; term++ {
			rm := make(map[packet.ID][]byte)
			for _, id := range shape(term).Slice() {
				rm[id] = x[int(id)]
			}
			want, err := ComputeTerminalSecret(rm, ya, zs, sa)
			if err != nil {
				t.Fatalf("round %d term %d fresh: %v", round, term, err)
			}
			got, err := ComputeTerminalSecretInto(&sc, rm, ya, zs, sa)
			if err != nil {
				t.Fatalf("round %d term %d scratch: %v", round, term, err)
			}
			if !bytes.Equal(slices.Concat(got...), slices.Concat(want...)) {
				t.Fatalf("round %d term %d: scratch secret differs from fresh", round, term)
			}
			if !bytes.Equal(slices.Concat(got...), slices.Concat(lr.Secret...)) {
				t.Fatalf("round %d term %d: secret differs from leader", round, term)
			}
		}
	}
}

// TestSplitHalvesMatchCombined pins the receive/eliminate split the
// pipelined keystream engine drives: ReceiveRoundInto followed by
// Eliminate must be byte-identical to ComputeTerminalSecretInto, and the
// halves must interleave across rounds (receive r, receive r+1 in a
// second scratch, then eliminate both) without cross-talk — the
// ping-pong-scratch pattern a terminal uses when round r+1's packet
// exchange overlaps round r's elimination.
func TestSplitHalvesMatchCombined(t *testing.T) {
	shape := func(term int) *packet.IDSet {
		if term == 1 {
			return setOf(0, 1, 2, 3, 4, 5)
		}
		return setOf(2, 3, 4, 5, 6, 7)
	}
	type roundMsgs struct {
		ya *wire.YAnnounce
		zs []*wire.ZPacket
		sa *wire.SAnnounce
		rm map[packet.ID][]byte
	}
	build := func(seed int64) roundMsgs {
		_, ya, zs, sa, x := buildTestRound(t, seed, 8, shape)
		rm := make(map[packet.ID][]byte)
		for _, id := range shape(1).Slice() {
			rm[id] = x[int(id)]
		}
		return roundMsgs{ya: ya, zs: zs, sa: sa, rm: rm}
	}
	r0, r1 := build(91), build(92)

	// Sequential: halves == combined, per round.
	for i, r := range []roundMsgs{r0, r1} {
		var combined, halves RoundScratch
		want, err := ComputeTerminalSecretInto(&combined, r.rm, r.ya, r.zs, r.sa)
		if err != nil {
			t.Fatalf("round %d combined: %v", i, err)
		}
		pr, err := ReceiveRoundInto(&halves, r.rm, r.ya)
		if err != nil {
			t.Fatalf("round %d receive half: %v", i, err)
		}
		got, err := pr.Eliminate(r.zs, r.sa)
		if err != nil {
			t.Fatalf("round %d eliminate half: %v", i, err)
		}
		if !bytes.Equal(slices.Concat(got...), slices.Concat(want...)) {
			t.Fatalf("round %d: split halves diverge from combined", i)
		}
	}

	// Interleaved: receive both rounds before eliminating either, each on
	// its own scratch, eliminations in reverse order.
	var want0, want1 RoundScratch
	w0, _ := ComputeTerminalSecretInto(&want0, r0.rm, r0.ya, r0.zs, r0.sa)
	w1, _ := ComputeTerminalSecretInto(&want1, r1.rm, r1.ya, r1.zs, r1.sa)
	var sc [2]RoundScratch
	pr0, err := ReceiveRoundInto(&sc[0], r0.rm, r0.ya)
	if err != nil {
		t.Fatal(err)
	}
	pr1, err := ReceiveRoundInto(&sc[1], r1.rm, r1.ya)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := pr1.Eliminate(r1.zs, r1.sa)
	if err != nil {
		t.Fatal(err)
	}
	g0, err := pr0.Eliminate(r0.zs, r0.sa)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(slices.Concat(g0...), slices.Concat(w0...)) || !bytes.Equal(slices.Concat(g1...), slices.Concat(w1...)) {
		t.Fatal("interleaved halves diverge from sequential combined results")
	}
	if pr0.Known() == 0 || pr1.Known() == 0 {
		t.Fatal("receive half reported no known packets")
	}
}

// TestRoundCombinationSteadyStateAllocs is the zero-allocation gate on
// the terminal round hot path: with a warm RoundScratch, the whole
// y-reconstruction + s-combination pipeline must not allocate — no
// [][]byte header churn, no per-round tables, no sort scratch — both at
// full reception and with the erasure completion, whose coefficient
// system and right-hand sides live in the scratch too.
func TestRoundCombinationSteadyStateAllocs(t *testing.T) {
	for name, shape := range map[string]func(term int) *packet.IDSet{
		"full": func(int) *packet.IDSet { return fullIDSet(8) },
		"partial": func(term int) *packet.IDSet {
			if term == 1 {
				return setOf(0, 1, 2, 3, 4, 5)
			}
			return setOf(2, 3, 4, 5, 6, 7)
		},
	} {
		_, ya, zs, sa, x := buildTestRound(t, 77, 8, shape)
		rm := make(map[packet.ID][]byte)
		for _, id := range shape(1).Slice() {
			rm[id] = x[int(id)]
		}
		var sc RoundScratch
		if pr, _ := ReceiveRoundInto(&sc, rm, ya); (pr.Known() < pr.M) != (name == "partial") {
			t.Fatalf("%s reception: terminal knows %d of %d y-packets", name, pr.Known(), pr.M)
		}
		run := func() {
			if _, err := ComputeTerminalSecretInto(&sc, rm, ya, zs, sa); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the scratch
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("%s reception: steady-state round combination allocates %v times per run, want 0", name, n)
		}
	}
}

// TestLeaderRoundMatchesMatrixForm checks the fused leader round against
// the matrix form it replaces, kept in internal/mds as the oracle: Y per
// class through WiretapExtractor.Extract, Z and S through EncodeZ and
// EncodeS. Plans come from BuildPlan over random receptions at several
// group sizes and erasure rates, with payloads on both sides of the
// kernel's fused-width threshold. Every round runs once on a fresh
// scratch and once on a scratch reused, dirty, across rounds of
// different M.
func TestLeaderRoundMatchesMatrixForm(t *testing.T) {
	var dirty RoundScratch
	rng := rand.New(rand.NewSource(17))
	rounds := 0
	for _, n := range []int{2, 3, 4, 6} {
		for _, p := range []float64{0.2, 0.45, 0.7} {
			for _, width := range []int{8, 300} {
				numX := 32 + rng.Intn(96)
				leader := rng.Intn(n)
				recv := make([]*packet.IDSet, n)
				for i := range recv {
					recv[i] = packet.NewIDSet(numX)
					for id := 0; id < numX; id++ {
						if i == leader || rng.Float64() >= p {
							recv[i].Add(packet.ID(id))
						}
					}
				}
				ctx := &EstimatorContext{Terminals: n, Leader: leader, NumX: numX, Recv: recv,
					Classes: BuildClasses(n, leader, numX, recv)}
				ctx.Classes = BalancedPooling{}.Pools(ctx)
				plan := BuildPlan(ctx, LeaveOneOut{})
				if plan.L == 0 {
					continue
				}
				rounds++
				xSym := make([][]Sym, numX)
				for i := range xSym {
					xSym[i] = make([]Sym, width)
					for j := range xSym[i] {
						xSym[i][j] = Sym(rng.Intn(65536))
					}
				}
				var wantY [][]Sym
				for k, cl := range plan.Classes {
					var srcs [][]Sym
					for _, id := range cl.IDs {
						srcs = append(srcs, xSym[int(id)])
					}
					wantY = append(wantY, plan.Extractors[k].Extract(srcs)...)
				}
				wantZ, wantS := plan.Redist.EncodeZ(wantY), plan.Redist.EncodeS(wantY)
				for _, sc := range []*RoundScratch{nil, &dirty} {
					lr := ComputeLeaderRound(sc, plan, wireRows(xSym))
					name := fmt.Sprintf("n=%d p=%v width=%d M=%d scratch=%v", n, p, width, plan.M, sc != nil)
					equalRows(t, name+" Y", symRows(lr.Y), wantY)
					equalRows(t, name+" Z", symRows(lr.Z), wantZ)
					equalRows(t, name+" S", symRows(lr.Secret), wantS)
				}
			}
		}
	}
	if rounds < 12 {
		t.Fatalf("only %d of the grid's rounds yielded secret", rounds)
	}
}

func equalRows(t *testing.T, name string, got, want [][]Sym) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: row %d differs from the matrix form", name, i)
		}
	}
}

// TestLeaderRoundSteadyStateAllocs: with a warm scratch the leader's
// whole round — y extraction, z and s combinations — allocates nothing,
// and neither does the leader-only secret, whole rows or a cut-short
// last one.
func TestLeaderRoundSteadyStateAllocs(t *testing.T) {
	lr, _, _, _, x := buildTestRound(t, 78, 8, func(int) *packet.IDSet { return setOf(0, 1, 2, 3, 4, 5) })
	var sc RoundScratch
	dst := make([]byte, len(lr.Secret)*len(x[0])-3)
	for name, run := range map[string]func(){
		"round":  func() { ComputeLeaderRound(&sc, lr.Plan, x) },
		"secret": func() { LeaderSecret(&sc, lr.Plan, x, dst) },
	} {
		run() // warm the scratch
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("steady-state leader %s allocates %v times per run, want 0", name, n)
		}
	}
}

// TestRoundScratchZero: Zero clears every row the scratch handed out, on
// the leader side and on the terminal side with erasure completion (the
// completion system itself is covered by mds.TestCompletionReuse).
func TestRoundScratchZero(t *testing.T) {
	shape := func(term int) *packet.IDSet {
		if term == 1 {
			return setOf(0, 1, 2, 3, 4, 5)
		}
		return setOf(2, 3, 4, 5, 6, 7)
	}
	lr, ya, zs, sa, x := buildTestRound(t, 79, 8, shape)
	var leader, term RoundScratch
	got := ComputeLeaderRound(&leader, lr.Plan, x)
	leaderRows := append(append(append([][]byte{}, got.Y...), got.Z...), got.Secret...)
	rm := make(map[packet.ID][]byte)
	for _, id := range shape(1).Slice() {
		rm[id] = x[int(id)]
	}
	pr, err := ReceiveRoundInto(&term, rm, ya)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Known() == pr.M {
		t.Fatal("shape needs erasure completion")
	}
	secret, err := pr.Eliminate(zs, sa)
	if err != nil {
		t.Fatal(err)
	}
	rows := append(append([][]byte{}, secret...), term.rows...)
	leader.Zero()
	term.Zero()
	for i, row := range leaderRows {
		if slices.ContainsFunc(row, func(v byte) bool { return v != 0 }) {
			t.Fatalf("leader row %d not zeroed", i)
		}
	}
	for i, row := range rows {
		if slices.ContainsFunc(row, func(v byte) bool { return v != 0 }) {
			t.Fatalf("terminal row %d not zeroed", i)
		}
	}
}

// TestPutSecretBytes: PutSecretBytes writes the longest prefix of the
// flattened secret that fits — whole rows, then part of one.
func TestPutSecretBytes(t *testing.T) {
	secret := [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8, 9, 10}}
	want := slices.Concat(secret...)
	for n := 0; n <= len(want)+2; n++ {
		dst := make([]byte, n)
		got := PutSecretBytes(dst, secret)
		if got != min(n, len(want)) || !bytes.Equal(dst[:got], want[:got]) {
			t.Fatalf("dst of %d bytes: wrote %d bytes %x, want a prefix of %x", n, got, dst[:got], want)
		}
	}
}

// wireRows encodes symbol rows as the wire-order payloads the leader's
// round takes.
func wireRows(rows [][]Sym) [][]byte {
	out := make([][]byte, len(rows))
	for i, r := range rows {
		out[i] = make([]byte, 2*len(r))
		for j, v := range r {
			binary.BigEndian.PutUint16(out[i][2*j:], v)
		}
	}
	return out
}

// symRows decodes wire-order rows into symbols.
func symRows(rows [][]byte) [][]Sym {
	out := make([][]Sym, len(rows))
	for i, r := range rows {
		out[i] = make([]Sym, len(r)/2)
		for j := range out[i] {
			out[i][j] = binary.BigEndian.Uint16(r[2*j:])
		}
	}
	return out
}

// TestLeaderSecretMatchesRound: the leader-only secret is the prefix of
// ComputeLeaderRound's flattened s rows that fits dst, for random plans
// and payload widths and every kind of dst length — empty, within the
// first row, whole rows, a cut-short last row of odd length, longer
// than the round's secret — written over a dst full of stale bytes, on
// one dirty scratch across rounds.
func TestLeaderSecretMatchesRound(t *testing.T) {
	var dirty RoundScratch
	rng := rand.New(rand.NewSource(29))
	rounds := 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4)
		numX := 16 + rng.Intn(80)
		width := 2 * (1 + rng.Intn(200))
		recv := make([]*packet.IDSet, n)
		for i := range recv {
			recv[i] = packet.NewIDSet(numX)
			for id := 0; id < numX; id++ {
				if i == 0 || rng.Float64() >= 0.45 {
					recv[i].Add(packet.ID(id))
				}
			}
		}
		ctx := &EstimatorContext{Terminals: n, Leader: 0, NumX: numX, Recv: recv,
			Classes: BuildClasses(n, 0, numX, recv)}
		plan := BuildPlan(ctx, LeaveOneOut{})
		if plan.L == 0 {
			continue
		}
		rounds++
		x := make([][]byte, numX)
		for i := range x {
			x[i] = make([]byte, width)
			rng.Read(x[i])
		}
		want := slices.Concat(ComputeLeaderRound(nil, plan, x).Secret...)
		for _, size := range []int{0, 1, width - 1, width, width + 3, len(want) - width - 1, len(want) - 1, len(want), len(want) + 5} {
			if size < 0 {
				continue
			}
			dst := bytes.Repeat([]byte{0xa7}, size)
			got := LeaderSecret(&dirty, plan, x, dst)
			if got != min(size, len(want)) || !bytes.Equal(dst[:got], want[:got]) {
				t.Fatalf("trial %d (M=%d L=%d width=%d) dst of %d bytes: wrote %d bytes that are not the round's secret prefix",
					trial, plan.M, plan.L, width, size, got)
			}
			if !slices.Equal(dst[got:], bytes.Repeat([]byte{0xa7}, size-got)) {
				t.Fatalf("trial %d dst of %d bytes: wrote past the %d bytes it reported", trial, size, got)
			}
		}
	}
	if rounds < 20 {
		t.Fatalf("only %d trials yielded secret", rounds)
	}
}

// TestLeaderSecretComputesNoZRow: the leader-only secret makes one
// kernel combination per y-packet and per s-packet dst has room for,
// and none for a z-packet; the full round makes one per z-packet too.
func TestLeaderSecretComputesNoZRow(t *testing.T) {
	shape := func(term int) *packet.IDSet {
		if term == 1 {
			return setOf(0, 1, 2, 3, 4, 5)
		}
		return setOf(2, 3, 4, 5, 6, 7)
	}
	lr, _, _, _, x := buildTestRound(t, 80, 8, shape)
	plan := lr.Plan
	if plan.M == plan.L {
		t.Fatal("shape needs z-packets")
	}
	width := len(x[0])
	calls := func(run func()) uint64 {
		gf.SetDispatchCounting(true)
		defer gf.SetDispatchCounting(false)
		before := gf.ReadDispatchCounts().AddMulSlices
		run()
		return gf.ReadDispatchCounts().AddMulSlices - before
	}
	var sc RoundScratch
	if got, want := calls(func() { ComputeLeaderRound(&sc, plan, x) }), uint64(plan.M+(plan.M-plan.L)+plan.L); got != want {
		t.Fatalf("ComputeLeaderRound made %d combinations, want %d", got, want)
	}
	for s := 0; s <= plan.L; s++ {
		dst := make([]byte, s*width)
		if got, want := calls(func() { LeaderSecret(&sc, plan, x, dst) }), uint64(plan.M+s); got != want {
			t.Fatalf("LeaderSecret into %d rows' room made %d combinations, want %d (M=%d L=%d)", s, got, want, plan.M, plan.L)
		}
	}
}
