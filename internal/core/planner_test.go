package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/packet"
)

// plannerRound is one round's planning input.
type plannerRound struct {
	n, leader, numX int
	recv            []*packet.IDSet
	eve             *packet.IDSet
	pooling         Pooling
	est             Estimator
}

func (r plannerRound) String() string {
	return fmt.Sprintf("n=%d leader=%d numX=%d %s/%s", r.n, r.leader, r.numX, r.pooling.Name(), r.est.Name())
}

// randomRound draws a round: 2..16 terminals, any leader, 1..256
// x-packets, and reception sets whose densities range from empty to
// full, under a random estimator and pooling.
func randomRound(rng *rand.Rand) plannerRound {
	r := plannerRound{n: 2 + rng.Intn(15), numX: 1 + rng.Intn(256)}
	r.leader = rng.Intn(r.n)
	set := func(p float64) *packet.IDSet {
		s := packet.NewIDSet(r.numX)
		for id := 0; id < r.numX; id++ {
			if rng.Float64() < p {
				s.Add(packet.ID(id))
			}
		}
		return s
	}
	densities := []float64{0, 0.2, 0.55, 0.8, 1}
	r.recv = make([]*packet.IDSet, r.n)
	for t := range r.recv {
		if t == r.leader {
			r.recv[t] = fullIDSet(r.numX)
			continue
		}
		r.recv[t] = set(densities[rng.Intn(len(densities))])
	}
	r.eve = set(rng.Float64())
	poolings := []Pooling{
		ExactPooling{},
		BalancedPooling{MinPoolSize: rng.Intn(13)},
		BalancedPooling{MinPoolSize: rng.Intn(13), UsePairs: true},
	}
	ests := []Estimator{
		Oracle{},
		FixedDelta{Delta: rng.Float64(), Epsilon: 0.05 * rng.Float64()},
		LeaveOneOut{Safety: 0.5 + rng.Float64(), Conditional: rng.Intn(2) == 0},
		KSubset{K: rng.Intn(4), Conditional: rng.Intn(2) == 0},
	}
	r.pooling = poolings[rng.Intn(len(poolings))]
	r.est = ests[rng.Intn(len(ests))]
	return r
}

// freshPlan plans r through the one-shot functions, each on a fresh
// planner.
func freshPlan(r plannerRound) *Plan {
	ctx := &EstimatorContext{Terminals: r.n, Leader: r.leader, NumX: r.numX, Recv: r.recv}
	ctx.Classes = BuildClasses(r.n, r.leader, r.numX, r.recv)
	ctx.Classes = r.pooling.Pools(ctx)
	if r.est.NeedsOracle() {
		ctx.EveRecv = r.eve
	}
	return BuildPlan(ctx, r.est)
}

// planDiff describes the first difference between two plans, or returns
// "" when they are equal (nil and empty slices compare equal).
func planDiff(got, want *Plan) string {
	if got.Leader != want.Leader || got.NumX != want.NumX || got.M != want.M || got.L != want.L {
		return fmt.Sprintf("leader/numX/M/L %d/%d/%d/%d, want %d/%d/%d/%d",
			got.Leader, got.NumX, got.M, got.L, want.Leader, want.NumX, want.M, want.L)
	}
	if fmt.Sprint(got.Budgets, got.Offsets, got.Mi) != fmt.Sprint(want.Budgets, want.Offsets, want.Mi) {
		return fmt.Sprintf("budgets/offsets/Mi %v %v %v, want %v %v %v",
			got.Budgets, got.Offsets, got.Mi, want.Budgets, want.Offsets, want.Mi)
	}
	if len(got.Classes) != len(want.Classes) || len(got.Extractors) != len(want.Extractors) {
		return fmt.Sprintf("%d classes and %d extractors, want %d and %d",
			len(got.Classes), len(got.Extractors), len(want.Classes), len(want.Extractors))
	}
	for k := range got.Classes {
		g, w := got.Classes[k], want.Classes[k]
		if g.Members != w.Members || fmt.Sprint(g.IDs) != fmt.Sprint(w.IDs) {
			return fmt.Sprintf("class %d is %b %v, want %b %v", k, g.Members, g.IDs, w.Members, w.IDs)
		}
		if !got.Extractors[k].Coeffs().Equal(want.Extractors[k].Coeffs()) {
			return fmt.Sprintf("extractor %d differs", k)
		}
	}
	if (got.Redist == nil) != (want.Redist == nil) {
		return fmt.Sprintf("redistribution code %v, want %v", got.Redist != nil, want.Redist != nil)
	}
	if got.Redist != nil {
		if got.Redist.M() != want.Redist.M() || got.Redist.L() != want.Redist.L() {
			return "redistribution code shape differs"
		}
		for j := 0; j < got.M; j++ {
			if fmt.Sprint(got.Redist.Row(j)) != fmt.Sprint(want.Redist.Row(j)) {
				return fmt.Sprintf("redistribution row %d differs", j)
			}
		}
	}
	return ""
}

// checkPlanner plans each round on the one planner p and compares the
// plan with a fresh BuildPlan's and with the reference pipeline's.
func checkPlanner(t *testing.T, p *Planner, rounds []plannerRound) {
	t.Helper()
	for i, r := range rounds {
		got := p.Plan(r.n, r.leader, r.numX, r.recv, r.eve, r.pooling, r.est)
		if d := planDiff(got, freshPlan(r)); d != "" {
			t.Fatalf("round %d (%v): reused planner vs BuildPlan: %s", i, r, d)
		}
		if d := planDiff(got, referencePlan(r)); d != "" {
			t.Fatalf("round %d (%v): reused planner vs reference: %s", i, r, d)
		}
	}
}

// TestPlannerReuseTable reuses one planner across rounds chosen to leave
// stale state behind: large rounds before small ones, every estimator
// under every pooling, rounds that abandon (L == 0), 16 terminals, the
// last terminal leading, a single x-packet.
func TestPlannerReuseTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	full := func(n int) *packet.IDSet { return fullIDSet(n) }
	var rounds []plannerRound
	for _, pooling := range []Pooling{ExactPooling{}, BalancedPooling{}, BalancedPooling{UsePairs: true}} {
		for _, est := range []Estimator{
			Oracle{}, FixedDelta{Delta: 0.4}, LeaveOneOut{}, LeaveOneOut{Conditional: true},
			KSubset{K: 2}, KSubset{K: 3, Conditional: true},
		} {
			for _, shape := range []struct{ n, leader, numX int }{{16, 15, 256}, {3, 0, 128}, {2, 1, 1}, {5, 2, 40}} {
				r := randomRound(rng)
				r.n, r.leader, r.numX, r.pooling, r.est = shape.n, shape.leader, shape.numX, pooling, est
				r.recv = make([]*packet.IDSet, r.n)
				for i := range r.recv {
					r.recv[i] = packet.NewIDSet(r.numX)
					for id := 0; id < r.numX; id++ {
						if i == r.leader || rng.Intn(100) < 55 {
							r.recv[i].Add(packet.ID(id))
						}
					}
				}
				r.eve = packet.NewIDSet(r.numX)
				for id := 0; id < r.numX; id += 2 {
					r.eve.Add(packet.ID(id))
				}
				rounds = append(rounds, r)
			}
		}
	}
	// A round nobody received: no classes, L == 0.
	rounds = append(rounds, plannerRound{n: 4, leader: 1, numX: 9,
		recv:    []*packet.IDSet{packet.NewIDSet(9), full(9), packet.NewIDSet(9), packet.NewIDSet(9)},
		eve:     packet.NewIDSet(9),
		pooling: BalancedPooling{}, est: LeaveOneOut{}})
	var p Planner
	checkPlanner(t, &p, rounds)
}

// FuzzPlannerReuse reuses one planner across eight random rounds per
// input — 2..16 terminals, any leader, 1..256 x-packets, reception sets
// from empty to full, every estimator under every pooling — and requires
// every plan to equal a fresh BuildPlan's and the reference pipeline's.
// Runs its seed corpus under plain `go test`; use
// `go test -fuzz=FuzzPlannerReuse ./internal/core` to explore further.
func FuzzPlannerReuse(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		rounds := make([]plannerRound, 8)
		for i := range rounds {
			rounds[i] = randomRound(rng)
		}
		var p Planner
		checkPlanner(t, &p, rounds)
	})
}

// TestPlannerAllocs: once a planner has planned a set of benchmark-shape
// rounds (3 terminals, erasure 0.45, 128 x-packets, the default pooling
// and estimator), planning them again allocates nothing.
func TestPlannerAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var cfg Config
	cfg.Terminals, cfg.XPerRound = 3, 128
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	rounds := make([][]*packet.IDSet, 20)
	for i := range rounds {
		recv := make([]*packet.IDSet, cfg.Terminals)
		for t := range recv {
			recv[t] = packet.NewIDSet(cfg.XPerRound)
			for id := 0; id < cfg.XPerRound; id++ {
				if t == 0 || rng.Float64() >= 0.45 {
					recv[t].Add(packet.ID(id))
				}
			}
		}
		rounds[i] = recv
	}
	var p Planner
	planAll := func() {
		for _, recv := range rounds {
			if plan := p.Plan(cfg.Terminals, 0, cfg.XPerRound, recv, nil, cfg.Pooling, cfg.Estimator); plan.M == 0 {
				t.Fatal("a benchmark-shape round planned no y-packets")
			}
		}
	}
	planAll() // warm up
	if allocs := testing.AllocsPerRun(20, planAll); allocs != 0 {
		t.Fatalf("planning %d warm rounds allocated %v times", len(rounds), allocs)
	}
}

// referencePlan is the planning pipeline as first written — a map of
// reception masks, per-subset unions, recursive subset walks — kept as
// the oracle the planner's reusing rewrite must match plan for plan. Its
// one change is the pool order's final tie-break (first ID), which makes
// the order total.
func referencePlan(r plannerRound) *Plan {
	ctx := &EstimatorContext{Terminals: r.n, Leader: r.leader, NumX: r.numX, Recv: r.recv}
	ctx.Classes = refClasses(r.n, r.leader, r.numX, r.recv)
	if b, ok := r.pooling.(BalancedPooling); ok {
		ctx.Classes = refBalanced(b, ctx)
	}
	if r.est.NeedsOracle() {
		ctx.EveRecv = r.eve
	}
	return BuildPlan(ctx, refEstimator{r.est})
}

func refClasses(n, leader, numX int, recv []*packet.IDSet) []Class {
	byMask := make(map[uint32][]packet.ID)
	for id := 0; id < numX; id++ {
		var mask uint32
		for i := 0; i < n; i++ {
			if i != leader && recv[i] != nil && recv[i].Has(packet.ID(id)) {
				mask |= 1 << uint(i)
			}
		}
		if mask != 0 {
			byMask[mask] = append(byMask[mask], packet.ID(id))
		}
	}
	var out []Class
	for mask, ids := range byMask {
		out = append(out, Class{Members: mask, IDs: ids})
	}
	sort.Slice(out, func(a, b int) bool {
		if ca, cb := out[a].MemberCount(), out[b].MemberCount(); ca != cb {
			return ca > cb
		}
		return out[a].Members < out[b].Members
	})
	return out
}

func refBalanced(b BalancedPooling, ctx *EstimatorContext) []Class {
	var kept []Class
	load := make([]int, ctx.Terminals)
	type frag struct {
		id      packet.ID
		members uint32
	}
	var frags []frag
	for _, cl := range ctx.Classes {
		if cl.Size() >= b.minSize() && cl.MemberCount() >= 2 {
			kept = append(kept, cl)
			for i := 0; i < ctx.Terminals; i++ {
				if cl.HasMember(i) {
					load[i] += cl.Size()
				}
			}
			continue
		}
		for _, id := range cl.IDs {
			frags = append(frags, frag{id, cl.Members})
		}
	}
	sort.Slice(frags, func(a, b int) bool { return frags[a].id < frags[b].id })
	var ring []int
	for i := 0; i < ctx.Terminals; i++ {
		if i != ctx.Leader {
			ring = append(ring, i)
		}
	}
	var cands []uint32
	if b.UsePairs && len(ring) >= 3 {
		for k := range ring {
			cands = append(cands, 1<<uint(ring[k])|1<<uint(ring[(k+1)%len(ring)]))
		}
	} else if b.UsePairs && len(ring) == 2 {
		cands = append(cands, 1<<uint(ring[0])|1<<uint(ring[1]))
	}
	for _, i := range ring {
		cands = append(cands, 1<<uint(i))
	}
	pools := make(map[uint32][]packet.ID)
	for _, fr := range frags {
		best, bestKey := uint32(0), [3]int{}
		for _, cand := range cands {
			if cand&fr.members != cand {
				continue
			}
			minLoad := 1 << 30
			for i := 0; i < ctx.Terminals; i++ {
				if cand&(1<<uint(i)) != 0 && load[i] < minLoad {
					minLoad = load[i]
				}
			}
			key := [3]int{minLoad, -bits.OnesCount32(cand), int(cand)}
			if best == 0 || key[0] < bestKey[0] || key[0] == bestKey[0] && (key[1] < bestKey[1] || key[1] == bestKey[1] && key[2] < bestKey[2]) {
				best, bestKey = cand, key
			}
		}
		if best == 0 {
			continue
		}
		pools[best] = append(pools[best], fr.id)
		for i := 0; i < ctx.Terminals; i++ {
			if best&(1<<uint(i)) != 0 {
				load[i]++
			}
		}
	}
	out := kept
	for m, ids := range pools {
		out = append(out, Class{Members: m, IDs: ids})
	}
	sort.Slice(out, func(a, b int) bool {
		ca, cb := out[a].MemberCount(), out[b].MemberCount()
		if ca != cb {
			return ca > cb
		}
		if out[a].Members != out[b].Members {
			return out[a].Members < out[b].Members
		}
		if out[a].Size() != out[b].Size() {
			return out[a].Size() > out[b].Size()
		}
		return out[a].IDs[0] < out[b].IDs[0]
	})
	return out
}

// refEstimator budgets with the reference miss rates for the pretend-Eve
// estimators and passes the others through.
type refEstimator struct{ Estimator }

func (e refEstimator) Budgets(ctx *EstimatorContext) []int {
	var k int
	var safety, eps float64
	var cond bool
	switch est := e.Estimator.(type) {
	case LeaveOneOut:
		k, safety, eps, cond = 1, est.Safety, epsilonOrDefault(est.Epsilon), est.Conditional
	case KSubset:
		k, safety, eps, cond = max(est.K, 1), est.Safety, epsilonOrDefault(est.Epsilon), est.Conditional
	default:
		return e.Estimator.Budgets(ctx)
	}
	var terms []int
	for i := 0; i < ctx.Terminals; i++ {
		if i != ctx.Leader {
			terms = append(terms, i)
		}
	}
	global := 0.0
	if kk := min(k, len(terms)); kk > 0 && ctx.NumX > 0 {
		global = math.Inf(1)
		refSubsets(terms, kk, nil, func(sub []int) {
			union := packet.NewIDSet(ctx.NumX)
			for _, i := range sub {
				union = union.Union(ctx.Recv[i])
			}
			global = min(global, 1-float64(union.Count())/float64(ctx.NumX))
		})
	}
	out := make([]int, len(ctx.Classes))
	for c, cl := range ctx.Classes {
		delta := global
		var outside []int
		for _, i := range terms {
			if !cl.HasMember(i) {
				outside = append(outside, i)
			}
		}
		if cond && len(outside) > 0 {
			best := math.Inf(1)
			refSubsets(outside, min(k, len(outside)), nil, func(sub []int) {
				missed := 0
				for _, id := range cl.IDs {
					got := false
					for _, j := range sub {
						got = got || ctx.Recv[j].Has(id)
					}
					if !got {
						missed++
					}
				}
				best = min(best, float64(missed)/float64(cl.Size()))
			})
			delta = best
		}
		if safety > 0 {
			delta *= safety
		}
		out[c] = binomialLowerQuantile(cl.Size(), delta, eps)
	}
	return out
}

// refSubsets calls visit with every k-subset of from, recursively.
func refSubsets(from []int, k int, prefix []int, visit func([]int)) {
	if len(prefix) == k {
		visit(prefix)
		return
	}
	for i := range from {
		refSubsets(from[i+1:], k, append(prefix, from[i]), visit)
	}
}
