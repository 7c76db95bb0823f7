package core

import (
	"slices"

	"repro/internal/mds"
	"repro/internal/packet"
)

// Planner is the leader's round planning (§3): it turns the terminals'
// reception reports into reception classes, regroups them into pools,
// budgets each pool with an estimator, and builds one wiretap extractor
// per budgeted pool plus the redistribution code. Every stage fills
// storage the planner keeps from one round to the next, so a planner
// reused round after round stops allocating once it has planned its
// largest round under the built-in poolings and estimators (a custom
// Pooling or Estimator allocates what its own methods do).
//
// The one-shot functions — BuildClasses, the built-in Pools and Budgets
// methods, BuildPlan — each run the same stage on a fresh planner, so a
// reused planner and a fresh one plan every round alike (pinned by
// FuzzPlannerReuse).
//
// The zero value is ready to use. A planner is not safe for concurrent
// use; a node that keeps several plans alive at once holds one planner
// per live plan.
type Planner struct {
	plan Plan
	ctx  EstimatorContext

	// Reception classes: one sort key per received x-packet, and the
	// classes' IDs laid out class after class.
	keys     []uint64
	classes  []Class
	classIDs []packet.ID

	// Balanced pooling: the fragments (ID, then its members or its
	// pool's candidate), the candidate member sets, the load and pool
	// size per candidate, and the pooled IDs laid out pool after pool.
	pools   []Class
	poolIDs []packet.ID
	frags   []uint64
	cands   []uint32
	counts  []int
	load    []int

	// Estimators: the budgets, the terminals a pretend-Eve is drawn from,
	// the current k-subset of them and its reception sets.
	budgets []int
	terms   []int
	subset  []int
	sets    []*packet.IDSet

	// The plan's extractors, one per budgeted pool (grown, never shrunk),
	// and its redistribution code.
	exts   []*mds.WiretapExtractor[Sym]
	redist mds.RedistributionCode[Sym]
}

// Plan plans one round: the reception classes of numX x-packets among n
// terminals from recv (indexed by terminal; recv[leader] is ignored),
// regrouped by pooling and budgeted by est, which sees eveRecv only when
// it NeedsOracle. A plan with L == 0 abandons the round (see BuildPlan).
//
// The plan, its classes and its codes alias p's storage: they stay valid
// until p's next Plan and must not be written through.
func (p *Planner) Plan(n, leader, numX int, recv []*packet.IDSet, eveRecv *packet.IDSet, pooling Pooling, est Estimator) *Plan {
	p.ctx = EstimatorContext{Terminals: n, Leader: leader, NumX: numX, Recv: recv}
	p.ctx.Classes = p.buildClasses(n, leader, numX, recv)
	if pl, ok := pooling.(pooler); ok {
		p.ctx.Classes = pl.poolsInto(p, &p.ctx)
	} else {
		p.ctx.Classes = pooling.Pools(&p.ctx)
	}
	if est.NeedsOracle() {
		p.ctx.EveRecv = eveRecv
	}
	return p.build(&p.ctx, est)
}

// pooler is a Pooling that pools into a planner's storage.
type pooler interface {
	poolsInto(p *Planner, ctx *EstimatorContext) []Class
}

// budgeter is an Estimator that budgets into a planner's storage.
type budgeter interface {
	budgetsInto(p *Planner, ctx *EstimatorContext) []int
}

// build runs est over ctx's pools and assembles the plan: BuildPlan's
// work, into p's storage.
func (p *Planner) build(ctx *EstimatorContext, est Estimator) *Plan {
	var budgets []int
	if b, ok := est.(budgeter); ok {
		budgets = b.budgetsInto(p, ctx)
	} else {
		budgets = est.Budgets(ctx)
	}
	if len(budgets) != len(ctx.Classes) {
		panic("core: estimator returned wrong budget count")
	}
	pl := &p.plan
	*pl = Plan{
		Classes:    pl.Classes[:0],
		Budgets:    pl.Budgets[:0],
		Extractors: pl.Extractors[:0],
		Offsets:    pl.Offsets[:0],
		Mi:         resize(pl.Mi, ctx.Terminals),
		Leader:     ctx.Leader,
		NumX:       ctx.NumX,
	}
	for k, cl := range ctx.Classes {
		b := budgets[k]
		if b <= 0 {
			continue
		}
		if b > cl.Size() {
			b = cl.Size()
		}
		pl.Classes = append(pl.Classes, cl)
		pl.Budgets = append(pl.Budgets, b)
	}
	f := Field()
	for k, cl := range pl.Classes {
		if k == len(p.exts) {
			p.exts = append(p.exts, new(mds.WiretapExtractor[Sym]))
		}
		p.exts[k].Reset(f, pl.Budgets[k], cl.Size())
		pl.Offsets = append(pl.Offsets, pl.M)
		pl.Extractors = append(pl.Extractors, p.exts[k])
		pl.M += pl.Budgets[k]
		for i := 0; i < ctx.Terminals; i++ {
			if cl.HasMember(i) {
				pl.Mi[i] += pl.Budgets[k]
			}
		}
	}
	pl.Mi[ctx.Leader] = pl.M
	pl.L = pl.M
	for i := 0; i < ctx.Terminals; i++ {
		if i != ctx.Leader && pl.Mi[i] < pl.L {
			pl.L = pl.Mi[i]
		}
	}
	if pl.M == 0 {
		pl.L = 0
	}
	if pl.L > 0 {
		p.redist.Reset(f, pl.M, pl.L)
		pl.Redist = &p.redist
	}
	return pl
}

// resize returns s with length n and every element zero, reusing s's
// storage when it is large enough.
func resize[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}
