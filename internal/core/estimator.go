package core

import (
	"fmt"
	"math"

	"repro/internal/packet"
)

// EstimatorContext carries everything an estimator may inspect when
// budgeting a round.
type EstimatorContext struct {
	Terminals int
	Leader    int
	NumX      int
	// Recv holds each terminal's reception set. Recv[Leader] contains all
	// transmitted IDs (the leader knows its own packets).
	Recv []*packet.IDSet
	// Classes are the reception classes of the round, in BuildClasses
	// order.
	Classes []Class
	// EveRecv is Eve's true reception set. It is populated ONLY when the
	// estimator declares NeedsOracle; real deployments cannot observe it.
	EveRecv *packet.IDSet
}

// Estimator lower-bounds, per reception class, how many x-packets Eve
// missed — the quantity the paper's §3.3 calls "a good lower bound for the
// number of x-packets shared with Ti that Eve has missed". The returned
// slice is the y-packet budget m_T for each class (same order as
// ctx.Classes); budget m_T means the class contributes m_T y-packets that
// are jointly secret provided Eve really missed at least m_T of the class.
type Estimator interface {
	Name() string
	// NeedsOracle reports whether the estimator requires Eve's true
	// receptions (analysis only).
	NeedsOracle() bool
	Budgets(ctx *EstimatorContext) []int
}

// Oracle budgets every class with Eve's true miss count. It is the
// paper's Figure-1 idealization ("Alice guesses exactly the number of
// x-packets ... missed by Eve") and the upper bound in the estimator
// ablation. Secrecy under Oracle is perfect by construction.
type Oracle struct{}

// Name implements Estimator.
func (Oracle) Name() string { return "oracle" }

// NeedsOracle implements Estimator.
func (Oracle) NeedsOracle() bool { return true }

// Budgets implements Estimator.
func (o Oracle) Budgets(ctx *EstimatorContext) []int { return o.budgetsInto(new(Planner), ctx) }

// budgetsInto implements budgeter.
func (Oracle) budgetsInto(p *Planner, ctx *EstimatorContext) []int {
	if ctx.EveRecv == nil {
		panic("core: Oracle estimator without EveRecv")
	}
	out := resize(p.budgets, len(ctx.Classes))
	p.budgets = out
	for k, cl := range ctx.Classes {
		missed := 0
		for _, id := range cl.IDs {
			if !ctx.EveRecv.Has(id) {
				missed++
			}
		}
		out[k] = missed
	}
	return out
}

// FixedDelta assumes Eve misses each packet independently with probability
// at least Delta — the guarantee the artificial interference aims to
// provide ("Eve misses some minimum fraction of the packets ...
// independently from the naturally occurring channel conditions"). Budgets
// are conservative binomial quantiles so that the probability that ANY
// class got a budget exceeding Eve's true misses is at most Epsilon.
type FixedDelta struct {
	Delta   float64 // per-packet miss probability floor for Eve
	Epsilon float64 // per-pool over-budgeting probability; 0 means DefaultEpsilon
}

// DefaultEpsilon is the default probability, per pool, that the budget
// exceeds Eve's true misses in the pool. It bounds the expected leaked
// fraction of the secret (each failing pool leaks at most its budget),
// and with the default pooling it keeps most experiments perfectly
// secret, reproducing the paper's "50th percentile reliability is always
// 1" behaviour while still leaving the small-n tail the paper observed.
const DefaultEpsilon = 0.02

// Name implements Estimator.
func (e FixedDelta) Name() string { return fmt.Sprintf("fixed-delta(%.2f)", e.Delta) }

// NeedsOracle implements Estimator.
func (FixedDelta) NeedsOracle() bool { return false }

// Budgets implements Estimator.
func (e FixedDelta) Budgets(ctx *EstimatorContext) []int { return e.budgetsInto(new(Planner), ctx) }

// budgetsInto implements budgeter.
func (e FixedDelta) budgetsInto(p *Planner, ctx *EstimatorContext) []int {
	return p.quantileBudgets(ctx.Classes, e.Delta, epsilonOrDefault(e.Epsilon))
}

// LeaveOneOut is the paper's empirical estimator: pretend each terminal in
// turn is Eve. Since the group knows every terminal's reception set, it
// can compute each pretend-Eve's miss rate exactly and adopt the SMALLEST
// one as Eve's assumed per-packet miss probability — conservative against
// any adversary whose channel is no better than the best-placed terminal.
// The fewer the terminals, the fewer pretend-Eves, the weaker the
// estimate; this is precisely why the paper's Figure 2 reliability
// degrades as n shrinks.
type LeaveOneOut struct {
	Epsilon float64 // per-pool over-budgeting probability; 0 means DefaultEpsilon
	Safety  float64 // multiplier on the estimated miss rate; 0 means 1.0
	// Conditional evaluates each pretend-Eve on every pool's own packets
	// instead of on the whole round. It sounds strictly better but is
	// usually WORSE under correlated channels: pools contain exactly the
	// packets their members received, Eve is statistically exchangeable
	// with the pretend-Eves on that conditional quantity, and the minimum
	// of a handful of exchangeable draws under-protects. Kept as an
	// explicit knob because the ablation bench demonstrates the trap.
	Conditional bool
}

// Name implements Estimator.
func (e LeaveOneOut) Name() string {
	if e.Conditional {
		return "leave-one-out-cond"
	}
	return "leave-one-out"
}

// NeedsOracle implements Estimator.
func (LeaveOneOut) NeedsOracle() bool { return false }

// Budgets implements Estimator.
func (e LeaveOneOut) Budgets(ctx *EstimatorContext) []int { return e.budgetsInto(new(Planner), ctx) }

// budgetsInto implements budgeter.
func (e LeaveOneOut) budgetsInto(p *Planner, ctx *EstimatorContext) []int {
	return p.subsetBudgets(ctx, 1, e.Safety, epsilonOrDefault(e.Epsilon), e.Conditional)
}

// KSubset generalizes LeaveOneOut to an Eve with K antennas (§3.3: "to
// secure against an adversary that has as many antennas as k terminals, we
// can pretend that each set of k terminals together are Eve"). A K-antenna
// pretend-Eve receives the union of the K terminals' receptions; the
// estimator adopts the smallest miss rate over all K-subsets.
type KSubset struct {
	K       int
	Epsilon float64
	Safety  float64
	// Conditional: see LeaveOneOut.Conditional.
	Conditional bool
}

// Name implements Estimator.
func (e KSubset) Name() string {
	if e.Conditional {
		return fmt.Sprintf("k-subset-cond(%d)", e.K)
	}
	return fmt.Sprintf("k-subset(%d)", e.K)
}

// NeedsOracle implements Estimator.
func (KSubset) NeedsOracle() bool { return false }

// Budgets implements Estimator.
func (e KSubset) Budgets(ctx *EstimatorContext) []int { return e.budgetsInto(new(Planner), ctx) }

// budgetsInto implements budgeter.
func (e KSubset) budgetsInto(p *Planner, ctx *EstimatorContext) []int {
	return p.subsetBudgets(ctx, max(e.K, 1), e.Safety, epsilonOrDefault(e.Epsilon), e.Conditional)
}

// subsetBudgets implements the pretend-Eve estimators. The default mode
// adopts the smallest ROUND-WIDE miss rate of any k-subset pretend-Eve and
// budgets every pool with a conservative binomial quantile at that rate.
// Conditional mode instead evaluates each pretend-Eve on each pool's own
// packets (see LeaveOneOut.Conditional for why that backfires under
// correlated channels); pools whose membership covers every non-leader
// terminal have no outside pretend-Eve and fall back to the global rate —
// the residual inaccuracy the paper blames for reliability loss at
// small n.
func (p *Planner) subsetBudgets(ctx *EstimatorContext, k int, safety, eps float64, conditional bool) []int {
	globalDelta := p.minMissRate(ctx, k)
	out := resize(p.budgets, len(ctx.Classes))
	p.budgets = out
	for i, cl := range ctx.Classes {
		delta := globalDelta
		if conditional {
			if d := p.classMissRate(ctx, cl, k); !math.IsNaN(d) {
				delta = d
			}
		}
		if safety > 0 {
			delta *= safety
		}
		out[i] = binomialLowerQuantile(cl.Size(), delta, eps)
	}
	return out
}

// classMissRate returns the smallest fraction of the pool's packets missed
// by any k-subset of non-leader terminals outside the pool's membership,
// or NaN when every non-leader terminal is a member.
func (p *Planner) classMissRate(ctx *EstimatorContext, cl Class, k int) float64 {
	outside := p.terms[:0]
	for i := 0; i < ctx.Terminals; i++ {
		if i != ctx.Leader && !cl.HasMember(i) {
			outside = append(outside, i)
		}
	}
	p.terms = outside
	if len(outside) == 0 {
		return math.NaN()
	}
	if k > len(outside) {
		k = len(outside)
	}
	best := math.Inf(1)
	for more := p.firstSubset(k); more; more = nextSubset(p.subset, len(outside)) {
		missed := 0
		for _, id := range cl.IDs {
			got := false
			for _, j := range p.subset {
				if r := ctx.Recv[outside[j]]; r != nil && r.Has(id) {
					got = true
					break
				}
			}
			if !got {
				missed++
			}
		}
		if r := float64(missed) / float64(cl.Size()); r < best {
			best = r
		}
	}
	return best
}

func epsilonOrDefault(eps float64) float64 {
	if eps <= 0 {
		return DefaultEpsilon
	}
	return eps
}

// minMissRate returns the smallest fraction of the round's x-packets
// missed by any k-subset of non-leader terminals (union of receptions).
func minMissRate(ctx *EstimatorContext, k int) float64 {
	return new(Planner).minMissRate(ctx, k)
}

// minMissRate is minMissRate over p's storage: each subset's union is
// counted word by word (packet.UnionCount), never built.
func (p *Planner) minMissRate(ctx *EstimatorContext, k int) float64 {
	others := p.terms[:0]
	for i := 0; i < ctx.Terminals; i++ {
		if i != ctx.Leader {
			others = append(others, i)
		}
	}
	p.terms = others
	if k > len(others) {
		k = len(others)
	}
	if k == 0 || ctx.NumX == 0 {
		return 0
	}
	best := math.Inf(1)
	for more := p.firstSubset(k); more; more = nextSubset(p.subset, len(others)) {
		sets := p.sets[:0]
		for _, j := range p.subset {
			sets = append(sets, ctx.Recv[others[j]])
		}
		p.sets = sets
		miss := 1 - float64(packet.UnionCount(sets))/float64(ctx.NumX)
		if miss < best {
			best = miss
		}
	}
	clear(p.sets) // the sets are the caller's; hold none past the round
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// firstSubset sets p.subset to the first k-subset of indices {0, 1, …},
// in lexicographic order, and reports true: every k, 0 included, has one.
func (p *Planner) firstSubset(k int) bool {
	p.subset = p.subset[:0]
	for i := 0; i < k; i++ {
		p.subset = append(p.subset, i)
	}
	return true
}

// nextSubset advances idx, a k-subset of 0..n-1 in ascending order, to
// the next in lexicographic order, and reports false after the last.
func nextSubset(idx []int, n int) bool {
	k := len(idx)
	i := k - 1
	for i >= 0 && idx[i] == n-k+i {
		i--
	}
	if i < 0 {
		return false
	}
	idx[i]++
	for j := i + 1; j < k; j++ {
		idx[j] = idx[j-1] + 1
	}
	return true
}

// quantileBudgets assigns each pool the largest budget m such that a
// Binomial(poolSize, delta) variable — Eve's miss count in the pool if
// she loses packets independently with probability delta — is at least m
// with probability 1 - eps. The tolerance is per pool: a pool whose
// budget overshoots leaks at most its own budget, so eps directly bounds
// the expected leaked fraction of the round's secret.
func (p *Planner) quantileBudgets(classes []Class, delta, eps float64) []int {
	out := resize(p.budgets, len(classes))
	p.budgets = out
	for k, cl := range classes {
		out[k] = binomialLowerQuantile(cl.Size(), delta, eps)
	}
	return out
}

// binomialLowerQuantile returns the largest m in [0, c] with
// P[Binomial(c, p) < m] <= eps, i.e. the number of Eve misses we can count
// on except with probability eps.
func binomialLowerQuantile(c int, p, eps float64) int {
	if c <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return c
	}
	// Walk the CDF with the pmf recurrence kept in log space so that large
	// classes cannot underflow the early terms (underflow in a linear
	// recurrence would zero the whole CDF and silently grant the maximum
	// budget).
	logPmf := float64(c) * math.Log1p(-p)
	logRatio := math.Log(p) - math.Log1p(-p)
	cdf := 0.0
	m := 0
	for k := 0; k <= c; k++ {
		cdf += math.Exp(logPmf)
		// P[Bin < k+1] = CDF(k): budget k+1 is safe iff CDF(k) <= eps.
		if cdf <= eps {
			m = k + 1
		} else {
			break
		}
		logPmf += math.Log(float64(c-k)) - math.Log(float64(k+1)) + logRatio
	}
	if m > c {
		m = c
	}
	return m
}
