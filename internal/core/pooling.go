package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/packet"
)

// Pooling decides how the round's x-packets are grouped into the pools
// that Phase 1 privacy-amplifies. A pool is a Class whose Members may be
// any subset of the terminals that received all of its packets; secrecy
// composes across pools because pools have disjoint x-supports.
//
// The trade-off the policies navigate: exact reception-signature classes
// maximize sharing (one y-packet can serve many terminals), but with many
// terminals the signatures fragment the x-packets into classes too small
// for a conservative budget, starving the round. Balanced pooling keeps
// the large shared classes and re-aggregates the fragments into fat
// two-member (ring pair) or single-member pools, trading z-packet repair
// traffic for budgetable mass.
type Pooling interface {
	Name() string
	// Pools regroups ctx.Classes (the exact reception classes) into the
	// pools to be budgeted. Every returned pool must satisfy the
	// invariant: every member received every packet in the pool.
	Pools(ctx *EstimatorContext) []Class
}

// ExactPooling budgets the reception classes as they are. This is the
// cleanest construction (maximal sharing) and what the Figure-1 fluid
// analysis assumes; it is the right choice for small groups and for
// oracle-budgeted analysis.
type ExactPooling struct{}

// Name implements Pooling.
func (ExactPooling) Name() string { return "exact" }

// Pools implements Pooling.
func (ExactPooling) Pools(ctx *EstimatorContext) []Class { return ctx.Classes }

// DefaultMinPoolSize is the class size below which BalancedPooling
// re-aggregates fragments. With Eve miss rates around one half, classes
// of this size are the smallest that can earn a conservative budget.
const DefaultMinPoolSize = 9

// BalancedPooling keeps exact classes of at least MinPoolSize packets that
// serve at least two terminals, and redistributes every other x-packet
// into aggregate pools:
//
//   - per-terminal pools, each fragment growing the pool of the currently
//     least-covered terminal (default); or
//   - with UsePairs, preferentially into "ring pair" pools — the
//     non-leader terminals are arranged in a ring and each adjacent pair
//     is a candidate member set, so one pooled packet serves two
//     terminals.
//
// Pair pooling raises nominal efficiency but selects packets received by
// BOTH members, and under correlated channels (the rotating jammer) such
// doubly-selected packets are systematically easier for Eve too, eroding
// the estimator's safety margin. The allocation ablation quantifies this;
// per-terminal pooling is the default.
type BalancedPooling struct {
	// MinPoolSize is the smallest exact class kept as-is; 0 means
	// DefaultMinPoolSize.
	MinPoolSize int
	// UsePairs enables ring-pair aggregation for fragments.
	UsePairs bool
}

// Name implements Pooling.
func (b BalancedPooling) Name() string {
	if b.UsePairs {
		return fmt.Sprintf("balanced-pairs(%d)", b.minSize())
	}
	return fmt.Sprintf("balanced(%d)", b.minSize())
}

func (b BalancedPooling) minSize() int {
	if b.MinPoolSize <= 0 {
		return DefaultMinPoolSize
	}
	return b.MinPoolSize
}

// Pools implements Pooling.
func (b BalancedPooling) Pools(ctx *EstimatorContext) []Class {
	return b.poolsInto(new(Planner), ctx)
}

// noPool marks a fragment that no candidate member set can take.
const noPool = 1<<32 - 1

// poolsInto is Pools into p's storage. Fragments are keyed by ID above
// their members, and once placed, above their pool's candidate index;
// each pool's IDs are laid out in fragment (ascending ID) order.
func (b BalancedPooling) poolsInto(p *Planner, ctx *EstimatorContext) []Class {
	minSize := b.minSize()
	out := p.pools[:0]
	load := resize(p.load, ctx.Terminals) // pooled packets covering each terminal
	frags := p.frags[:0]
	for _, cl := range ctx.Classes {
		if cl.Size() >= minSize && cl.MemberCount() >= 2 {
			out = append(out, cl)
			for i := 0; i < ctx.Terminals; i++ {
				if cl.HasMember(i) {
					load[i] += cl.Size()
				}
			}
			continue
		}
		for _, id := range cl.IDs {
			frags = append(frags, uint64(id)<<32|uint64(cl.Members))
		}
	}
	slices.Sort(frags)

	// Candidate member sets: ring pairs over the non-leader terminals (in
	// index order), then singletons.
	cands := p.cands[:0]
	if b.UsePairs {
		ring := p.terms[:0]
		for i := 0; i < ctx.Terminals; i++ {
			if i != ctx.Leader {
				ring = append(ring, i)
			}
		}
		p.terms = ring
		if len(ring) >= 3 {
			for k := range ring {
				cands = append(cands, 1<<uint(ring[k])|1<<uint(ring[(k+1)%len(ring)]))
			}
		} else if len(ring) == 2 {
			cands = append(cands, 1<<uint(ring[0])|1<<uint(ring[1]))
		}
	}
	for i := 0; i < ctx.Terminals; i++ {
		if i != ctx.Leader {
			cands = append(cands, 1<<uint(i))
		}
	}

	counts := resize(p.counts, len(cands))
	for f, fr := range frags {
		members := uint32(fr)
		best := -1
		bestKey := [3]int{1 << 30, 0, 1 << 30} // minLoad, -size, mask
		for ci, cand := range cands {
			if cand&members != cand {
				continue // some candidate member missed this packet
			}
			minLoad := 1 << 30
			for i := 0; i < ctx.Terminals; i++ {
				if cand&(1<<uint(i)) != 0 && load[i] < minLoad {
					minLoad = load[i]
				}
			}
			key := [3]int{minLoad, -bits.OnesCount32(cand), int(cand)}
			if best < 0 || key[0] < bestKey[0] ||
				(key[0] == bestKey[0] && key[1] < bestKey[1]) ||
				(key[0] == bestKey[0] && key[1] == bestKey[1] && key[2] < bestKey[2]) {
				best, bestKey = ci, key
			}
		}
		if best < 0 {
			frags[f] = fr>>32<<32 | noPool // unreachable: classes never have empty membership
			continue
		}
		frags[f] = fr>>32<<32 | uint64(best)
		counts[best]++
		for i := 0; i < ctx.Terminals; i++ {
			if cands[best]&(1<<uint(i)) != 0 {
				load[i]++
			}
		}
	}

	// Lay the pools out candidate after candidate: counts become each
	// pool's start, then, as its IDs are placed, its end.
	total := 0
	for ci, c := range counts {
		counts[ci], total = total, total+c
	}
	ids := resize(p.poolIDs, total)
	for _, fr := range frags {
		if ci := uint32(fr); ci != noPool {
			ids[counts[ci]] = packet.ID(fr >> 32)
			counts[ci]++
		}
	}
	start := 0
	for ci, end := range counts {
		if end > start {
			out = append(out, Class{Members: cands[ci], IDs: ids[start:end:end]})
		}
		start = end
	}
	slices.SortFunc(out, poolOrder)
	p.pools, p.poolIDs, p.frags, p.cands, p.counts, p.load = out, ids, frags, cands, counts, load
	return out
}

// poolOrder is the order of Pools' result: more members first, then
// ascending mask, then larger pools first, then ascending first ID. The
// last key makes it total: with UsePairs a kept exact class and a ring
// pair pool can share a mask and a size, but pools have disjoint IDs.
func poolOrder(a, b Class) int {
	if ca, cb := a.MemberCount(), b.MemberCount(); ca != cb {
		return cb - ca
	}
	if a.Members != b.Members {
		return cmp.Compare(a.Members, b.Members)
	}
	if a.Size() != b.Size() {
		return b.Size() - a.Size()
	}
	return cmp.Compare(a.IDs[0], b.IDs[0])
}

// poolsInto implements pooler.
func (ExactPooling) poolsInto(_ *Planner, ctx *EstimatorContext) []Class { return ctx.Classes }
