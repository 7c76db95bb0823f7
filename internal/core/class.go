package core

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/packet"
)

// Class is a reception class: the set of x-packets received by exactly the
// terminal subset Members (leader excluded — the leader transmitted the
// packets and trivially knows them all).
//
// Classes are the unit of Phase-1 privacy amplification: y-packets built
// within a class are reconstructible by every member, and because distinct
// classes cover disjoint x-packets, per-class wiretap security composes to
// joint security (see internal/mds).
type Class struct {
	Members uint32 // bitmask over terminal indices; leader bit always 0
	IDs     []packet.ID
}

// HasMember reports whether terminal i belongs to the class.
func (c Class) HasMember(i int) bool { return c.Members&(1<<uint(i)) != 0 }

// MemberCount returns the number of terminals in the class.
func (c Class) MemberCount() int { return bits.OnesCount32(c.Members) }

// Size returns the number of x-packets in the class.
func (c Class) Size() int { return len(c.IDs) }

// BuildClasses partitions x-packet IDs 0..numX-1 into reception classes
// from the terminals' acknowledgment reports. recv is indexed by absolute
// terminal index; recv[leader] is ignored. Packets received by no terminal
// are dropped (they can never carry shared secrecy). The result is
// deterministically ordered: larger member sets first (they are the most
// valuable — every member benefits and no z-repair is needed among them),
// ties broken by ascending bitmask; each class lists its IDs in ascending
// order.
func BuildClasses(n, leader, numX int, recv []*packet.IDSet) []Class {
	return new(Planner).buildClasses(n, leader, numX, recv)
}

// buildClasses is BuildClasses into p's storage: one key per received
// packet (its reception mask above its ID), sorted into class order, then
// cut into classes where the mask changes.
func (p *Planner) buildClasses(n, leader, numX int, recv []*packet.IDSet) []Class {
	keys := p.keys[:0]
	for id := 0; id < numX; id++ {
		var mask uint32
		for i := 0; i < n; i++ {
			if i != leader && recv[i] != nil && recv[i].Has(packet.ID(id)) {
				mask |= 1 << uint(i)
			}
		}
		if mask != 0 {
			keys = append(keys, uint64(mask)<<32|uint64(id))
		}
	}
	slices.SortFunc(keys, classOrder)
	p.keys = keys
	ids := slices.Grow(p.classIDs[:0], len(keys))
	classes := p.classes[:0]
	for start := 0; start < len(keys); {
		mask := uint32(keys[start] >> 32)
		end := start
		for ; end < len(keys) && uint32(keys[end]>>32) == mask; end++ {
			ids = append(ids, packet.ID(uint32(keys[end])))
		}
		classes = append(classes, Class{Members: mask, IDs: ids[start:end:end]})
		start = end
	}
	p.classIDs, p.classes = ids, classes
	return classes
}

// classOrder orders buildClasses' keys: more members first, then
// ascending mask, then ascending ID.
func classOrder(a, b uint64) int {
	ma, mb := uint32(a>>32), uint32(b>>32)
	if ma == mb {
		return cmp.Compare(uint32(a), uint32(b))
	}
	if ca, cb := bits.OnesCount32(ma), bits.OnesCount32(mb); ca != cb {
		return cb - ca
	}
	return cmp.Compare(ma, mb)
}
