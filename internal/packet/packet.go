// Package packet defines the data units of the protocol — x-packets and
// their reception bookkeeping — plus the compact ID-set bitmap used in
// acknowledgment reports.
package packet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
)

// ID identifies an x-packet within a round. IDs are dense: the leader
// transmits x-packets 0..N-1 each round.
type ID uint32

// Packet is one transmitted data unit: an identifier plus an opaque
// payload. Payload bytes are never interpreted by the protocol other than
// as GF(2^m) symbol vectors.
type Packet struct {
	ID      ID
	Payload []byte
}

// RandomPayload fills a fresh payload of n bytes from rng: the
// Monte-Carlo simulation's x-payloads (core.RunSession, NewBatch), whose
// experiment seed pins every figure. Each byte is byte(rng.Int63() >> 32),
// which is exactly what rng.Intn(256) returns (Intn → Int31n's
// power-of-two mask → Int31) without the two range-check calls per byte;
// the golden hashes in packet_test.go pin the bytes and the rng's
// consumption. Key material never comes from here: math/rand reduces its
// seed mod 2^31−1. The leaders of keystream blocks and of the transport
// runtime draw from an XGen.
func RandomPayload(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Int63() >> 32)
	}
	return b
}

// xKeyLabel separates x-payload generator keys from any other SHA-256
// over the same numbers. A change to the generator or its key changes
// every key stream's bytes: it is a stream-format change.
const xKeyLabel = "thinair/x-payload/v1"

// XKey is the 256-bit key of the generator a leader draws one round's
// x-payloads from: SHA-256 over xKeyLabel and (seed, block, round,
// leader), each a big-endian 64-bit value. A session with no blocks (the
// transport runtime) passes block −1, which no keystream block uses.
func XKey(seed, block int64, round, leader int) [32]byte {
	var in [len(xKeyLabel) + 4*8]byte
	b := append(in[:0], xKeyLabel...)
	b = binary.BigEndian.AppendUint64(b, uint64(seed))
	b = binary.BigEndian.AppendUint64(b, uint64(block))
	b = binary.BigEndian.AppendUint64(b, uint64(int64(round)))
	b = binary.BigEndian.AppendUint64(b, uint64(int64(leader)))
	return sha256.Sum256(b)
}

// XGen is a leader's x-payload generator: ChaCha8 keyed by XKey, rekeyed
// every round. A round's payloads are its stream read in packet order,
// so payload i is the PayloadBytes after payloads 0..i-1, however the
// reads are split. The stream is exactly math/rand/v2.ChaCha8's Read
// output for the key (FuzzXGen pins it), produced by a port of its
// generator that copies a kilobyte of output at a time instead of one
// word per call. Unlike math/rand, which reduces its seed mod 2^31−1,
// the generator keeps every bit of its key, so an eavesdropper who hears
// a payload is left to search the seeds behind the key. A generator is
// used by one goroutine; rekeying allocates nothing.
type XGen struct {
	c chacha8
}

// Round rekeys g for a round's x-payloads.
func (g *XGen) Round(seed, block int64, round, leader int) {
	g.c.init(XKey(seed, block, round, leader))
}

// Fill reads the round's next payload into p.
func (g *XGen) Fill(p []byte) { g.c.read(p) }

// Zero clears g's buffered output and its seed words. A round's key
// regenerates its x-payloads, and so its secret: a generator whose owner
// is done with it must not keep one, nor any output or later seed drawn
// from it. A zeroed generator reads the all-zero key's stream.
func (g *XGen) Zero() { g.c.zero() }

// NewBatch creates packets 0..n-1 with independent random payloads of
// size bytes each.
func NewBatch(rng *rand.Rand, n, size int) []Packet {
	out := make([]Packet, n)
	for i := range out {
		out[i] = Packet{ID: ID(i), Payload: RandomPayload(rng, size)}
	}
	return out
}

// IDSet is a bitmap over packet IDs 0..n-1. The zero value is an empty set
// with capacity 0; use NewIDSet or grow via Add.
type IDSet struct {
	words []uint64
}

// NewIDSet returns an empty set sized for IDs < n.
func NewIDSet(n int) *IDSet {
	return &IDSet{words: make([]uint64, (n+63)/64)}
}

// Reset empties s and sizes it for IDs < n, as NewIDSet(n) would, over
// s's own words when they suffice: a set refilled every round stops
// allocating once it has held the round's largest size.
func (s *IDSet) Reset(n int) {
	w := (n + 63) / 64
	if cap(s.words) < w {
		s.words = make([]uint64, w)
		return
	}
	s.words = s.words[:w]
	clear(s.words)
}

// FromSlice builds a set containing exactly the given IDs.
func FromSlice(ids []ID) *IDSet {
	s := &IDSet{}
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

func (s *IDSet) grow(id ID) {
	w := int(id)/64 + 1
	for len(s.words) < w {
		s.words = append(s.words, 0)
	}
}

// Add inserts id.
func (s *IDSet) Add(id ID) {
	s.grow(id)
	s.words[id/64] |= 1 << (id % 64)
}

// Remove deletes id if present.
func (s *IDSet) Remove(id ID) {
	if int(id)/64 < len(s.words) {
		s.words[id/64] &^= 1 << (id % 64)
	}
}

// Has reports membership.
func (s *IDSet) Has(id ID) bool {
	w := int(id) / 64
	return w < len(s.words) && s.words[w]&(1<<(id%64)) != 0
}

// Count returns the number of elements.
func (s *IDSet) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a deep copy.
func (s *IDSet) Clone() *IDSet {
	return &IDSet{words: append([]uint64(nil), s.words...)}
}

// Union returns a new set with all elements of s and o.
func (s *IDSet) Union(o *IDSet) *IDSet {
	a, b := s.words, o.words
	if len(a) < len(b) {
		a, b = b, a
	}
	out := append([]uint64(nil), a...)
	for i := range b {
		out[i] |= b[i]
	}
	return &IDSet{words: out}
}

// UnionCount returns the number of IDs in the union of sets, a nil set
// counting as empty, without building the union: it ORs the sets word by
// word and counts the bits. It never allocates.
func UnionCount(sets []*IDSet) int {
	n := 0
	for w := 0; ; w++ {
		var or uint64
		more := false
		for _, s := range sets {
			if s != nil && w < len(s.words) {
				or |= s.words[w]
				more = true
			}
		}
		if !more {
			return n
		}
		n += bits.OnesCount64(or)
	}
}

// Intersect returns a new set with the elements common to s and o.
func (s *IDSet) Intersect(o *IDSet) *IDSet {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = s.words[i] & o.words[i]
	}
	return &IDSet{words: out}
}

// Diff returns a new set with the elements of s not in o.
func (s *IDSet) Diff(o *IDSet) *IDSet {
	out := append([]uint64(nil), s.words...)
	for i := range out {
		if i < len(o.words) {
			out[i] &^= o.words[i]
		}
	}
	return &IDSet{words: out}
}

// Slice returns the members in increasing order.
func (s *IDSet) Slice() []ID {
	var out []ID
	for wi, w := range s.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			out = append(out, ID(wi*64+bit))
			w &= w - 1
		}
	}
	return out
}

// Words exposes the raw bitmap for wire encoding.
func (s *IDSet) Words() []uint64 { return s.words }

// SetFromWords rebuilds a set from its wire representation.
func SetFromWords(words []uint64) *IDSet {
	return &IDSet{words: append([]uint64(nil), words...)}
}

// String renders the set compactly for debugging.
func (s *IDSet) String() string {
	return fmt.Sprintf("IDSet%v", s.Slice())
}

// Equal reports whether s and o contain the same IDs.
func (s *IDSet) Equal(o *IDSet) bool {
	n := len(s.words)
	if len(o.words) > n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(s.words) {
			a = s.words[i]
		}
		if i < len(o.words) {
			b = o.words[i]
		}
		if a != b {
			return false
		}
	}
	return true
}
