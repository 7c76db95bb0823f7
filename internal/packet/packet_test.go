package packet

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRandomPayloadGolden pins the simulation's x-payload bytes: every
// Monte-Carlo figure is a function of them. The hashes are SHA-256 over the
// 128 payloads of NewBatch(rand.New(rand.NewSource(seed)), 128, 4096),
// recorded with the original byte(rng.Intn(256)) generator, plus one
// odd-length payload.
func TestRandomPayloadGolden(t *testing.T) {
	for _, g := range []struct {
		seed int64
		sum  string
	}{
		{0, "2dfc9dc05e4301a5ffec3c8f9eeccbb1db8d977fbc5c2aeb7f3e7fdfc248f4f6"},
		{1, "584b8657b0063f8bfc76a17b2a2d5dbf6880392bb50680fae47af01ec8b16b73"},
		{42, "d0cdcbb4669558b2828201a5b49b86628b7f2f47b04f325d5ec664a65442af93"},
		{-7, "8bebfe104278d9083c970051b1827c598fdcc0790cc6b55077cd0572aa59d3bc"},
		{1 << 40, "52a6db07c8ee075f3657f9ee03a1f3aebf36f536b480923ca13026bd87d865a6"},
	} {
		h := sha256.New()
		for _, p := range NewBatch(rand.New(rand.NewSource(g.seed)), 128, 4096) {
			h.Write(p.Payload)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != g.sum {
			t.Errorf("seed %d: batch hash %s, want %s", g.seed, got, g.sum)
		}
	}
	rng := rand.New(rand.NewSource(3))
	first := sha256.Sum256(RandomPayload(rng, 7))
	if got := hex.EncodeToString(first[:]); got != "bead10a7ce345bb233230e36f6e5362f23461e547ae1317d566d8d890d3d52a7" {
		t.Errorf("7-byte payload hash %s", got)
	}
}

// TestRandomPayloadMatchesIntn: the fast form agrees byte for byte with
// the definitional byte(rng.Intn(256)) loop, and leaves the rng in the
// same state.
func TestRandomPayloadMatchesIntn(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got := RandomPayload(a, 257)
		for i, v := range got {
			if want := byte(b.Intn(256)); v != want {
				t.Fatalf("seed %d byte %d: %d, want %d", seed, i, v, want)
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("seed %d: rng state diverged", seed)
		}
	}
}

func BenchmarkRandomPayload4K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		RandomPayload(rng, 4096)
	}
}

func TestRandomPayloadAndBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := RandomPayload(rng, 100)
	if len(p) != 100 {
		t.Fatalf("payload len %d", len(p))
	}
	batch := NewBatch(rng, 5, 16)
	if len(batch) != 5 {
		t.Fatalf("batch len %d", len(batch))
	}
	for i, pkt := range batch {
		if pkt.ID != ID(i) {
			t.Fatalf("batch[%d].ID = %d", i, pkt.ID)
		}
		if len(pkt.Payload) != 16 {
			t.Fatalf("batch[%d] payload len %d", i, len(pkt.Payload))
		}
	}
	// Payloads should differ (overwhelmingly likely).
	if string(batch[0].Payload) == string(batch[1].Payload) {
		t.Fatal("two random payloads identical")
	}
}

func TestIDSetBasics(t *testing.T) {
	s := NewIDSet(100)
	if s.Count() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(99)
	if !s.Has(0) || !s.Has(63) || !s.Has(64) || !s.Has(99) {
		t.Fatal("Has missing added element")
	}
	if s.Has(1) || s.Has(100) || s.Has(1000) {
		t.Fatal("Has reports absent element")
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d", s.Count())
	}
	s.Remove(63)
	if s.Has(63) || s.Count() != 3 {
		t.Fatal("Remove failed")
	}
	s.Remove(2000) // out of range: no-op
	got := s.Slice()
	want := []ID{0, 64, 99}
	if len(got) != len(want) {
		t.Fatalf("Slice = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
}

func TestIDSetGrowth(t *testing.T) {
	s := &IDSet{} // zero value
	s.Add(500)
	if !s.Has(500) || s.Count() != 1 {
		t.Fatal("zero-value set cannot grow")
	}
}

func TestIDSetOpsAgainstMapReference(t *testing.T) {
	// Property test: Union/Intersect/Diff agree with a map-based model.
	type input struct {
		A, B []uint16
	}
	check := func(in input) bool {
		am := map[ID]bool{}
		bm := map[ID]bool{}
		var as, bs []ID
		for _, v := range in.A {
			id := ID(v % 300)
			am[id] = true
			as = append(as, id)
		}
		for _, v := range in.B {
			id := ID(v % 300)
			bm[id] = true
			bs = append(bs, id)
		}
		a, b := FromSlice(as), FromSlice(bs)
		u, x, d := a.Union(b), a.Intersect(b), a.Diff(b)
		for id := ID(0); id < 310; id++ {
			if u.Has(id) != (am[id] || bm[id]) {
				return false
			}
			if x.Has(id) != (am[id] && bm[id]) {
				return false
			}
			if d.Has(id) != (am[id] && !bm[id]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIDSetUnionAsymmetricLengths(t *testing.T) {
	a := FromSlice([]ID{1})
	b := FromSlice([]ID{500})
	if got := a.Union(b).Count(); got != 2 {
		t.Fatalf("union count %d", got)
	}
	if got := b.Union(a).Count(); got != 2 {
		t.Fatalf("union count %d (swapped)", got)
	}
	if got := a.Intersect(b).Count(); got != 0 {
		t.Fatalf("intersect count %d", got)
	}
	if got := b.Diff(a).Count(); got != 1 {
		t.Fatalf("diff count %d", got)
	}
}

func TestIDSetCloneIndependence(t *testing.T) {
	a := FromSlice([]ID{1, 2})
	c := a.Clone()
	c.Add(3)
	if a.Has(3) {
		t.Fatal("Clone shares storage")
	}
}

func TestIDSetEqual(t *testing.T) {
	a := FromSlice([]ID{1, 70})
	b := FromSlice([]ID{1, 70})
	if !a.Equal(b) {
		t.Fatal("equal sets reported unequal")
	}
	// Different backing lengths but same content.
	c := NewIDSet(1000)
	c.Add(1)
	c.Add(70)
	if !a.Equal(c) || !c.Equal(a) {
		t.Fatal("content-equal sets with different capacities reported unequal")
	}
	b.Add(2)
	if a.Equal(b) {
		t.Fatal("different sets reported equal")
	}
}

func TestWordsRoundTrip(t *testing.T) {
	a := FromSlice([]ID{3, 64, 129})
	b := SetFromWords(a.Words())
	if !a.Equal(b) {
		t.Fatal("Words/SetFromWords round trip failed")
	}
	// SetFromWords must copy.
	b.Add(4)
	if a.Has(4) {
		t.Fatal("SetFromWords aliases input")
	}
	if a.String() == "" {
		t.Fatal("String empty")
	}
}

// TestXKeyInputs: changing any one of (seed, block, round, leader)
// changes the key, including a seed moved by 2^31−1 (math/rand's
// modulus) and inputs that differ only in which field holds a value.
func TestXKeyInputs(t *testing.T) {
	type in struct {
		seed, block   int64
		round, leader int
	}
	base := in{seed: 1 << 40, block: 5, round: 3, leader: 1}
	variants := []in{
		{base.seed + 1, base.block, base.round, base.leader},
		{base.seed + (1<<31 - 1), base.block, base.round, base.leader},
		{-base.seed, base.block, base.round, base.leader},
		{base.seed, base.block + 1, base.round, base.leader},
		{base.seed, -1, base.round, base.leader},
		{base.seed, base.block, base.round + 1, base.leader},
		{base.seed, base.block, base.round, base.leader + 1},
		{base.seed, base.block, base.leader, base.round}, // round and leader swapped
	}
	key := func(v in) [32]byte { return XKey(v.seed, v.block, v.round, v.leader) }
	if key(base) != key(base) {
		t.Fatal("XKey is not a function of its inputs")
	}
	seen := map[[32]byte]in{key(base): base}
	for _, v := range variants {
		k := key(v)
		if prev, dup := seen[k]; dup {
			t.Fatalf("XKey%v == XKey%v", v, prev)
		}
		seen[k] = v
	}
}

// TestXGenStream: a round's payloads are one stream read in packet
// order, however the reads are split; rekeying for the same round
// restarts it, another round or the zero key starts another, and
// neither allocates.
func TestXGenStream(t *testing.T) {
	var g XGen
	g.Round(7, 2, 1, 0)
	whole := make([]byte, 5*24)
	g.Fill(whole)
	g.Round(7, 2, 1, 0)
	split := make([]byte, 0, len(whole))
	for _, n := range []int{24, 3, 21, 24, 48} {
		p := make([]byte, n)
		g.Fill(p)
		split = append(split, p...)
	}
	if string(split) != string(whole) {
		t.Fatal("split reads differ from one read of the round's stream")
	}
	other := make([]byte, len(whole))
	g.Round(7, 2, 2, 0)
	g.Fill(other)
	if string(other) == string(whole) {
		t.Fatal("rounds 1 and 2 drew the same payloads")
	}
	g.Zero()
	g.Fill(other)
	if string(other) == string(whole) {
		t.Fatal("the zero key drew the round's payloads")
	}
	p := make([]byte, 4096)
	if n := testing.AllocsPerRun(10, func() { g.Round(7, 2, 1, 0); g.Fill(p); g.Zero() }); n != 0 {
		t.Fatalf("rekeying and filling allocate %v times", n)
	}
}

// BenchmarkXGen: a leader's payload draws as a stream round makes them,
// 4 KiB payloads with a Round rekey every 128.
func BenchmarkXGen(b *testing.B) {
	var g XGen
	p := make([]byte, 4096)
	b.SetBytes(int64(len(p)))
	i := 0
	for b.Loop() {
		if i%128 == 0 {
			g.Round(7, int64(i/128), 0, 0)
		}
		g.Fill(p)
		i++
	}
}
