package radio

import (
	"math"
	"testing"
)

func TestPositionDistance(t *testing.T) {
	a := Position{0, 0}
	b := Position{3, 4}
	if d := a.DistanceTo(b); d != 5 {
		t.Fatalf("distance = %v", d)
	}
	if d := a.DistanceTo(a); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
}

func TestUniformModel(t *testing.T) {
	u := Uniform{P: 0.3}
	if got := u.PErase(0, 1, 5); got != 0.3 {
		t.Fatalf("PErase = %v", got)
	}
}

func TestDistanceModel(t *testing.T) {
	m := &DistanceModel{
		Pos:      []Position{{0, 0}, {1, 0}, {10, 0}},
		Base:     0.1,
		PerMeter: 0.05,
		Cap:      0.4,
	}
	if got := m.PErase(0, 1, 0); math.Abs(got-0.15) > 1e-12 {
		t.Fatalf("1m loss = %v", got)
	}
	if got := m.PErase(0, 2, 0); got != 0.4 {
		t.Fatalf("capped loss = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range node did not panic")
		}
	}()
	m.PErase(0, 9, 0)
}

func TestAllPatterns(t *testing.T) {
	ps := AllPatterns(3, 3)
	if len(ps) != 9 {
		t.Fatalf("pattern count %d", len(ps))
	}
	seen := map[JamPattern]bool{}
	for _, p := range ps {
		if p.Row < 0 || p.Row > 2 || p.Col < 0 || p.Col > 2 {
			t.Fatalf("pattern out of range: %+v", p)
		}
		seen[p] = true
	}
	if len(seen) != 9 {
		t.Fatal("patterns not distinct")
	}
}

func TestJammer(t *testing.T) {
	cells := map[NodeID][2]int{0: {0, 0}, 1: {1, 1}, 2: {2, 2}}
	j := &Jammer{
		Base:      Uniform{P: 0.1},
		CellOf:    func(id NodeID) (int, int) { c := cells[id]; return c[0], c[1] },
		Schedule:  []JamPattern{{Row: 0, Col: 1}, {Row: 2, Col: 2}},
		JamPErase: 0.9,
	}
	// Slot 0: pattern {0,1}. Node 0 in row 0 -> jammed; node 1 in col 1 ->
	// jammed; node 2 at (2,2) -> clear.
	if !j.Jammed(0, 0) || !j.Jammed(1, 0) || j.Jammed(2, 0) {
		t.Fatal("slot 0 jam flags wrong")
	}
	// Slot 1: pattern {2,2}: node 2 jammed (row and col), node 0 clear.
	if j.Jammed(0, 1) || !j.Jammed(2, 1) {
		t.Fatal("slot 1 jam flags wrong")
	}
	// Composition: 1-(1-0.1)(1-0.9) = 0.91.
	if got := j.PErase(2, 0, 0); math.Abs(got-0.91) > 1e-12 {
		t.Fatalf("jammed loss = %v", got)
	}
	if got := j.PErase(0, 2, 0); got != 0.1 {
		t.Fatalf("clear loss = %v", got)
	}
	// Schedule wraps.
	if j.Active(2) != (JamPattern{Row: 0, Col: 1}) {
		t.Fatal("schedule does not wrap")
	}
}

func TestMediumDeterminism(t *testing.T) {
	run := func() [][]bool {
		m := NewMedium(Uniform{P: 0.5}, 4, 1234)
		var rec [][]bool
		for i := 0; i < 20; i++ {
			rec = append(rec, m.Broadcast(0, 800))
			m.AdvanceSlot()
		}
		return rec
	}
	a, b := run(), run()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("runs diverge at frame %d node %d", i, j)
			}
		}
	}
}

func TestMediumReceptionStatistics(t *testing.T) {
	// With p=0.3, long-run reception rate should be ~0.7 for others and
	// exactly 1.0 for the transmitter.
	m := NewMedium(Uniform{P: 0.3}, 3, 99)
	const trials = 20000
	counts := make([]int, 3)
	for i := 0; i < trials; i++ {
		rec := m.Broadcast(1, 100)
		for n, ok := range rec {
			if ok {
				counts[n]++
			}
		}
	}
	if counts[1] != trials {
		t.Fatalf("transmitter received %d of its own %d frames", counts[1], trials)
	}
	for _, n := range []int{0, 2} {
		rate := float64(counts[n]) / trials
		if math.Abs(rate-0.7) > 0.02 {
			t.Fatalf("node %d reception rate %v, want ~0.7", n, rate)
		}
	}
}

func TestMediumAccounting(t *testing.T) {
	m := NewMedium(Uniform{P: 0}, 2, 1)
	m.Broadcast(0, 800)
	m.BroadcastReliable(1, 200)
	m.ChargeBits(50)
	if m.BitsSent() != 1050 {
		t.Fatalf("BitsSent = %d", m.BitsSent())
	}
	if m.FramesSent() != 2 {
		t.Fatalf("FramesSent = %d", m.FramesSent())
	}
	if m.ReliableBits() != 200 {
		t.Fatalf("ReliableBits = %d", m.ReliableBits())
	}
	m.ResetAccounting()
	if m.BitsSent() != 0 || m.FramesSent() != 0 || m.ReliableBits() != 0 {
		t.Fatal("ResetAccounting incomplete")
	}
}

func TestMediumSlotControls(t *testing.T) {
	m := NewMedium(Uniform{P: 0}, 2, 1)
	if m.Slot() != 0 {
		t.Fatal("initial slot nonzero")
	}
	m.AdvanceSlot()
	m.AdvanceSlot()
	if m.Slot() != 2 {
		t.Fatalf("slot = %d", m.Slot())
	}
	m.SetSlot(7)
	if m.Slot() != 7 {
		t.Fatalf("slot = %d", m.Slot())
	}
	if m.Nodes() != 2 {
		t.Fatalf("nodes = %d", m.Nodes())
	}
}

func TestMediumValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-node medium did not panic")
		}
	}()
	NewMedium(Uniform{}, 0, 1)
}

func TestJammerRaisesEveLoss(t *testing.T) {
	// The point of the interference: averaged over a full pattern
	// rotation, every node sees materially higher loss than the base
	// channel alone.
	cells := func(id NodeID) (int, int) { return int(id) / 3, int(id) % 3 }
	j := &Jammer{
		Base:      Uniform{P: 0.1},
		CellOf:    cells,
		Schedule:  AllPatterns(3, 3),
		JamPErase: 0.8,
	}
	for id := NodeID(0); id < 9; id++ {
		jammedSlots := 0
		for s := 0; s < 9; s++ {
			if j.Jammed(id, s) {
				jammedSlots++
			}
		}
		// Each cell is in the jammed row for 3 patterns and jammed column
		// for 3 patterns, overlapping once: 5 of 9.
		if jammedSlots != 5 {
			t.Fatalf("node %d jammed in %d slots, want 5", id, jammedSlots)
		}
	}
}

// TestDeliveredCoin: the shared erasure coin is a pure function of its
// arguments, never delivers at p=1, always delivers at p=0, and erases
// at the configured rate in between.
func TestDeliveredCoin(t *testing.T) {
	const n = 20000
	erased := 0
	for i := 0; i < n; i++ {
		round, seq, to := i/512, i%512, 1+i%3
		if !Delivered(9, round, seq, to, 0) || Delivered(9, round, seq, to, 1) {
			t.Fatalf("coin (%d, %d, %d) ignores p=0 or p=1", round, seq, to)
		}
		got := Delivered(9, round, seq, to, 0.4)
		if got != Delivered(9, round, seq, to, 0.4) {
			t.Fatal("coin is not a pure function of its arguments")
		}
		if !got {
			erased++
		}
	}
	if rate := float64(erased) / n; math.Abs(rate-0.4) > 0.02 {
		t.Fatalf("erasure rate %.3f, want 0.4", rate)
	}
}
