package eve

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gf"
	"repro/internal/matrix"
)

func f16() *gf.Field[Sym] { return gf.GF65536() }

// randPayload returns a random wire-order payload of w symbols.
func randPayload(rng *rand.Rand, w int) []byte {
	p := make([]byte, 2*w)
	rng.Read(p)
	return p
}

func TestUnitAndComboRecording(t *testing.T) {
	k := NewKnowledge(f16(), 5)
	if k.Dim() != 5 || k.Rows() != 0 {
		t.Fatal("fresh knowledge wrong")
	}
	k.AddUnit(2, []byte{0, 7, 0, 8})
	k.AddCombo([]Sym{1, 1, 0, 0, 0}, []byte{0, 9, 0, 9})
	if k.Rows() != 2 {
		t.Fatalf("rows = %d", k.Rows())
	}
}

func TestPanics(t *testing.T) {
	k := NewKnowledge(f16(), 3)
	for i, fn := range []func(){
		func() { k.AddUnit(3, []byte{0, 1}) },
		func() { k.AddUnit(-1, []byte{0, 1}) },
		func() { k.AddCombo([]Sym{1, 2}, []byte{0, 1}) },
		func() {
			k.AddUnit(0, []byte{0, 1, 0, 2})
			k.AddUnit(1, []byte{0, 1}) // width mismatch
		},
		func() { k.UnknownSecretDims(matrix.New(f16(), 1, 2)) },
		func() { k.Reconstruct([]Sym{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestPerfectSecrecyCase(t *testing.T) {
	// Source space of 4 packets. Eve knows x0 and x1. Secrets built on
	// x2, x3 are perfectly hidden; secrets touching only x0, x1 are known.
	rng := rand.New(rand.NewSource(1))
	x := make([][]byte, 4)
	for i := range x {
		x[i] = randPayload(rng, 6)
	}
	k := NewKnowledge(f16(), 4)
	k.AddUnit(0, x[0])
	k.AddUnit(1, x[1])

	secret := matrix.FromRows(f16(), [][]Sym{
		{0, 0, 1, 1}, // x2+x3: unknown
		{0, 0, 1, 2}, // x2+2*x3: unknown (but only 2 dims total in x2,x3!)
	})
	if got := k.UnknownSecretDims(secret); got != 2 {
		t.Fatalf("unknown dims = %d, want 2", got)
	}
	known := matrix.FromRows(f16(), [][]Sym{{1, 1, 0, 0}})
	if got := k.UnknownSecretDims(known); got != 0 {
		t.Fatalf("unknown dims = %d, want 0", got)
	}

	// Constructive attack agrees.
	if _, ok := k.Reconstruct([]Sym{0, 0, 1, 1}); ok {
		t.Fatal("Eve reconstructed a hidden secret")
	}
	got, ok := k.Reconstruct([]Sym{1, 1, 0, 0})
	if !ok {
		t.Fatal("Eve failed to reconstruct a known combination")
	}
	want := make([]byte, 12)
	f16().AddMulBE16(want, x[:2], []Sym{1, 1})
	if !bytes.Equal(got, want) {
		t.Fatalf("reconstructed payload %x, want %x", got, want)
	}
}

func TestPartialLeakage(t *testing.T) {
	// Eve knows x0; secret rows are x0 (known) and x1 (unknown): exactly
	// one unknown dimension.
	k := NewKnowledge(f16(), 2)
	k.AddUnit(0, []byte{0, 42})
	secret := matrix.FromRows(f16(), [][]Sym{{1, 0}, {0, 1}})
	if got := k.UnknownSecretDims(secret); got != 1 {
		t.Fatalf("unknown dims = %d, want 1", got)
	}
	if got := k.KnownSecretCount(secret); got != 1 {
		t.Fatalf("known rows = %d, want 1", got)
	}
}

func TestEmptyKnowledge(t *testing.T) {
	k := NewKnowledge(f16(), 3)
	secret := matrix.FromRows(f16(), [][]Sym{{1, 0, 0}})
	if got := k.UnknownSecretDims(secret); got != 1 {
		t.Fatalf("unknown dims = %d", got)
	}
	if _, ok := k.Reconstruct([]Sym{1, 0, 0}); ok {
		t.Fatal("reconstruction from nothing")
	}
}

func TestReconstructWithDependentRows(t *testing.T) {
	// Eve has redundant observations (same combo twice, plus their sum);
	// SolveLeft is underdetermined but reconstruction must still work.
	rng := rand.New(rand.NewSource(2))
	x := [][]byte{randPayload(rng, 4), randPayload(rng, 4)}
	f := f16()
	sum := make([]byte, 8)
	f.AddMulBE16(sum, x, []Sym{1, 1})

	k := NewKnowledge(f, 2)
	k.AddUnit(0, x[0])
	k.AddUnit(0, x[0]) // duplicate
	k.AddCombo([]Sym{1, 1}, sum)

	got, ok := k.Reconstruct([]Sym{0, 1}) // x1 = (x0+x1) - x0
	if !ok {
		t.Fatal("failed to reconstruct despite spanning knowledge")
	}
	if !bytes.Equal(got, x[1]) {
		t.Fatalf("payload %x, want %x", got, x[1])
	}
	// Rank certificate agrees: nothing unknown.
	secret := matrix.FromRows(f, [][]Sym{{0, 1}})
	if d := k.UnknownSecretDims(secret); d != 0 {
		t.Fatalf("unknown dims = %d", d)
	}
}

func TestRankCertificateMatchesAttackRandomized(t *testing.T) {
	// Random knowledge bases and random INDEPENDENT secret rows: the
	// constructive attack must recover a row iff it lies in Eve's span,
	// and the number of unknown dims must equal secret rows minus
	// reconstructable rows whenever the secret rows are independent and
	// each is either fully in or fully out of the span. We build secrets
	// as: some rows taken from Eve's span, some random (independent).
	f := f16()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		dim := rng.Intn(10) + 4
		k := NewKnowledge(f, dim)
		x := make([][]byte, dim)
		for i := range x {
			x[i] = randPayload(rng, 3)
		}
		// Eve receives a random subset.
		nKnown := rng.Intn(dim)
		for _, idx := range rng.Perm(dim)[:nKnown] {
			k.AddUnit(idx, x[idx])
		}
		// Plus one random combo she overheard.
		combo := make([]Sym, dim)
		payload := make([]byte, 6)
		for j := 0; j < dim; j++ {
			combo[j] = Sym(rng.Intn(65536))
		}
		f.AddMulBE16(payload, x, combo)
		k.AddCombo(combo, payload)

		// Secret: one row inside the span (sum of two knowledge rows if
		// possible), one random row.
		inSpan := make([]Sym, dim)
		copy(inSpan, combo)
		rec, ok := k.Reconstruct(inSpan)
		if !ok {
			t.Fatalf("trial %d: combo row not reconstructable", trial)
		}
		if !bytes.Equal(rec, payload) {
			t.Fatalf("trial %d: combo payload mismatch", trial)
		}
		random := make([]Sym, dim)
		for j := range random {
			random[j] = Sym(rng.Intn(65536))
		}
		inSpanExpected := matrix.InRowSpace(k.coeffMatrix(), random)
		_, gotOK := k.Reconstruct(random)
		if gotOK != inSpanExpected {
			t.Fatalf("trial %d: attack success %v but span membership %v", trial, gotOK, inSpanExpected)
		}
	}
}
