package packet

import (
	"bytes"
	rand2 "math/rand/v2"
	"testing"

	"repro/internal/cpuid"
)

// FuzzXGen: XGen's stream is math/rand/v2.ChaCha8's Read output for the
// same key, over any split of reads — reads that cross the 992-byte
// reseed boundary, many reseeds deep — and after a rekey or a Zero
// mid-stream (Zero reads as the all-zero key). ops is a program: 0xff
// rekeys both generators with a key derived from the one before, 0xfe
// zeroes XGen and seeds the reference with the zero key, any other byte
// b reads b·(1+i%9) bytes from each and compares them.
func FuzzXGen(f *testing.F) {
	f.Add([]byte("x-payload"), []byte{1, 7, 255, 8, 16, 0})
	f.Add([]byte{}, []byte{124, 124, 124, 124, 124, 124, 124, 124, 124, 124})
	f.Add([]byte("reseed"), []byte{253, 253, 0xff, 253, 0xfe, 253, 31, 1, 200})
	f.Add(bytes.Repeat([]byte{0xa5}, 40), bytes.Repeat([]byte{250, 3, 7}, 30))
	f.Fuzz(func(t *testing.T, key, ops []byte) {
		var k [32]byte
		copy(k[:], key)
		var g XGen
		g.c.init(k)
		ref := rand2.NewChaCha8(k)
		var got, want []byte
		for i, op := range ops {
			switch op {
			case 0xff:
				for j := range k {
					k[j] = k[j]*31 + byte(i+j)
				}
				g.c.init(k)
				ref.Seed(k)
			case 0xfe:
				g.Zero()
				if g.c != (chacha8{}) {
					t.Fatal("Zero left output or seed words")
				}
				ref.Seed([32]byte{})
			default:
				n := int(op) * (1 + i%9)
				got, want = append(got[:0], make([]byte, n)...), append(want[:0], make([]byte, n)...)
				g.Fill(got)
				ref.Read(want)
				if !bytes.Equal(got, want) {
					t.Fatalf("op %d: read of %d bytes differs from ChaCha8.Read", i, n)
				}
			}
		}
	})
}

// TestXGenMatchesChaCha8: over many keys and a long run of payload-sized
// reads, XGen keyed by XKey draws the bytes math/rand/v2.ChaCha8 keyed
// by the same XKey reads.
func TestXGenMatchesChaCha8(t *testing.T) {
	var g XGen
	got, want := make([]byte, 4096), make([]byte, 4096)
	for k := 0; k < 50; k++ {
		g.Round(int64(k)<<33|7, int64(k), k%5, k%3)
		ref := rand2.NewChaCha8(XKey(int64(k)<<33|7, int64(k), k%5, k%3))
		for i := 0; i < 128; i++ {
			g.Fill(got)
			ref.Read(want)
			if !bytes.Equal(got, want) {
				t.Fatalf("key %d read %d differs from ChaCha8.Read", k, i)
			}
		}
	}
}

// TestRefillKernelsAgree: one refill of a seed's stream is the same 1 KiB
// from each block kernel the host runs — block16's one call, the four
// calls of the arch block and of blockGeneric — over random seeds and
// the all-zero and all-ones ones; refill dispatches to block16 exactly
// where the probe reports AVX-512F. Bytes alone cannot tell a refill
// that silently kept the four-call path, so the dispatch is checked too.
func TestRefillKernelsAgree(t *testing.T) {
	if useBlock16 != cpuid.AVX512F() {
		t.Fatalf("refill runs block16: %v, but the probe reports AVX-512F: %v", useBlock16, cpuid.AVX512F())
	}
	arms := []string{"4×block (" + blockKernel + ")", "4×blockGeneric"}
	if cpuid.AVX512F() {
		arms = append(arms, "block16 (avx512)")
	} else {
		t.Log("block16 arm skipped: this build or host has no AVX-512F kernel")
	}
	t.Logf("arms: %v", arms)

	seeds := [][4]uint64{{}, {^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}}
	rng := rand2.New(rand2.NewPCG(35, 16))
	for range 1000 {
		seeds = append(seeds, [4]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()})
	}
	var want, got [refillWords]uint64
	for n, seed := range seeds {
		for i := 0; i < ctrMax/ctrInc; i++ {
			blockGeneric(&seed, (*[chunk]uint64)(want[i*chunk:]), uint32(i*ctrInc))
		}
		clear(got[:])
		for i := 0; i < ctrMax/ctrInc; i++ {
			block(&seed, (*[chunk]uint64)(got[i*chunk:]), uint32(i*ctrInc))
		}
		if got != want {
			t.Fatalf("seed %d %x: 4×block differs from 4×blockGeneric", n, seed)
		}
		if cpuid.AVX512F() {
			clear(got[:])
			block16(&seed, &got)
			if got != want {
				t.Fatalf("seed %d %x: block16 differs from 4×blockGeneric", n, seed)
			}
		}
	}
}
