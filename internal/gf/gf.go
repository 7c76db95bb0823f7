// Package gf implements arithmetic over the binary extension fields
// GF(2^8) and GF(2^16).
//
// Every construction in the secret-agreement protocol — the y/z/s packet
// combinations, erasure decoding, and the eavesdropper's rank computations —
// is linear algebra over one of these fields. The implementation uses the
// classic discrete-log / anti-log tables, which makes a multiplication two
// table lookups and an addition a XOR.
//
// The protocol defaults to GF(2^16) (symbols are uint16) because Cauchy
// matrix constructions need as many distinct field points as the sum of the
// matrix dimensions; GF(2^8) caps that sum at 256, which a large round can
// exceed. GF(2^8) serves the test fields and the test-only GF(2^8) block
// source (keystream.XOFSource8), on the portable layer only.
package gf

import (
	"fmt"
	"sync"
)

// Elem is the set of symbol types a Field can be instantiated with.
// uint8 corresponds to GF(2^8), uint16 to GF(2^16).
type Elem interface {
	~uint8 | ~uint16
}

// Irreducible polynomials (low bits; the implicit leading term is x^deg).
const (
	// Poly8 is x^8 + x^4 + x^3 + x^2 + 1, the polynomial used by most
	// Reed-Solomon deployments; 2 is a primitive element.
	Poly8 = 0x11d
	// Poly16 is x^16 + x^12 + x^3 + x + 1; 2 is a primitive element.
	Poly16 = 0x1100b
)

// Field holds the log/exp tables for one binary extension field.
// A Field is immutable after construction and safe for concurrent use.
type Field[E Elem] struct {
	name string
	size int     // number of field elements (2^m)
	poly int     // the field's irreducible polynomial (incl. leading term)
	exp  []E     // length 2*(size-1); exp[i] = g^i, doubled to skip a mod
	log  []int32 // length size; log[0] unused (set to -1)
	// mul8 is the full 256x256 product table, built only for GF(2^8)
	// (64 KiB); mul8[a<<8|b] = a*b. It makes the bulk kernels a single
	// unconditional lookup per symbol. GF(2^16) would need 8 GiB, so its
	// kernels build small per-coefficient product rows instead (bulk.go).
	mul8 []E
	// kern is the kernel choice the arch-dispatch layer made for this
	// CPU at construction time (bulk_amd64.go / bulk_arm64.go /
	// bulk_generic.go).
	kern kernels
}

// Name returns a human-readable field name such as "GF(2^8)".
func (f *Field[E]) Name() string { return f.name }

// Size returns the number of elements in the field (2^m).
func (f *Field[E]) Size() int { return f.size }

// Kernel names the bulk-kernel backend the arch-dispatch layer selected at
// construction ("gfni", "avx2", "generic", ...). Benchmarks and diagnostics use it
// to label throughput numbers.
func (f *Field[E]) Kernel() string { return f.kern.name }

// newField builds the tables for the field of the given size using the
// given irreducible polynomial. It panics if 2 is not primitive for the
// polynomial, which would be a programming error in this package.
func newField[E Elem](name string, size, poly int) *Field[E] {
	f := &Field[E]{
		name: name,
		size: size,
		poly: poly,
		exp:  make([]E, 2*(size-1)),
		log:  make([]int32, size),
		kern: pickKernels(size),
	}
	f.log[0] = -1
	x := 1
	for i := 0; i < size-1; i++ {
		if x == 1 && i > 0 {
			panic(fmt.Sprintf("gf: generator 2 is not primitive for %s poly %#x", name, poly))
		}
		f.exp[i] = E(x)
		f.exp[i+size-1] = E(x)
		f.log[x] = int32(i)
		x <<= 1
		if x >= size {
			x ^= poly
		}
	}
	if x != 1 {
		panic(fmt.Sprintf("gf: table generation did not cycle for %s poly %#x", name, poly))
	}
	if size == 256 {
		f.mul8 = make([]E, 256*256)
		for a := 1; a < 256; a++ {
			row := f.mul8[a<<8 : a<<8+256]
			la := int(f.log[a])
			for b := 1; b < 256; b++ {
				row[b] = f.exp[la+int(f.log[b])]
			}
		}
	}
	return f
}

var (
	gf256   = sync.OnceValue(func() *Field[uint8] { return newField[uint8]("GF(2^8)", 256, Poly8) })
	gf65536 = sync.OnceValue(func() *Field[uint16] { return newField[uint16]("GF(2^16)", 65536, Poly16) })
)

// GF256 returns the shared GF(2^8) instance.
func GF256() *Field[uint8] { return gf256() }

// GF65536 returns the shared GF(2^16) instance.
func GF65536() *Field[uint16] { return gf65536() }

// Add returns a + b. In characteristic 2 addition and subtraction are both
// XOR.
func (f *Field[E]) Add(a, b E) E { return a ^ b }

// Mul returns a * b.
func (f *Field[E]) Mul(a, b E) E {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[int(f.log[a])+int(f.log[b])]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero;
// callers are responsible for never inverting zero (the matrix routines
// check pivots before dividing).
func (f *Field[E]) Inv(a E) E {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return f.exp[(f.size-1)-int(f.log[a])]
}

// Div returns a / b. It panics if b is zero.
func (f *Field[E]) Div(a, b E) E {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(f.log[a]) - int(f.log[b])
	if d < 0 {
		d += f.size - 1
	}
	return f.exp[d]
}

// Pow returns a^k for k >= 0, with a^0 == 1 (including 0^0 == 1, the usual
// convention for evaluation of polynomials written in coefficient form).
func (f *Field[E]) Pow(a E, k int) E {
	if k < 0 {
		panic("gf: negative exponent")
	}
	if k == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return f.exp[(int(f.log[a])*k)%(f.size-1)]
}

// Dot returns the inner product of two equal-length vectors.
func (f *Field[E]) Dot(a, b []E) E {
	if len(a) != len(b) {
		panic("gf: Dot length mismatch")
	}
	var acc E
	if f.mul8 != nil {
		m := f.mul8
		for i, x := range a {
			acc ^= m[int(x)<<8|int(b[i])]
		}
		return acc
	}
	exp, log := f.exp, f.log
	for i, x := range a {
		y := b[i]
		if x != 0 && y != 0 {
			acc ^= exp[int(log[x])+int(log[y])]
		}
	}
	return acc
}
