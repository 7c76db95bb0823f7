package gf

import "encoding/binary"

// SymbolsPerByte conversions: packet payloads travel as bytes but all
// coding operates on field symbols. GF(2^8) symbols map one-to-one onto
// bytes; GF(2^16) symbols pack two big-endian bytes each (payloads with odd
// length are zero-padded by the caller before conversion).

// Symbols16 converts a byte payload into GF(2^16) symbols. The payload
// length must be even.
func Symbols16(b []byte) []uint16 {
	if len(b)%2 != 0 {
		panic("gf: Symbols16 requires an even-length payload")
	}
	out := make([]uint16, len(b)/2)
	PutSymbols16(out, b)
	return out
}

// PutSymbols16 decodes the even-length payload b into dst, which must
// hold len(b)/2 symbols — Symbols16 into a caller-owned buffer.
func PutSymbols16(dst []uint16, b []byte) {
	dst = dst[:len(b)/2]
	for i := range dst {
		dst[i] = binary.BigEndian.Uint16(b[2*i:])
	}
}

// Bytes16 converts GF(2^16) symbols back into a byte payload.
func Bytes16(s []uint16) []byte {
	out := make([]byte, 2*len(s))
	PutBytes16(out, s)
	return out
}

// PutBytes16 encodes s into dst, which must hold 2*len(s) bytes — Bytes16
// into a caller-owned buffer.
func PutBytes16(dst []byte, s []uint16) {
	dst = dst[:2*len(s)]
	for i, v := range s {
		binary.BigEndian.PutUint16(dst[2*i:], v)
	}
}

// Symbols8 converts a byte payload into GF(2^8) symbols (a copy).
func Symbols8(b []byte) []uint8 {
	out := make([]uint8, len(b))
	copy(out, b)
	return out
}

// Bytes8 converts GF(2^8) symbols back into a byte payload (a copy).
func Bytes8(s []uint8) []byte {
	out := make([]byte, len(s))
	copy(out, s)
	return out
}
