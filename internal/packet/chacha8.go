// Copyright 2023 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// This file and chacha8_*.go are a port of the Go standard library's
// internal/chacha8rand, the generator behind math/rand/v2.ChaCha8. They
// must produce exactly the bytes ChaCha8.Read produces for the same
// seed, however the reads are split (FuzzXGen); the state logic is
// restructured to refill 1 KiB at a time.

package packet

import (
	"encoding/binary"
	"unsafe"
)

const (
	ctrInc      = 4                          // counter step between block calls
	ctrMax      = 16                         // reseed when the counter reaches 16
	chunk       = 32                         // each block call produces 32 uint64s
	reseed      = 4                          // reseed with 4 words
	refillWords = chunk * ctrMax / ctrInc    // one seed's output: 128 words, 1 KiB
	refillOut   = 8 * (refillWords - reseed) // the 992 bytes of it that are output
)

// bigEndian reports whether uint64 words sit in memory most significant
// byte first, which the generic block and the byte view of the output
// must undo.
var bigEndian = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// chacha8 is the chacha8rand state, refilled one seed at a time: the
// four block calls a seed runs (counters 0, 4, 8 and 12) fill buf, its
// first 992 bytes are the output and its last 4 words the next seed.
// This is the stream chacha8rand.State yields word by word, and the
// byte stream math/rand/v2.ChaCha8.Read yields: each word in order,
// little-endian.
//
// The zero value and a zeroed state both hold the zero seed and no
// output, so they read the stream of the all-zero key.
type chacha8 struct {
	buf  [refillWords]uint64
	seed [4]uint64
	n    int // output bytes not read yet, the last n of buf's first refillOut
}

// init seeds s as chacha8rand.State.Init does; the first read refills.
func (s *chacha8) init(seed [32]byte) {
	for i := range s.seed {
		s.seed[i] = binary.LittleEndian.Uint64(seed[8*i:])
	}
	s.n = 0
}

// refill runs the seed's four block calls into buf, or block16's one
// call that writes the same bytes, and takes the next seed from its
// tail. On a big-endian machine the output words are then byte-swapped,
// so buf's memory reads as the little-endian stream.
func (s *chacha8) refill() {
	if useBlock16 {
		block16(&s.seed, &s.buf)
	} else {
		for i := 0; i < ctrMax/ctrInc; i++ {
			block(&s.seed, (*[chunk]uint64)(s.buf[i*chunk:]), uint32(i*ctrInc))
		}
	}
	copy(s.seed[:], s.buf[refillWords-reseed:])
	if bigEndian {
		for i, w := range s.buf[:refillWords-reseed] {
			s.buf[i] = w>>56 | (w>>40)&0xff00 | (w>>24)&0xff0000 | (w>>8)&0xff000000 |
				(w&0xff000000)<<8 | (w&0xff0000)<<24 | (w&0xff00)<<40 | w<<56
		}
	}
	s.n = refillOut
}

// read fills p with the stream's next len(p) bytes.
func (s *chacha8) read(p []byte) {
	out := (*[refillOut]byte)(unsafe.Pointer(&s.buf))
	for len(p) > 0 {
		if s.n == 0 {
			s.refill()
		}
		k := copy(p, out[refillOut-s.n:])
		s.n -= k
		p = p[k:]
	}
}

// zero clears the output, the seed and the position: s then reads the
// all-zero key's stream and keeps nothing of its last one.
func (s *chacha8) zero() {
	clear(s.buf[:])
	clear(s.seed[:])
	s.n = 0
}
