// Copyright 2023 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

//go:build amd64 && !purego

package packet

// block runs four ChaCha8 block transformations in the four stripes of
// the SSE2 registers (chacha8_amd64.s).
//
//go:noescape
func block(seed *[4]uint64, blocks *[32]uint64, counter uint32)
