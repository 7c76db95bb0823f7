// Copyright 2023 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

//go:build !amd64 || purego

package packet

// block is the portable block function on architectures without the
// assembly one, and on every architecture under the purego tag.
func block(seed *[4]uint64, blocks *[32]uint64, counter uint32) {
	blockGeneric(seed, blocks, counter)
}
