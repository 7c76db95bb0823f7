package keystream

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// TestStreamKnownAnswer pins the SHA-256 of blocks 0-3 for three stream
// shapes: the end-to-end benchmark's (128 x-packets of 4 KiB, 128 KiB
// blocks), the service's default session (90 x-packets of 16 bytes,
// 2 KiB blocks) and a rotating-leader group of four. The differential
// tests compare the pipelined engine against ReferenceBlock, which shares
// the leader code with it; these digests catch a change to that shared
// code that would move both sides at once. The digests are those of
// stream Format 1; they change only together with a Format bump.
func TestStreamKnownAnswer(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want [4]string
	}{
		{
			name: "bench",
			cfg:  Config{Terminals: 3, Erasure: 0.45, XPerRound: 128, PayloadBytes: 4096, Seed: 1, BlockSize: 128 << 10},
			want: [4]string{
				"7a87ef81633cc2cf7a3f3eac8c1cad2928a33ddece187318770006530c033a69",
				"6e5df0c610159d87de1d73bca1ab8551e5f8bb356e7d13838f74d5a3d6537b1e",
				"711f7751ea0df7b6775c44a96ba24ad0c6b2f1d16d054a7019fdb5a78d7732e2",
				"4e3557ec03afa4e7b43007dad5327772416de1d663f11c35a9fd62fe1fab8482",
			},
		},
		{
			name: "service-default",
			cfg:  Config{Terminals: 3, Erasure: 0.45, XPerRound: 90, PayloadBytes: 16, Seed: 2, BlockSize: 2048},
			want: [4]string{
				"6a43940479a9a0b5b6de0c8e72f4643de2d73ecba2f46eea2301a77dc16cb61a",
				"1cb06658e7e70250df3fca2e05f068d4e82865d50e0fe9b39ce4bf738dfec7e0",
				"461b188923dda9b89a02bbe1f77567479fa2c6201af8f05637e8eb618c2fd28e",
				"80b1b5166fdbb3405d2debe83b85a2685273ee3064ff9714cfc1b46f989c81b7",
			},
		},
		{
			name: "rotate",
			cfg:  Config{Terminals: 4, Erasure: 0.4, XPerRound: 64, PayloadBytes: 32, Seed: 3, Rotate: true, BlockSize: 1024},
			want: [4]string{
				"f4133810475dd99f1811b73c66b8611039e7ae7ceb11f79a7336c1a453706631",
				"7000189e9abbe158db5ce63a8bce5f6d4441625486294f7da7ce8abaee94e9b6",
				"dca491de00846a361bcfd1f6731d77c2eb0353a928dc35c48762166d9a23ff2d",
				"4a1501598463c9eadec962ccd3584ddd7235a13a38be8b20ec20bf5517e88c80",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			block := make([]byte, tc.cfg.BlockSize)
			ref := make([]byte, tc.cfg.BlockSize)
			for b := range tc.want {
				if _, err := io.ReadFull(s, block); err != nil {
					t.Fatalf("block %d: %v", b, err)
				}
				sum := sha256.Sum256(block)
				if got := hex.EncodeToString(sum[:]); got != tc.want[b] {
					t.Errorf("block %d sha256 = %s, want %s", b, got, tc.want[b])
				}
				if err := ReferenceBlock(tc.cfg, int64(b), ref); err != nil {
					t.Fatalf("reference block %d: %v", b, err)
				}
				if sha256.Sum256(ref) != sum {
					t.Errorf("block %d: stream bytes differ from ReferenceBlock", b)
				}
			}
		})
	}
}
