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
// code that would move both sides at once.
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
				"50f5094a88ac9048d73067aa9950be08cd4e592ff86ffc4272bedf207218fb86",
				"28ae7580d68312a89443c6bde245f9d94a5d52c1dbe1131a2615c8a657af897f",
				"4aa525cedac8c3f8b396dd724bef86181c8c1a871ab0c34758af7367a533cdc1",
				"e1be887eb7e9237895b34cf27bb87a394db344afe49c7372a46dcfa5eb4cb061",
			},
		},
		{
			name: "service-default",
			cfg:  Config{Terminals: 3, Erasure: 0.45, XPerRound: 90, PayloadBytes: 16, Seed: 2, BlockSize: 2048},
			want: [4]string{
				"5ef138120d7c1339ee4e58b1a3b4eb7937e7c9f0cf9e5a70206e87e947035ad6",
				"9c923907daf66ae5c66346b8e9e41e59cd08c0c3c050bdbf7e0a14e8903dd92d",
				"4b7f88c1b9dd28d033bf5917e0aaedbcb3644c269658733471f19fe44fb2d851",
				"a399884d4ffeb775dacee02b92385ea843f9e5f3a3f5abf2ec4b68b1414a885e",
			},
		},
		{
			name: "rotate",
			cfg:  Config{Terminals: 4, Erasure: 0.4, XPerRound: 64, PayloadBytes: 32, Seed: 3, Rotate: true, BlockSize: 1024},
			want: [4]string{
				"9d68bb47a0cfbaa416cb302ad5cca8ab2051c2e942a018420eabb316ee7073d2",
				"0f81071cce3f8949a43ebcaf2bae030677379109733eb6c71f9dc39433d458c1",
				"efcdb23253f410c04db357deb65688f480f142d6f59366878dbb34a10c3d95de",
				"78d76d3e2904a93b668e99b5f0d772a939a99a5ede5fa2fab8f835d261b1cb71",
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
