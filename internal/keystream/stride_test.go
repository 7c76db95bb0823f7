package keystream

import (
	"bytes"
	"testing"
	"time"
)

func gf8Cfg(seed int64) Config {
	return Config{
		Terminals: 2, XPerRound: 4, PayloadBytes: 4,
		Seed:      seed,
		BlockSize: 4096,
		Source:    XOFSource8(seed),
	}
}

// TestStrideDifferential: a strided ReadAt workload — the access pattern
// of an OTP consumer padding every Nth record — returns bytes identical
// to a plain stream reading the same ranges, while the prediction locks
// onto the stride and prefetches along the lattice instead of the next
// contiguous blocks.
func TestStrideDifferential(t *testing.T) {
	const strideBlocks = 5 // prime vs the lookahead so contiguous prefetch never helps
	const reads = 24
	const readLen = 96

	strided, err := New(gf8Cfg(77))
	if err != nil {
		t.Fatal(err)
	}
	defer strided.Close()
	plain, err := New(gf8Cfg(77))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	bsz := int64(strided.BlockSize())
	for i := 0; i < reads; i++ {
		off := int64(i) * strideBlocks * bsz
		a := make([]byte, readLen)
		if _, err := strided.ReadAt(a, off); err != nil {
			t.Fatalf("strided ReadAt(%d): %v", off, err)
		}
		b := make([]byte, readLen)
		if _, err := plain.ReadAt(b, off); err != nil {
			t.Fatalf("plain ReadAt(%d): %v", off, err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("strided read at offset %d diverged from the plain stream", off)
		}
	}

	st := strided.Stats()
	if st.Prefetches == 0 {
		t.Fatalf("nothing prefetched over %d strided reads: %+v", reads, st)
	}
	strided.mu.Lock()
	stride := strided.ranged.stride
	strided.mu.Unlock()
	if stride != strideBlocks {
		t.Fatalf("predicted stride after strided reads = %d, want %d", stride, strideBlocks)
	}
}

// TestStridePrefetchLandsAhead: once the stride is established, the
// workers derive upcoming lattice blocks before any reader demands them.
func TestStridePrefetchLandsAhead(t *testing.T) {
	s, err := New(gf8Cfg(31))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const strideBlocks = 7
	bsz := int64(s.BlockSize())
	buf := make([]byte, 32)
	// Four reads at the same jump: from the third on the jump has
	// repeated, and the stride locks in.
	var last int64
	for i := int64(0); i < 4; i++ {
		last = i * strideBlocks * bsz
		if _, err := s.ReadAt(buf, last); err != nil {
			t.Fatal(err)
		}
	}

	next := last/bsz + strideBlocks
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		bs, ok := s.blocks[next]
		derived := ok && bs.data != nil
		s.mu.Unlock()
		if derived {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("block %d never prefetched along the established stride", next)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStrideResetsOnSequential: re-reads and sequential continuation
// break an established stride — predicting the next contiguous blocks is
// the right policy again and the lattice must not linger.
func TestStrideResetsOnSequential(t *testing.T) {
	s, err := New(gf8Cfg(59))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	bsz := int64(s.BlockSize())
	buf := make([]byte, 16)
	for i := int64(0); i < 4; i++ {
		if _, err := s.ReadAt(buf, i*3*bsz); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	stride := s.ranged.stride
	s.mu.Unlock()
	if stride != 3 {
		t.Fatalf("stride of 3 blocks not established after 4 reads: stride %d", stride)
	}

	// Two sequential block reads: the jump is within the span → sequential.
	if _, err := s.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadAt(buf, bsz); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	stride = s.ranged.stride
	s.mu.Unlock()
	if stride != 0 {
		t.Fatalf("stride %d survived sequential reads", stride)
	}
}

// TestContiguousRangesPrefetchNextRange: back-to-back ranges that each
// span two blocks are one sequential reader, not a stride of two: the
// prediction must bring in both blocks of the next range, not only its
// first, before any read demands them.
func TestContiguousRangesPrefetchNextRange(t *testing.T) {
	s := newWithWorkers(t, 2)
	bsz := int64(s.BlockSize())
	buf := make([]byte, 2*bsz)
	const first = 64
	for k := int64(0); k < 4; k++ {
		if _, err := s.ReadAt(buf, (first+2*k)*bsz); err != nil {
			t.Fatal(err)
		}
	}

	next := int64(first + 2*4)
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		derived := 0
		for _, idx := range []int64{next, next + 1} {
			if bs, ok := s.blocks[idx]; ok && bs.data != nil {
				derived++
			}
		}
		s.mu.Unlock()
		if derived == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of blocks %d and %d prefetched after four contiguous two-block ranges",
				derived, next, next+1)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPrefetchNeverEvictsUnread: a prediction nobody has read yet is
// never pushed out by another prediction. The Read cursor's prefetched
// blocks must survive a random-access reader's read-ahead cycling the
// cache far away, so the cursor's next reads do not derive them again.
func TestPrefetchNeverEvictsUnread(t *testing.T) {
	const workers = 2
	s := newWithWorkers(t, workers)
	bsz := int64(s.BlockSize())
	buf := make([]byte, bsz)
	if _, err := s.Read(buf); err != nil {
		t.Fatal(err)
	}
	settle(t, s)
	for k := int64(0); k < 4*workers; k++ {
		if _, err := s.ReadAt(buf, (100+k)*bsz); err != nil {
			t.Fatal(err)
		}
		settle(t, s)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for idx := int64(1); idx <= workers; idx++ {
		if bs, ok := s.blocks[idx]; !ok || bs.data == nil {
			t.Errorf("the Read cursor's prefetched block %d was evicted before anyone read it", idx)
		}
	}
}
