package keypool

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestDepositAndDraw(t *testing.T) {
	p := New()
	p.Deposit([]byte{1, 2, 3, 4, 5})
	if p.Available() != 5 {
		t.Fatalf("available = %d", p.Available())
	}
	k, err := p.Draw(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k, []byte{1, 2, 3}) {
		t.Fatalf("key = %v", k)
	}
	if p.Available() != 2 {
		t.Fatalf("available = %d", p.Available())
	}
	st := p.Stats()
	if st.Deposited != 5 || st.Drawn != 3 || st.Available != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDrawExhausted(t *testing.T) {
	p := New()
	p.Deposit([]byte{1})
	if _, err := p.Draw(2); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v", err)
	}
	if _, err := p.Draw(-1); err == nil {
		t.Fatal("negative draw accepted")
	}
	// Zero draw always succeeds.
	if k, err := p.Draw(0); err != nil || len(k) != 0 {
		t.Fatalf("zero draw: %v %v", k, err)
	}
}

func TestDepositCopies(t *testing.T) {
	p := New()
	src := []byte{9, 9}
	p.Deposit(src)
	src[0] = 1
	k, _ := p.Draw(2)
	if k[0] != 9 {
		t.Fatal("pool aliased depositor's buffer")
	}
}

func TestKeysNeverReused(t *testing.T) {
	p := New()
	p.Deposit([]byte{1, 2, 3, 4})
	a, _ := p.Draw(2)
	b, _ := p.Draw(2)
	if bytes.Equal(a, b) {
		t.Fatal("same key dispensed twice")
	}
}

func TestAutoRefill(t *testing.T) {
	calls := 0
	p := NewWithRefill(func() ([]byte, error) {
		calls++
		return []byte{byte(calls), byte(calls), byte(calls), byte(calls)}, nil
	}, 2)
	// Pool starts empty: the first draw must trigger refills.
	k, err := p.Draw(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(k) != 6 || calls < 2 {
		t.Fatalf("k=%v calls=%d", k, calls)
	}
	// Never reuse across refills: bytes come in deposit order.
	if !bytes.Equal(k, []byte{1, 1, 1, 1, 2, 2}) {
		t.Fatalf("k = %v", k)
	}
}

func TestRefillError(t *testing.T) {
	boom := fmt.Errorf("radio down")
	p := NewWithRefill(func() ([]byte, error) { return nil, boom }, 0)
	if _, err := p.Draw(1); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if st := p.Stats(); st.RefillErrors != 1 || st.Refills != 0 {
		t.Fatalf("stats = %+v", st)
	}
	empty := NewWithRefill(func() ([]byte, error) { return nil, nil }, 0)
	if _, err := empty.Draw(1); err == nil {
		t.Fatal("empty refill accepted")
	}
}

// A persistently failing RefillFunc must not turn every satisfiable draw
// into a refill attempt: after refillFailureLimit consecutive errors the
// best-effort low-water top-up goes on hold until fresh material arrives.
func TestFailingRefillDoesNotSpinDrawPath(t *testing.T) {
	calls := 0
	p := NewWithRefill(func() ([]byte, error) {
		calls++
		return nil, fmt.Errorf("radio down")
	}, 8)
	p.Deposit(make([]byte, 6)) // below the watermark from the start
	// Every draw is satisfiable from the pool but leaves it below the
	// watermark, so each would invoke the (failing) best-effort refill;
	// invocations must stop at the failure limit.
	for i := 0; i < 10; i++ {
		if _, err := p.Draw(0); err != nil {
			t.Fatal(err)
		}
	}
	if calls > refillFailureLimit {
		t.Fatalf("failing refill invoked %d times (limit %d)", calls, refillFailureLimit)
	}
	// Fresh material re-arms the top-up.
	p.Deposit(make([]byte, 2))
	if _, err := p.Draw(1); err != nil {
		t.Fatal(err)
	}
	if calls <= refillFailureLimit {
		t.Fatalf("refill not re-armed after deposit (calls = %d)", calls)
	}
	if st := p.Stats(); st.RefillErrors != int64(calls) {
		t.Fatalf("refillErrors = %d, want %d", st.RefillErrors, calls)
	}
}

func TestLowWaterSignal(t *testing.T) {
	p := New()
	p.SetLowWater(8)
	ch := p.LowWaterSignal()
	p.Deposit(make([]byte, 16))
	if _, err := p.Draw(4); err != nil { // 12 left: above watermark
		t.Fatal(err)
	}
	select {
	case <-ch:
		t.Fatal("signal above watermark")
	default:
	}
	if _, err := p.Draw(8); err != nil { // 4 left: below
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("no signal below watermark")
	}
	// Repeated low draws don't block the draw path even when nobody reads.
	for i := 0; i < 5; i++ {
		if _, err := p.Draw(0); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.LowWaterHits < 2 {
		t.Fatalf("lowWaterHits = %d", st.LowWaterHits)
	}
}

func TestZeroize(t *testing.T) {
	p := New()
	p.Deposit([]byte{1, 2, 3})
	p.Zeroize()
	if _, err := p.Draw(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	p.Deposit([]byte{9}) // dropped
	if p.Available() != 0 {
		t.Fatal("deposit after zeroize retained")
	}
	p.Zeroize() // idempotent
}

func TestDrawPad(t *testing.T) {
	p := New()
	p.Deposit([]byte{0xAA, 0xBB, 0xCC})
	plain := []byte{1, 2, 3}
	pad, ct, err := p.DrawPad(plain)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if ct[i] != plain[i]^pad[i] {
			t.Fatal("cipher wrong")
		}
	}
	// Decrypt with the pad.
	for i := range ct {
		ct[i] ^= pad[i]
	}
	if !bytes.Equal(ct, plain) {
		t.Fatal("decrypt wrong")
	}
	if _, _, err := p.DrawPad([]byte{1}); !errors.Is(err, ErrExhausted) {
		t.Fatal("pad overdraw accepted")
	}
}

func TestConcurrentDraws(t *testing.T) {
	p := New()
	material := make([]byte, 64*32)
	for i := range material {
		material[i] = byte(i)
	}
	// byte(i) is periodic with period 256 (8 chunks); stamp each 32-byte
	// chunk with its index so all chunks are distinct.
	for c := 0; c < 64; c++ {
		material[c*32] = byte(c)
		material[c*32+1] = byte(c >> 8)
	}
	p.Deposit(material)
	var mu sync.Mutex
	seen := map[string]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				k, err := p.Draw(32)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seen[string(k)] {
					t.Error("duplicate key under concurrency")
				}
				seen[string(k)] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if p.Available() != 0 {
		t.Fatalf("leftover %d", p.Available())
	}
}

// TestDrawIntoMatchesDraw pins DrawInto as the allocation-free twin of
// Draw: same bytes, same consumption, same exhaustion and closed errors.
func TestDrawIntoMatchesDraw(t *testing.T) {
	material := make([]byte, 128)
	for i := range material {
		material[i] = byte(i*13 + 1)
	}
	a, b := New(), New()
	a.Deposit(material)
	b.Deposit(material)

	dst := make([]byte, 48)
	if err := a.DrawInto(dst); err != nil {
		t.Fatal(err)
	}
	want, err := b.Draw(48)
	if err != nil {
		t.Fatal(err)
	}
	if string(dst) != string(want) {
		t.Fatal("DrawInto bytes differ from Draw")
	}
	if a.Available() != b.Available() {
		t.Fatalf("DrawInto consumed %d, Draw %d", 128-a.Available(), 128-b.Available())
	}

	big := make([]byte, 1024)
	if err := a.DrawInto(big); !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
	if a.Available() != 128-48 {
		t.Fatal("failed DrawInto consumed bytes")
	}
	a.Zeroize()
	if err := a.DrawInto(dst); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestDrawIntoAllocs(t *testing.T) {
	p := New()
	p.Deposit(make([]byte, 1<<20))
	dst := make([]byte, 64)
	run := func() {
		if err := p.DrawInto(dst); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("DrawInto allocates %v times per run, want 0", n)
	}
}
