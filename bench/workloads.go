package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/gate"
	"repro/internal/keystream"
	"repro/internal/service"
)

// Stream-fed session shape shared by draw-32B and both range workloads:
// 128 KiB keystream blocks, a pool filled to 4 MiB at set-up.
const (
	streamBlock = 128 << 10
	coldRange   = 256 << 10
	hotRange    = 64 << 10
	drawBytes   = 32
)

func streamSpec(seed int64) service.SessionSpec {
	return service.SessionSpec{
		Name:         "bench-stream",
		Terminals:    3,
		Erasure:      0.45,
		XPerRound:    128,
		PayloadBytes: 4096,
		StreamBlock:  streamBlock,
		LowWater:     256 << 10,
		TargetDepth:  4 << 20,
		Streamed:     true,
		Seed:         seed,
	}
}

// udpSpec is a default cluster session: UDP bus, lockstep refresh, pool-fed.
func udpSpec(seed int64) service.SessionSpec {
	return service.SessionSpec{
		Name:         "bench-udp",
		Terminals:    3,
		Erasure:      0.45,
		XPerRound:    90,
		PayloadBytes: 16,
		Rounds:       2,
		LowWater:     4 << 10,
		TargetDepth:  16 << 10,
		Seed:         seed,
	}
}

// streamConfig is the keystream configuration a stream-fed session with
// this spec derives its bytes from; keystream.ReferenceBlock recomputes
// any block of it.
func streamConfig(spec service.SessionSpec) keystream.Config {
	return keystream.Config{
		Terminals:    spec.Terminals,
		XPerRound:    spec.XPerRound,
		PayloadBytes: spec.PayloadBytes,
		Erasure:      spec.Erasure,
		Seed:         spec.Seed,
		Rotate:       spec.Rotate,
		BlockSize:    spec.StreamBlock,
	}
}

// inputs is everything a workload's load depends on, made from the seed.
// The program under test sees only these.
type inputs struct {
	specs []service.SessionSpec
	// firstBlock is where the range workloads start reading: a block at
	// or beyond 64 MiB, far past what set-up derives for the pool.
	firstBlock int64
}

func makeInputs(wl *workload, seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{firstBlock: 512 + rng.Int63n(1024)}
	for range wl.sessions {
		in.specs = append(in.specs, wl.spec(rng.Int63()))
	}
	return in
}

// workload is one named load. Every workload is a closed loop from this
// process: each caller owns one gate connection and sends its next
// request when the previous one has returned.
type workload struct {
	name string
	why  string
	// callers is the number of closed-loop callers (and connections);
	// sessions the number of cluster sessions, each made by spec.
	callers  int
	sessions int
	spec     func(seed int64) service.SessionSpec
	// opBytes is the key material one successful operation delivers.
	opBytes int
	newLoad func(in inputs, sids []uint64) load
}

// load issues one workload's operations and records what verification
// needs. op is called by caller i only, so per-caller state needs no lock.
type load interface {
	op(ctx context.Context, i int, c *gate.Client, tr *tracer) error
	// reserve sizes per-caller records for about n more operations each,
	// so recording does not allocate inside the measured window.
	reserve(n int)
	verify(in inputs) error
}

var workloads = []*workload{
	{
		name:     "draw-32B",
		why:      "Per-request path: gate framing, owner cache, /ctl HTTP, worker handler, the service draw combiner and keypool; derivation stays off the critical path.",
		callers:  2,
		sessions: 1,
		spec:     streamSpec,
		opBytes:  drawBytes,
		newLoad: func(_ inputs, sids []uint64) load {
			return newDrawLoad(sids, 2, false)
		},
	},
	{
		name:     "range-cold-256K",
		why:      "Every byte derived on demand: keystream pipeline, engine rounds, packet/matrix/gf; RPC layers are a few percent, so engine and gf changes show here.",
		callers:  1,
		sessions: 1,
		spec:     streamSpec,
		opBytes:  coldRange,
		newLoad: func(in inputs, sids []uint64) load {
			return &coldLoad{session: sids[0], start: in.firstBlock * streamBlock}
		},
	},
	{
		name:     "range-hot-64K",
		why:      "Same keystream, all cache hits: gate chunking and body copies with no derivation; an engine change should not move it, a copy change should.",
		callers:  1,
		sessions: 1,
		spec:     streamSpec,
		opBytes:  hotRange,
		newLoad: func(in inputs, sids []uint64) load {
			return &hotLoad{session: sids[0], base: in.firstBlock * streamBlock}
		},
	},
	{
		name:     "keygen-udp",
		why:      "The key producer is the bottleneck: two UDP lockstep sessions refilling small pools, so draws measure the paper's secret rate and race refills.",
		callers:  2,
		sessions: 2,
		spec:     udpSpec,
		opBytes:  drawBytes,
		newLoad: func(_ inputs, sids []uint64) load {
			return newDrawLoad(sids, 2, true)
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// drawLoad draws 32-byte keys; caller i draws from sessions[i mod len].
type drawLoad struct {
	sessions []uint64
	// retry makes ErrExhausted a wait-and-retry (1 ms) instead of a
	// failure: the operation is "obtain 32 bytes".
	retry bool

	keys      [][][2]uint64 // per caller: the first 16 bytes of each key
	bad       []int         // per caller: keys of the wrong length or all zero
	attempts  []int64       // per caller: draw calls made
	exhausted []int64       // per caller: ErrExhausted answers
}

func newDrawLoad(sids []uint64, callers int, retry bool) *drawLoad {
	return &drawLoad{
		sessions:  sids,
		retry:     retry,
		keys:      make([][][2]uint64, callers),
		bad:       make([]int, callers),
		attempts:  make([]int64, callers),
		exhausted: make([]int64, callers),
	}
}

func (l *drawLoad) op(ctx context.Context, i int, c *gate.Client, tr *tracer) error {
	sid := l.sessions[i%len(l.sessions)]
	for {
		var key []byte
		err := tr.call(ctx, func(ctx context.Context) (err error) {
			key, err = c.Draw(ctx, sid, drawBytes)
			return err
		})
		l.attempts[i]++
		if err == nil {
			l.note(i, key)
			return nil
		}
		if !l.retry || !errors.Is(err, client.ErrExhausted) {
			return err
		}
		l.exhausted[i]++
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// note records one drawn key: its length and non-zero checks now, its
// 16-byte prefix for the repeat check after the run.
func (l *drawLoad) note(i int, key []byte) {
	var k [16]byte
	copy(k[:], key)
	if len(key) != drawBytes || allZero(key) {
		l.bad[i]++
	}
	l.keys[i] = append(l.keys[i], [2]uint64{binary.LittleEndian.Uint64(k[:8]), binary.LittleEndian.Uint64(k[8:])})
}

func (l *drawLoad) reserve(n int) {
	for i := range l.keys {
		l.keys[i] = slices.Grow(l.keys[i], n)
	}
}

// verify checks that every key had 32 bytes and was not all zero, and
// that no key was served twice. Keys are compared by their first 16
// bytes: distinct prefixes imply distinct keys, and two distinct random
// keys share a 16-byte prefix with probability 2^-128.
func (l *drawLoad) verify(inputs) error {
	var all [][2]uint64
	for i := range l.keys {
		if l.bad[i] > 0 {
			return fmt.Errorf("caller %d received %d keys of the wrong length or all zero", i, l.bad[i])
		}
		all = append(all, l.keys[i]...)
	}
	if len(all) == 0 {
		return errors.New("no keys drawn")
	}
	slices.SortFunc(all, func(a, b [2]uint64) int { return slices.Compare(a[:], b[:]) })
	for k := 1; k < len(all); k++ {
		if all[k] == all[k-1] {
			return fmt.Errorf("a key was served twice (prefix %016x%016x)", all[k][0], all[k][1])
		}
	}
	return nil
}

func (l *drawLoad) totals() (attempts, exhausted int64) {
	for i := range l.attempts {
		attempts += l.attempts[i]
		exhausted += l.exhausted[i]
	}
	return attempts, exhausted
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// rangeSum is a recorded range: where it was read and what came back.
type rangeSum struct {
	off int64
	n   int
	sum [32]byte
}

func sumRange(off int64, b []byte) rangeSum {
	return rangeSum{off: off, n: len(b), sum: sha256.Sum256(b)}
}

// coldSampleEvery is how often a cold range is kept for verification:
// the first, every 16th and the last are recomputed after the run.
const coldSampleEvery = 16

// coldLoad reads 256 KiB ranges at strictly fresh, contiguous forward
// offsets, block-aligned, so each range is two blocks never read before.
type coldLoad struct {
	session uint64
	start   int64
	next    int64 // index of the next range

	sampled []rangeSum
	lastOff int64
	last    []byte
}

func (l *coldLoad) op(ctx context.Context, _ int, c *gate.Client, tr *tracer) error {
	idx := l.next
	l.next++
	off := l.start + idx*coldRange
	var buf []byte
	err := tr.call(ctx, func(ctx context.Context) (err error) {
		buf, err = c.StreamRange(ctx, l.session, off, coldRange)
		return err
	})
	if err != nil {
		return err
	}
	if idx%coldSampleEvery == 0 {
		l.sampled = append(l.sampled, sumRange(off, buf))
	}
	l.lastOff, l.last = off, buf
	return nil
}

func (l *coldLoad) reserve(n int) {
	l.sampled = slices.Grow(l.sampled, n/coldSampleEvery+1)
}

func (l *coldLoad) verify(in inputs) error {
	if l.last == nil {
		return errors.New("no range read")
	}
	recs := append(slices.Clone(l.sampled), sumRange(l.lastOff, l.last))
	return verifyRanges(streamConfig(in.specs[0]), recs)
}

// hotLoad cycles four 64 KiB ranges that tile two blocks; after the
// first cycle every read is a cache hit.
type hotLoad struct {
	session uint64
	base    int64
	next    int
	last    [4][]byte // the latest bytes read from each range
}

func (l *hotLoad) op(ctx context.Context, _ int, c *gate.Client, tr *tracer) error {
	k := l.next % len(l.last)
	l.next++
	var buf []byte
	err := tr.call(ctx, func(ctx context.Context) (err error) {
		buf, err = c.StreamRange(ctx, l.session, l.base+int64(k)*hotRange, hotRange)
		return err
	})
	if err != nil {
		return err
	}
	l.last[k] = buf
	return nil
}

func (l *hotLoad) reserve(int) {}

func (l *hotLoad) verify(in inputs) error {
	var recs []rangeSum
	for k, b := range l.last {
		if b == nil {
			return fmt.Errorf("hot range %d never read", k)
		}
		recs = append(recs, sumRange(l.base+int64(k)*hotRange, b))
	}
	return verifyRanges(streamConfig(in.specs[0]), recs)
}

// verifyRanges recomputes each recorded range with keystream.ReferenceBlock
// — the sequential oracle, no bus and no pipeline — and reports every
// mismatch. Ranges are checked in parallel on GOMAXPROCS goroutines.
func verifyRanges(cfg keystream.Config, recs []rangeSum) error {
	bs := int64(cfg.BlockSize)
	errs := make([]error, len(recs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, r := range recs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			first, last := r.off/bs, (r.off+int64(r.n)-1)/bs
			ref := make([]byte, (last-first+1)*bs)
			for b := first; b <= last; b++ {
				if err := keystream.ReferenceBlock(cfg, b, ref[(b-first)*bs:(b-first+1)*bs]); err != nil {
					errs[i] = err
					return
				}
			}
			lo := r.off - first*bs
			if sha256.Sum256(ref[lo:lo+int64(r.n)]) != r.sum {
				errs[i] = fmt.Errorf("range [%d, %d) differs from the reference derivation", r.off, r.off+int64(r.n))
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
