package main

import (
	"errors"
	"math/rand"
	"time"

	"repro/internal/gf"
	"repro/internal/keypool"
	"repro/internal/keystream"
	"repro/internal/packet"
)

// perCall times reps batches of n calls and returns the median time per
// call. A batch cut short by keypool.ErrExhausted is run again once the
// session's refresher has had a moment (within ten seconds): a small
// pool may sit just above its low-water mark when the load stops. Any
// other failure ends the probe with its error.
func perCall(reps, n int, fn func() error) (time.Duration, error) {
	var per []float64
	deadline := time.Now().Add(10 * time.Second)
	for len(per) < reps {
		t0 := time.Now()
		var err error
		for i := 0; i < n && err == nil; i++ {
			err = fn()
		}
		switch {
		case err == nil:
			per = append(per, float64(time.Since(t0))/float64(n))
		case errors.Is(err, keypool.ErrExhausted) && time.Now().Before(deadline):
			time.Sleep(20 * time.Millisecond)
		default:
			return 0, err
		}
	}
	return time.Duration(medianOf(per)), nil
}

// runProbes times lower layers' public functions directly, after the
// traced window, each on one goroutine.
func runProbes(lv *live, in inputs) (map[string]metric, error) {
	m := make(map[string]metric)
	dst := make([]byte, drawBytes)

	// keypool: DrawInto on a pool filled beforehand.
	const poolN, poolReps = 1000, 15
	p := keypool.New()
	p.Deposit(make([]byte, drawBytes*poolN*poolReps))
	d, err := perCall(poolReps, poolN, func() error { return p.DrawInto(dst) })
	if err != nil {
		return nil, err
	}
	m["probe.keypool.drawinto_ns"] = metric{float64(d.Nanoseconds()), "ns", poolReps}

	// service: DrawInto on the workload's own session, through the
	// session's draw combiner.
	const svcN, svcReps = 40, 5
	s, err := lv.st.session(lv.sids[0])
	if err != nil {
		return nil, err
	}
	d, err = perCall(svcReps, svcN, func() error { return s.DrawInto(dst) })
	if err != nil {
		return nil, err
	}
	m["probe.service.drawinto_ns"] = metric{float64(d.Nanoseconds()), "ns", svcReps}

	// keystream: a 64 KiB ReadAt inside a cached block, on the session's
	// stream or, for pool-fed sessions, on a stream of the same shape.
	cfg := streamConfig(streamSpec(in.specs[0].Seed))
	str := s.Stream()
	if str == nil {
		if str, err = keystream.New(cfg); err != nil {
			return nil, err
		}
		defer str.Close()
	}
	buf := make([]byte, hotRange)
	off := in.firstBlock * streamBlock
	readAt := func() error { _, err := str.ReadAt(buf, off); return err }
	if err := readAt(); err != nil { // derives the block, then it is cached
		return nil, err
	}
	d, err = perCall(21, 1, readAt)
	if err != nil {
		return nil, err
	}
	m["probe.keystream.readat_hot_us"] = metric{float64(d) / 1e3, "us", 21}

	// engine, sequential: one 128 KiB block by the reference deriver.
	block := make([]byte, streamBlock)
	idx := in.firstBlock
	d, err = perCall(3, 1, func() error {
		idx++
		return keystream.ReferenceBlock(cfg, idx, block)
	})
	if err != nil {
		return nil, err
	}
	m["probe.keystream.reference_block_ms"] = metric{float64(d) / 1e6, "ms", 3}

	// packet: one round's x-payloads at the stream shape.
	rng := rand.New(rand.NewSource(in.specs[0].Seed))
	d, _ = perCall(9, 1, func() error {
		packet.NewBatch(rng, cfg.XPerRound, cfg.PayloadBytes)
		return nil
	})
	m["probe.packet.newbatch_us"] = metric{float64(d) / 1e3, "us", 9}

	// gf: GF(2^16) AddMulSlices, 4 sources of 2048 symbols.
	f := gf.GF65536()
	acc := make([]uint16, 2048)
	srcs := make([][]uint16, 4)
	cs := make([]uint16, len(srcs))
	for i := range srcs {
		srcs[i] = make([]uint16, len(acc))
		for j := range srcs[i] {
			srcs[i][j] = uint16(rng.Intn(1 << 16))
		}
		cs[i] = uint16(1 + rng.Intn(1<<16-1))
	}
	d, _ = perCall(9, 200, func() error {
		f.AddMulSlices(acc, srcs, cs)
		return nil
	})
	m["probe.gf.addmulslices_us"] = metric{float64(d) / 1e3, "us", 9}
	return m, nil
}
