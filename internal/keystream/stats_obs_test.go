package keystream

import (
	"testing"

	"repro/internal/obs"
)

// The cache and member-health counters added for observability must agree
// between Stats() (the JSON wire form served by the daemon) and the obs
// registry (the /metrics form), and must actually classify acquisitions:
// a re-read of a resident block is a hit, eviction pressure is counted.
func TestCacheCountersInStatsAndRegistry(t *testing.T) {
	const blockSize = 4 << 10
	reg := obs.New()
	s, err := New(Config{
		Terminals: 2, XPerRound: 4, PayloadBytes: 4,
		Seed:        9,
		BlockSize:   blockSize,
		CacheBlocks: 2, // tiny cache: a 6-block sweep must evict
		Window:      1,
		Source:      XOFSource8(9),
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	buf := make([]byte, blockSize)
	// Sweep six blocks (misses + evictions), then re-read block 5, which
	// is still resident (a hit).
	for i := int64(0); i < 6; i++ {
		if _, err := s.ReadAt(buf, i*blockSize); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ReadAt(buf, 5*blockSize); err != nil {
		t.Fatal(err)
	}
	// Stop the prefetcher before reading either view: it may still evict
	// a block, and one landing between the two reads would split them.
	s.Close()

	st := s.Stats()
	// Seven single-block acquisitions total; the prefetcher decides how
	// many were already resident, but every one is exactly one of the two.
	if st.CacheHits+st.CacheMisses != 7 {
		t.Errorf("hits(%d) + misses(%d) = %d, want 7 (one per acquisition)",
			st.CacheHits, st.CacheMisses, st.CacheHits+st.CacheMisses)
	}
	if st.CacheMisses < 1 {
		t.Errorf("CacheMisses = %d, want >= 1", st.CacheMisses)
	}
	if st.CacheHits < 1 {
		t.Errorf("CacheHits = %d, want >= 1", st.CacheHits)
	}
	if st.CacheEvictions < 1 {
		t.Errorf("CacheEvictions = %d, want >= 1", st.CacheEvictions)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"thinaird_keystream_cache_hits_total":      st.CacheHits,
		"thinaird_keystream_cache_misses_total":    st.CacheMisses,
		"thinaird_keystream_cache_evictions_total": st.CacheEvictions,
	} {
		if got := snap.Total(name); got != float64(want) {
			t.Errorf("%s = %v, want %d (same as Stats)", name, got, want)
		}
	}
	if snap.Total("thinaird_keystream_block_derive_seconds") < 6 {
		t.Errorf("block derive histogram count = %v, want >= 6",
			snap.Total("thinaird_keystream_block_derive_seconds"))
	}
}

// memberHealth's lifetime totals must track per-member skip bookkeeping:
// an unhealthy member accrues skips, and every healthProbeEvery-th skip
// is a re-probe.
func TestMemberHealthTotals(t *testing.T) {
	h := newMemberHealth(2)
	for i := 0; i < healthMissLimit; i++ {
		h.miss(1)
	}
	for i := 0; i < 2*healthProbeEvery; i++ {
		h.shouldWait(1)
	}
	h.shouldWait(0) // healthy member: no skip
	skips, probes := h.totals()
	if skips != 2*healthProbeEvery {
		t.Errorf("skips = %d, want %d", skips, 2*healthProbeEvery)
	}
	if probes != 2 {
		t.Errorf("probes = %d, want 2", probes)
	}
	h.ok(1)
	if !h.shouldWait(1) {
		t.Error("recovered member should be waited on again")
	}
	if s2, _ := h.totals(); s2 != skips {
		t.Errorf("healthy wait moved skip total: %d -> %d", skips, s2)
	}
}
