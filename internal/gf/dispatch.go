package gf

import "sync/atomic"

// Dispatch counting is the observability hook on the batched GF entry
// points: how many bulk combinations ran, and how many of them reached
// an arch strip kernel versus the portable per-term route. It is OFF by
// default and gated on one atomic load per *batched call* (never per
// element, never inside AddMulSlice), so the blocking kernel bench gate
// in CI — which runs with counting off — sees no new work at all.
var (
	dispatchCounting    atomic.Bool
	dispatchSlices      atomic.Uint64
	dispatchSlicesFused atomic.Uint64
)

// SetDispatchCounting turns kernel dispatch counting on or off
// process-wide.
func SetDispatchCounting(on bool) { dispatchCounting.Store(on) }

// DispatchCounts is a snapshot of the dispatch counters.
type DispatchCounts struct {
	// AddMulSlices counts batched multi-term combinations: AddMulSlices
	// and AddMulBE16 calls.
	AddMulSlices uint64
	// AddMulSlicesFused counts the subset routed to arch strip kernels.
	AddMulSlicesFused uint64
}

// ReadDispatchCounts returns the current counter values (zeros while
// counting has never been enabled).
func ReadDispatchCounts() DispatchCounts {
	return DispatchCounts{
		AddMulSlices:      dispatchSlices.Load(),
		AddMulSlicesFused: dispatchSlicesFused.Load(),
	}
}

func countDispatch(c *atomic.Uint64) {
	if dispatchCounting.Load() {
		c.Add(1)
	}
}
