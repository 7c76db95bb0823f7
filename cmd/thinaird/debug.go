package main

import (
	"fmt"
	"net"
	"net/http"

	"repro/internal/gf"
	"repro/internal/obs"
)

// enableDebug mounts the opt-in debug surface (pprof, /debug/trace,
// /metrics, /metrics.json) on its own listener so profiling and trace
// inspection never share a port — or a failure domain — with the public
// API. It also switches on GF kernel dispatch counting and exports the
// counters, since a process with a debug listener has asked to be
// looked at. Returns a stop function.
func enableDebug(addr string, r *obs.Registry, spans *obs.SpanLog) func() {
	gf.SetDispatchCounting(true)
	r.CounterFunc("thinaird_gf_addmulslices_dispatch_total",
		"Batched multi-term GF combinations dispatched.",
		func() float64 { return float64(gf.ReadDispatchCounts().AddMulSlices) })
	r.CounterFunc("thinaird_gf_addmulslices_fused_dispatch_total",
		"Batched GF combinations routed to arch strip kernels.",
		func() float64 { return float64(gf.ReadDispatchCounts().AddMulSlicesFused) })

	ln, err := net.Listen("tcp", addr)
	fatal(err)
	srv := &http.Server{Handler: obs.DebugMux(r, spans)}
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("thinaird: debug surface on http://%s/debug/pprof/\n", listenHostPort(ln))
	return func() { _ = srv.Close() }
}
