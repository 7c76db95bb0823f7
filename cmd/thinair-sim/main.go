// Command thinair-sim runs protocol experiments and prints their metrics:
// either on a symmetric erasure channel (-erasure) or on the paper's
// 3×3-cell testbed with rotating interference (-cells). With -repeat k it
// fans k independently seeded replicas of the experiment out over the
// deterministic sweep engine (-workers goroutines) and reports aggregate
// statistics; the output is identical for every worker count.
//
// Examples:
//
//	thinair-sim -n 3 -erasure 0.4 -rounds 2
//	thinair-sim -n 4 -cells 0,2,6,8 -eve 4 -estimator loo
//	thinair-sim -n 3 -erasure 0.5 -estimator oracle -antennas 2
//	thinair-sim -n 3 -erasure 0.5 -repeat 64 -workers 8
//	thinair-sim -n 3 -erasure 0.45 -rounds 2 -trace json | jq length
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/testbed"

	thinair "repro"
)

func main() {
	var (
		n         = flag.Int("n", 3, "number of terminals")
		erasure   = flag.Float64("erasure", -1, "symmetric per-link erasure probability (mutually exclusive with -cells)")
		cells     = flag.String("cells", "", "comma-separated terminal cells (0..8) on the testbed grid")
		eveCell   = flag.Int("eve", 4, "Eve's cell when using -cells")
		rounds    = flag.Int("rounds", 3, "protocol rounds")
		xPerRound = flag.Int("x", 90, "x-packets per round")
		payload   = flag.Int("payload", 100, "payload bytes per packet (even)")
		estimator = flag.String("estimator", "loo", "estimator: loo, oracle, fixed:<delta>, ksubset:<k>")
		rotate    = flag.Bool("rotate", true, "rotate the leader role")
		antennas  = flag.Int("antennas", 1, "Eve antennas (symmetric channel only)")
		seed      = flag.Int64("seed", 1, "seed")
		repeat    = flag.Int("repeat", 1, "number of independently seeded replicas of the experiment")
		workers   = flag.Int("workers", 0, "replicas evaluated concurrently (0 = one per CPU)")
		traceOut  = flag.String("trace", "", "emit the session's span events: 'text', or 'json' — the /debug/trace array on stdout, the summary on stderr (single run only)")
	)
	flag.Parse()

	est, err := parseEstimator(*estimator)
	fatal(err)
	if *repeat > 1 && *traceOut != "" {
		fatal(fmt.Errorf("-trace requires -repeat 1"))
	}

	var log *obs.SpanLog
	if *traceOut != "" {
		// Four events per round (start, x phase, plan, outcome) plus
		// session_done: the whole session fits (-rounds 0 runs one round).
		log = obs.NewSpanLog(4*max(*rounds, 1) + 1)
	}

	var tc []thinair.Cell
	if *cells != "" {
		var err error
		tc, err = parseCells(*cells)
		fatal(err)
		if len(tc) != *n {
			fatal(fmt.Errorf("-cells lists %d cells but -n is %d", len(tc), *n))
		}
	}

	// run executes one replica; replica 0 reuses the base seed so a plain
	// single run stays byte-identical to earlier releases.
	run := func(replica int) (*thinair.SessionResult, error) {
		rs := *seed
		if replica > 0 {
			rs = sweep.Seed(*seed, replica)
		}
		switch {
		case *cells != "":
			return thinair.RunExperiment(&thinair.Experiment{
				Placement: thinair.Placement{EveCell: thinair.Cell(*eveCell), TerminalCells: tc},
				Channel:   thinair.DefaultChannel(),
				Protocol: thinair.Config{
					XPerRound: *xPerRound, PayloadBytes: *payload,
					Rounds: *rounds, Rotate: *rotate, Estimator: est, Seed: rs,
					Tracer: log,
				},
				Seed: rs + 1,
			})
		case *erasure >= 0:
			return thinair.Simulate(thinair.SimOptions{
				Terminals: *n, Erasure: *erasure, XPerRound: *xPerRound,
				PayloadBytes: *payload, Rounds: *rounds, Rotate: *rotate,
				Estimator: est, EveAntennas: *antennas, Seed: rs,
				Tracer: log,
			})
		}
		return nil, fmt.Errorf("specify either -erasure or -cells")
	}

	if *repeat > 1 {
		results, err := sweep.Run(*workers, *repeat, func(i int) (*thinair.SessionResult, error) {
			return run(i)
		})
		fatal(err)
		printAggregate(results)
		return
	}

	res, err := run(0)
	fatal(err)

	var out io.Writer = os.Stdout
	if *traceOut == "json" {
		out = os.Stderr // stdout carries only the event array
	}
	fmt.Fprintf(out, "terminals:        %d\n", *n)
	fmt.Fprintf(out, "rounds:           %d\n", len(res.Rounds))
	digest := sha256.Sum256(res.Secret)
	fmt.Fprintf(out, "secret bytes:     %d (sha256 %x…)\n", len(res.Secret), digest[:8])
	fmt.Fprintf(out, "secret packets:   %d (Eve knows nothing about %d)\n", res.SecretDims, res.UnknownDims)
	fmt.Fprintf(out, "bits transmitted: %d\n", res.BitsTransmitted)
	fmt.Fprintf(out, "efficiency:       %.4f  (%.1f secret kbps at 1 Mbps; %.1f kbps by 802.11 airtime)\n",
		res.Efficiency, res.SecretKbpsAt(testbed.ChannelBitsPerSec), res.SecretKbpsAirtime())
	fmt.Fprintf(out, "channel airtime:  %v\n", res.Airtime)
	fmt.Fprintf(out, "reliability:      %.3f  (Eve guesses a secret bit w.p. %.3f)\n", res.Reliability, core.GuessProbability(res.Reliability))
	fmt.Fprintf(out, "all agreed:       %v\n", res.AllAgreed)
	for _, ri := range res.Rounds {
		fmt.Fprintf(out, "  round %d: leader=%d pools=%d M=%d L=%d eveMiss=%.2f unknown=%d\n",
			ri.Round, ri.Leader, ri.NumClasses, ri.M, ri.L, ri.EveMissRate, ri.UnknownDims)
	}
	switch {
	case *traceOut == "json":
		fatal(obs.WriteEvents(os.Stdout, log.Recent(0)))
	case log != nil:
		fmt.Print("\ntrace:\n" + obs.RenderTrace(log.Recent(0)))
	}
}

// printAggregate summarizes a -repeat batch: per-replica one-liners plus
// the sweep-style efficiency/reliability summary.
func printAggregate(results []*thinair.SessionResult) {
	var eff, rel []float64
	noSecret := 0
	for i, r := range results {
		digest := sha256.Sum256(r.Secret)
		fmt.Printf("replica %3d: secret %4dB eff %.4f rel %6.3f key=%x…\n",
			i, len(r.Secret), r.Efficiency, r.Reliability, digest[:8])
		eff = append(eff, r.Efficiency)
		if math.IsNaN(r.Reliability) {
			noSecret++
			continue
		}
		rel = append(rel, r.Reliability)
	}
	es := stats.Summarize(eff)
	rs := stats.Summarize(rel)
	if len(rel) == 0 {
		rs.Min, rs.P50, rs.Mean = math.NaN(), math.NaN(), math.NaN()
	}
	fmt.Printf("\nreplicas:    %d (%d produced no secret)\n", len(results), noSecret)
	fmt.Printf("efficiency:  min %.4f  p50 %.4f  mean %.4f\n", es.Min, es.P50, es.Mean)
	fmt.Printf("reliability: min %.3f  p50 %.3f  mean %.3f\n", rs.Min, rs.P50, rs.Mean)
}

func parseEstimator(s string) (core.Estimator, error) {
	switch {
	case s == "loo":
		return core.LeaveOneOut{}, nil
	case s == "oracle":
		return core.Oracle{}, nil
	case strings.HasPrefix(s, "fixed:"):
		d, err := strconv.ParseFloat(strings.TrimPrefix(s, "fixed:"), 64)
		if err != nil {
			return nil, fmt.Errorf("bad fixed delta: %w", err)
		}
		return core.FixedDelta{Delta: d}, nil
	case strings.HasPrefix(s, "ksubset:"):
		k, err := strconv.Atoi(strings.TrimPrefix(s, "ksubset:"))
		if err != nil {
			return nil, fmt.Errorf("bad k: %w", err)
		}
		return core.KSubset{K: k}, nil
	}
	return nil, fmt.Errorf("unknown estimator %q", s)
}

func parseCells(s string) ([]thinair.Cell, error) {
	var out []thinair.Cell
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad cell %q: %w", part, err)
		}
		out = append(out, thinair.Cell(v))
	}
	return out, nil
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "thinair-sim:", err)
		os.Exit(1)
	}
}
