// Command thinair-bench regenerates the paper's evaluation as text tables:
// Figure 1 (efficiency vs erasure probability), Figure 2 (reliability vs
// group size on the testbed), the n = 8 headline numbers, the §3.2
// rotation worst-case check, and the design ablations.
//
// Usage:
//
//	thinair-bench -figure 1            # analytic curves + Monte-Carlo check
//	thinair-bench -figure 2            # full placement sweep (slow) …
//	thinair-bench -figure 2 -quick     # … or subsampled placements
//	thinair-bench -headline
//	thinair-bench -rotation
//	thinair-bench -ablation estimators|allocation|interference|rotation
//	thinair-bench -all -quick
//	thinair-bench -gf-json BENCH_gf.json           # GF kernel matrix as JSON
//	thinair-bench -obs-json BENCH_obs.json         # instrumented vs stripped draw path
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/figures"
)

func main() {
	var (
		figure    = flag.Int("figure", 0, "regenerate figure 1 or 2")
		headline  = flag.Bool("headline", false, "regenerate the n=8 headline numbers")
		rotation  = flag.Bool("rotation", false, "run the §3.2 rotation worst-case check")
		ablation  = flag.String("ablation", "", "run an ablation: estimators, allocation, interference, rotation, selfjam, burstiness, cancelling-eve")
		gfJSON    = flag.String("gf-json", "", "run the GF kernel benchmark matrix and write the results as JSON to this file")
		obsJSON   = flag.String("obs-json", "", "run the observability overhead benchmark and write the results as JSON to this file")
		gateJSON  = flag.String("gate-json", "", "run the gate concurrency benchmark and write the results as JSON to this file")
		gateConns = flag.Int("gate-conns", 100000, "concurrent mock gate connections for -gate-json")
		all       = flag.Bool("all", false, "run everything")
		quick     = flag.Bool("quick", false, "subsample placements for a fast run")
		seed      = flag.Int64("seed", 11, "experiment seed")
		n         = flag.Int("n", 5, "group size for ablations and the rotation check")
		workers   = flag.Int("workers", 0, "experiments evaluated concurrently (0 = one per CPU); output is identical for any value")
	)
	flag.Parse()

	opt := figures.Fig2Options{Seed: *seed, Workers: *workers}
	if *quick {
		opt.MaxPlacements = 24
	}

	ran := false
	if *gfJSON != "" {
		ran = true
		gfBench(*gfJSON)
	}
	if *obsJSON != "" {
		ran = true
		obsBench(*obsJSON)
	}
	if *gateJSON != "" {
		ran = true
		gateBench(*gateJSON, *gateConns)
	}
	if *all || *figure == 1 {
		ran = true
		fig1(*workers)
	}
	if *all || *figure == 2 {
		ran = true
		fig2(opt)
	}
	if *all || *headline {
		ran = true
		head(opt)
	}
	if *all || *rotation {
		ran = true
		rotate(*n, opt)
	}
	if *all {
		for _, a := range []string{"estimators", "allocation", "interference", "rotation", "selfjam", "burstiness", "cancelling-eve"} {
			ablate(a, *n, opt)
		}
		ran = true
	} else if *ablation != "" {
		ablate(*ablation, *n, opt)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func fig1(workers int) {
	curves := figures.Figure1([]int{2, 3, 6, 10, 0}, 20)
	fmt.Println(figures.FormatFigure1(curves))
	fmt.Println(figures.PlotFigure1(curves, 64, 14))
	pts := figures.Figure1MonteCarlo([]int{2, 3, 6}, []float64{0.3, 0.5, 0.7}, 200, 8, workers, 101)
	fmt.Println(figures.FormatFigure1MC(pts))
}

func fig2(opt figures.Fig2Options) {
	rows, err := figures.Figure2(opt)
	fatal(err)
	fmt.Println(figures.FormatFigure2(rows))
	fmt.Println(figures.PlotFigure2(rows, 48, 12))
}

func head(opt figures.Fig2Options) {
	h, err := figures.Headline(opt)
	fatal(err)
	fmt.Println(figures.FormatHeadline(h))
}

func rotate(n int, opt figures.Fig2Options) {
	with, err := figures.RotationCheck(n, true, opt)
	fatal(err)
	without, err := figures.RotationCheck(n, false, opt)
	fatal(err)
	fmt.Println(figures.FormatRotation(with, without))
}

func ablate(kind string, n int, opt figures.Fig2Options) {
	var (
		rows []figures.AblationRow
		err  error
	)
	switch kind {
	case "estimators":
		rows, err = figures.AblationEstimators(n, opt)
	case "allocation":
		rows, err = figures.AblationAllocation(n, opt)
	case "interference":
		rows, err = figures.AblationInterference(n, opt)
	case "rotation":
		rows, err = figures.AblationRotation(n, opt)
	case "selfjam":
		rows, err = figures.AblationSelfJam(n, opt)
	case "burstiness":
		sessions := 60
		if opt.MaxPlacements > 0 {
			sessions = 20
		}
		rows, err = figures.AblationBurstiness(n, sessions, opt.Workers, opt.Seed)
	case "cancelling-eve":
		rows, err = figures.AblationCancellingEve(n, opt)
	default:
		fatal(fmt.Errorf("unknown ablation %q", kind))
	}
	fatal(err)
	fmt.Println(figures.FormatAblation(kind, rows))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "thinair-bench:", err)
		os.Exit(1)
	}
}
