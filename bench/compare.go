package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// workloads and each metric's unit, direction and regression bound.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// comparison is one metric on one workload across two sets of runs.
type comparison struct {
	a, b    [3]float64 // first quartile, median, third quartile
	change  float64    // (median b - median a) / median a
	spread  float64    // the wider side's quartile distance over its median
	verdict string
}

// compareRuns judges side b against side a for a metric with the given
// direction and bound. The spread of either side exceeding the bound
// leaves the verdict unresolved, unless every run of one side beats
// every run of the other; otherwise a median change beyond the bound is
// better or worse, and anything within it unchanged.
func compareRuns(a, b []float64, higherBetter bool, bound float64) comparison {
	var c comparison
	c.a[0], c.a[1], c.a[2] = quartiles(a)
	c.b[0], c.b[1], c.b[2] = quartiles(b)
	c.change = ratio(c.b[1]-c.a[1], math.Abs(c.a[1]))
	c.spread = max(ratio(c.a[2]-c.a[0], math.Abs(c.a[1])), ratio(c.b[2]-c.b[0], math.Abs(c.b[1])))
	gain := c.change
	if !higherBetter {
		gain = -gain
	}
	bBeatsAll := slices.Min(b) > slices.Max(a)
	aBeatsAll := slices.Max(b) < slices.Min(a)
	if !higherBetter {
		bBeatsAll, aBeatsAll = aBeatsAll, bBeatsAll
	}
	switch {
	case c.spread > bound && bBeatsAll:
		c.verdict = "better"
	case c.spread > bound && aBeatsAll:
		c.verdict = "worse"
	case c.spread > bound:
		c.verdict = "unresolved"
	case gain > bound:
		c.verdict = "better"
	case gain < -bound:
		c.verdict = "worse"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// loadSide collects, per workload and metric, the values of a set of
// result files.
func loadSide(paths []string) (map[string]map[string][]float64, error) {
	out := make(map[string]map[string][]float64)
	for _, p := range paths {
		res, err := readResult(p)
		if err != nil {
			return nil, err
		}
		for wl, rec := range res.Workloads {
			if out[wl] == nil {
				out[wl] = make(map[string][]float64)
			}
			for k, m := range rec.Metrics {
				out[wl][k] = append(out[wl][k], m.Value)
			}
		}
	}
	return out, nil
}

// runCompare prints, for every end-to-end metric on every workload, both
// sides' quartiles and the verdict for side b against side a, then the
// per-layer metrics both sides recorded. It reports whether any verdict
// was worse.
func runCompare(aPaths, bPaths []string, specPath string, w io.Writer) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadSide(aPaths)
	if err != nil {
		return false, err
	}
	b, err := loadSide(bPaths)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %d runs, B: %d runs; values are median [q1, q3]\n", len(aPaths), len(bPaths))
	fmt.Fprintf(w, "%-16s %-16s %-32s %-32s %8s %7s %7s  %s\n",
		"workload", "metric", "A", "B", "change", "spread", "bound", "verdict")
	worse := false
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			av, bv := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "%-16s %-16s missing on one side\n", wl.Name, m.Name)
				continue
			}
			c := compareRuns(av, bv, m.Better == "higher", m.Bound)
			worse = worse || c.verdict == "worse"
			fmt.Fprintf(w, "%-16s %-16s %-32s %-32s %+7.2f%% %6.2f%% %6.2f%%  %s\n",
				wl.Name, m.Name, quartileText(c.a), quartileText(c.b),
				100*c.change, 100*c.spread, 100*m.Bound, c.verdict)
		}
		// Per-layer metrics have no bound: their change and spread are
		// shown for reading, without a verdict.
		for _, m := range spec.PerLayer {
			av, bv := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			c := compareRuns(av, bv, m.Better == "higher", math.Inf(1))
			fmt.Fprintf(w, "%-16s %-16s %-32s %-32s %+7.2f%% %6.2f%% %7s  -\n",
				wl.Name, m.Name, quartileText(c.a), quartileText(c.b), 100*c.change, 100*c.spread, "-")
		}
	}
	return worse, nil
}

func quartileText(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
