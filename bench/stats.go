package main

import (
	"fmt"
	"math"
	"slices"
)

// rank is the nearest-rank index of the q-quantile in n sorted samples.
// The small tolerance keeps q*n from rounding up past an exact rank
// (0.99*1000 is 990.0000000000001 in floating point).
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// percentile returns the q-quantile of sorted samples by nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

// tailPercentile picks the highest of p99 and p90 that has at least ten
// samples beyond it, so a tail is never read off a handful of samples.
// With fewer than 100 samples it falls back to the median.
func tailPercentile(n int) (q float64, label string) {
	for _, q := range []float64{0.99, 0.90} {
		if n-1-rank(n, q) >= 10 {
			return q, fmt.Sprintf("p%g", q*100)
		}
	}
	return 0.5, "p50"
}

// quartiles returns the first quartile, the median and the third
// quartile by the same rule as Python's statistics.quantiles(values,
// n=4) (the default "exclusive" method), so spreads read the same here
// as in any Python check of the same values.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// ratio is a/b, or 0 when b is 0, so a counter that did not move reads
// as 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOf is the median of values.
func medianOf(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
