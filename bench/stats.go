package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle of xs (mean of the two middles for an even
// count) without reordering the caller's slice; 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// calm and brisk are how a run condenses the samples of one timing. On a
// shared host a program is disturbed in one direction only — another
// tenant makes it slower, never faster — and for seconds at a time. So a
// run cuts each timed phase into parts (slices of a window, chunks of a
// burst, repetitions of a set-up), takes each part's own median or rate,
// and reports the quartile on the undisturbed side: the lower one of
// durations (calm), the upper one of rates (brisk). A change to the program
// moves every part alike and so moves the quartile; a disturbance that
// covers less than three quarters of the run does not.
func calm(xs []float64) float64  { return percentile(sortedCopy(xs), 0.25) }
func brisk(xs []float64) float64 { return percentile(sortedCopy(xs), 0.75) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method) —
// the rule the two-set agreement check is stated in. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — how far
// repeated runs of one commit disagree. Fewer than two values have none.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
