package main

import (
	"math"
	"testing"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.99, 10}, {0.1, 1}, {0.11, 2}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 3 || xs[3] != 10 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{4, 9, 1}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same lists.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if got, want := spread([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if spread([]float64{7}) != 0 {
		t.Error("one value has no spread")
	}
}

// A disturbance that slows a third of a run's parts must not move calm or
// brisk; a slowdown of every part must.
func TestCalmAndBriskIgnoreAMinorityOfDisturbedParts(t *testing.T) {
	ms := []float64{1.00, 1.02, 0.99, 1.01, 1.03, 0.98, 1.00, 1.01, 1.02, 0.99, 1.01, 1.00}
	rates := make([]float64, len(ms))
	disturbedMs, disturbedRates := make([]float64, len(ms)), make([]float64, len(ms))
	for i, v := range ms {
		rates[i] = 1000 / v
		disturbedMs[i], disturbedRates[i] = v, rates[i]
		if i%3 == 0 {
			disturbedMs[i], disturbedRates[i] = 1.6*v, rates[i]/1.6
		}
	}
	if a, b := calm(ms), calm(disturbedMs); math.Abs(b-a) > 0.02*a {
		t.Errorf("calm moved from %v to %v under a disturbance of a third of the parts", a, b)
	}
	if a, b := brisk(rates), brisk(disturbedRates); math.Abs(b-a) > 0.02*a {
		t.Errorf("brisk moved from %v to %v under a disturbance of a third of the parts", a, b)
	}
	for i := range ms {
		disturbedMs[i] = 1.2 * ms[i]
	}
	if a, b := calm(ms), calm(disturbedMs); b < 1.15*a {
		t.Errorf("calm moved only from %v to %v when every part slowed by a fifth", a, b)
	}
	if ms[0] != 1.00 {
		t.Error("calm reordered its argument")
	}
}
