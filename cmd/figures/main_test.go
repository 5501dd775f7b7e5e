package main

import (
	"bytes"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestShortDur holds Fig. 6's indexing-time cells to the rounded
// duration, digits and unit intact.
func TestShortDur(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{150 * time.Millisecond, "150ms"},
		{20 * time.Millisecond, "20ms"},
		{15 * time.Millisecond, "15ms"},
		{15400 * time.Microsecond, "15ms"},
		{0, "0s"},
		{1500 * time.Millisecond, "1.5s"},
	} {
		if got := shortDur(tc.d); got != tc.want {
			t.Errorf("shortDur(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestDefaultKsDistinct holds the k sweep of Figs. 4 and 5 to strictly
// increasing values: a small database must not evaluate one k several
// times, and the paper-scale sweep keeps its five points.
func TestDefaultKsDistinct(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want []int
	}{
		{1, []int{1}},
		{20, []int{1, 2}},
		{150, []int{3, 6, 9, 12, 15}},
		{1000, []int{20, 40, 60, 80, 100}},
	} {
		if got := defaultKs(tc.n); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("defaultKs(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := midK(20); got != 1 {
		t.Errorf("midK(20) = %d, want 1", got)
	}
	if got := midK(150); got != 9 {
		t.Errorf("midK(150) = %d, want 9", got)
	}
}

// TestEveryTableStatesP holds every table that prints an algorithm's
// quality or cost to also print how many dimensions the algorithm
// selected, so "more dimensions" reads apart from "better dimensions".
func TestEveryTableStatesP(t *testing.T) {
	series := []experiments.AlgoSeries{
		{Name: "DSPM", Selected: make([]int, 7), ByK: map[int]experiments.Quality{2: {}}},
		{Name: "Original", Selected: make([]int, 31), ByK: map[int]experiments.Quality{2: {}}},
	}
	var buf bytes.Buffer
	experiments.WriteSeries(&buf, "Fig 4", series, []int{2})
	writeFig6(&buf, []experiments.Fig6Row{{Edges: 12, Candidates: 31, Series: series}}, 2)
	writeFig9(&buf, []experiments.Fig9Point{{
		N:              60,
		Precision:      map[string]float64{"DSPMap": 1, "NDFS": 0.5},
		IndexingByAlgo: map[string]time.Duration{},
		DimsByAlgo:     map[string]int{"DSPMap": 7, "NDFS": 13},
	}})
	writeFig1(&buf, &experiments.Fig1Result{}, 7, 31, experiments.Exactness{})
	writeFig7(&buf, &experiments.Fig7Result{}, 7, 31, experiments.Exactness{})
	writeFig8(&buf, nil, 7, experiments.Exactness{})
	for _, want := range []*regexp.Regexp{
		regexp.MustCompile(`(?m)^algorithm +p +indexing`),
		regexp.MustCompile(`(?m)^DSPM +7 `),
		regexp.MustCompile(`(?m)^Original +31 `),
		regexp.MustCompile(`(?m)^ +edges=12 +31 +0\.00/0s/7 +0\.00/0s/31$`),
		regexp.MustCompile(`(?m)^  DSPMap +p=7 `),
		regexp.MustCompile(`(?m)^  NDFS +p=13 `),
		regexp.MustCompile(`(?m)^== Fig 1: .*\(DSPM p=7, Original p=31\) ==$`),
		regexp.MustCompile(`(?m)^== Fig 7: .*\(DSPM p=7, Original p=31\) ==$`),
		regexp.MustCompile(`(?m)^== Fig 8: .*\(DSPMap and DSPM p=7\) ==$`),
	} {
		if !want.Match(buf.Bytes()) {
			t.Errorf("no line matches %s in:\n%s", want, buf.String())
		}
	}
}

// TestEveryTableStatesExactness holds every table to close with the share
// of its MCS truth proven exact — truth pairs and δ-matrix pairs — summed
// over the data sets of a figure that builds several.
func TestEveryTableStatesExactness(t *testing.T) {
	e := experiments.Exactness{TruthPairs: 6000, TruthExact: 1056, DeltaPairs: 10, DeltaExact: 10}
	series := []experiments.AlgoSeries{{Name: "DSPM", Selected: make([]int, 7), ByK: map[int]experiments.Quality{2: {}}}}
	var buf bytes.Buffer
	writeFig1(&buf, &experiments.Fig1Result{}, 7, 31, e)
	writeFig6(&buf, []experiments.Fig6Row{{Edges: 12, Series: series, Exact: e}, {Edges: 16, Series: series, Exact: e}}, 2)
	writeFig7(&buf, &experiments.Fig7Result{}, 7, 31, e)
	writeFig8(&buf, nil, 7, e)
	writeFig9(&buf, []experiments.Fig9Point{{N: 60, Exact: e}})
	const one = "MCS proven exact: truth pairs 17.6% (1056 of 6000), δ-matrix pairs 100.0% (10 of 10)\n\n"
	const two = "MCS proven exact: truth pairs 17.6% (2112 of 12000), δ-matrix pairs 100.0% (20 of 20)\n\n"
	if got, want := strings.Count(buf.String(), one), 4; got != want {
		t.Errorf("%d tables close with %q, want %d:\n%s", got, one, want, buf.String())
	}
	if !strings.Contains(buf.String(), two) {
		t.Errorf("Fig 6 does not close with the sum over its rows %q:\n%s", two, buf.String())
	}
}
