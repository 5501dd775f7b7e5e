package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/mcs"
	"repro/internal/topk"
)

// tiny returns a fast-to-build harness configuration for integration
// tests. Everything downstream (figures, benches) runs on this shape.
// The feature set must keep the anti-monotone redundancy of real frequent
// subgraph sets (low tau, pattern depth) or the Original/Sample baselines
// become artificially strong and the paper's ordering disappears.
func tiny() Config {
	return Config{
		DBSize:      60,
		QueryCount:  12,
		Tau:         0.05,
		MaxEdges:    6,
		MCSBudget:   1500,
		BaselineCap: 150,
		Seed:        1,
	}
}

var chemCache *Dataset

func chemDS(t *testing.T) *Dataset {
	t.Helper()
	if chemCache != nil {
		return chemCache
	}
	ds, err := BuildChemical(tiny())
	if err != nil {
		t.Fatalf("BuildChemical: %v", err)
	}
	chemCache = ds
	return ds
}

func TestBuildChemicalShape(t *testing.T) {
	ds := chemDS(t)
	if len(ds.DB) != 60 || len(ds.Queries) != 12 {
		t.Fatalf("dataset shape wrong: %d db, %d queries", len(ds.DB), len(ds.Queries))
	}
	if ds.Index.P == 0 {
		t.Fatalf("no candidate features mined")
	}
	if len(ds.Delta) != 60 {
		t.Fatalf("delta matrix wrong size")
	}
	for i := range ds.Delta {
		if ds.Delta[i][i] != 0 {
			t.Errorf("delta diagonal not zero at %d", i)
		}
		for j := range ds.Delta {
			if ds.Delta[i][j] != ds.Delta[j][i] {
				t.Fatalf("delta not symmetric at %d,%d", i, j)
			}
			if ds.Delta[i][j] < 0 || ds.Delta[i][j] > 1 {
				t.Fatalf("delta out of range at %d,%d: %v", i, j, ds.Delta[i][j])
			}
		}
	}
	if len(ds.ExactRankings) != 12 || len(ds.FPRankings) != 12 {
		t.Fatalf("rankings not cached for all queries")
	}
	for qi, r := range ds.ExactRankings {
		if len(r) != 60 {
			t.Fatalf("exact ranking %d has %d entries", qi, len(r))
		}
	}
}

func TestBuildSyntheticShape(t *testing.T) {
	cfg := tiny()
	cfg.DBSize = 30
	cfg.QueryCount = 5
	ds, err := BuildSynthetic(cfg)
	if err != nil {
		t.Fatalf("BuildSynthetic: %v", err)
	}
	if len(ds.DB) != 30 || ds.Index.P == 0 {
		t.Fatalf("synthetic dataset malformed")
	}
}

func TestEvaluateSelectionBounds(t *testing.T) {
	ds := chemDS(t)
	algos := StandardAlgorithms(1)
	// DSPM only (algos[0]) for speed.
	sel, dur, err := algos[0].Run(ds, 10)
	if err != nil {
		t.Fatalf("DSPM run: %v", err)
	}
	if dur <= 0 {
		t.Errorf("indexing time not measured")
	}
	q, timing := EvaluateSelection(ds, sel, 4)
	if q.Precision < 0 || q.Precision > 1 {
		t.Errorf("precision out of range: %v", q.Precision)
	}
	if q.KendallTau < 0 {
		t.Errorf("negative tau: %v", q.KendallTau)
	}
	if q.RankDist < 0 {
		t.Errorf("negative rank distance: %v", q.RankDist)
	}
	if timing.Total() <= 0 {
		t.Errorf("query timing not measured")
	}
}

// binaryStress is the evaluation-space stress Σ_{i<j} (d(yi,yj) − δij)²
// over the binary vectors restricted to sel — the distance-preservation
// quantity DSPM exists to minimize.
func binaryStress(ds *Dataset, sel []int) float64 {
	vecs := SelectionVectors(ds, sel)
	e := 0.0
	for i := 0; i < len(vecs); i++ {
		for j := i + 1; j < len(vecs); j++ {
			d := vecs[i].Distance(vecs[j]) - ds.Delta[i][j]
			e += d * d
		}
	}
	return e
}

func TestDSPMBeatsBaselinesOnDistancePreservation(t *testing.T) {
	// The paper's core claim (Fig. 1, Exp-1): DSPM's dimensions preserve
	// the graph dissimilarity better than both random sampling and the
	// full frequent-subgraph space. Binary stress is the direct measure;
	// top-k precision is its noisy downstream at this scale and is
	// exercised in the figure benches at larger scale.
	ds := chemDS(t)
	p := ds.Index.P / 4
	dspmSel, _, err := DSPMAlgorithm(core.Config{MaxIter: 60}).Run(ds, p)
	if err != nil {
		t.Fatalf("DSPM: %v", err)
	}
	sd := binaryStress(ds, dspmSel)
	var sampleSum float64
	const trials = 3
	for s := int64(0); s < trials; s++ {
		sampleSel, _, err := StandardAlgorithms(3 + s)[2].Run(ds, p)
		if err != nil {
			t.Fatalf("Sample: %v", err)
		}
		sampleSum += binaryStress(ds, sampleSel)
	}
	all := make([]int, ds.Index.P)
	for i := range all {
		all[i] = i
	}
	so := binaryStress(ds, all)
	if sd >= sampleSum/trials {
		t.Errorf("DSPM stress %v not below Sample average %v", sd, sampleSum/trials)
	}
	if sd >= so {
		t.Errorf("DSPM stress %v not below Original %v", sd, so)
	}
}

func TestBenchmarkQualityAndRelative(t *testing.T) {
	ds := chemDS(t)
	bench := BenchmarkQuality(ds, 4)
	if bench.Precision < 0 || bench.Precision > 1 {
		t.Fatalf("benchmark precision out of range: %v", bench.Precision)
	}
	q := Quality{Precision: 0.5, KendallTau: 0.2, RankDist: 1}
	rel := q.RelativeTo(Quality{Precision: 0.5, KendallTau: 0.4, RankDist: 0})
	if rel.Precision != 1 || rel.KendallTau != 0.5 || rel.RankDist != 1 {
		t.Errorf("RelativeTo wrong: %+v", rel)
	}
}

func TestHistogramAndEMD(t *testing.T) {
	h := NewHistogram([]float64{0.05, 0.05, 0.95, 1.0}, 10)
	if h.Bins[0] != 0.5 || h.Bins[9] != 0.5 {
		t.Errorf("histogram binning wrong: %v", h.Bins)
	}
	if NewHistogram(nil, 4).Bins[0] != 0 {
		t.Errorf("empty histogram should be zero")
	}
	same := NewHistogram([]float64{0.1, 0.9}, 10)
	if same.EMD(same) != 0 {
		t.Errorf("EMD to self must be 0")
	}
	a := NewHistogram([]float64{0.0}, 10)
	b := NewHistogram([]float64{0.99}, 10)
	if a.EMD(b) <= 0 {
		t.Errorf("EMD between disjoint masses must be positive")
	}
}

func TestFig1Shapes(t *testing.T) {
	ds := chemDS(t)
	res, err := Fig1(ds, ds.Index.P/4, 10)
	if err != nil {
		t.Fatalf("Fig1: %v", err)
	}
	for _, h := range []Histogram{res.DeltaDB, res.DSPMDB, res.OriginalDB, res.DeltaQ, res.DSPMQ, res.OriginalQ} {
		sum := 0.0
		for _, b := range h.Bins {
			sum += b
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("histogram mass %v, want 1", sum)
		}
	}
	// The paper's Fig 1 claim: DSPM's distance distribution tracks delta
	// better than Original's, within the database (a) and from unseen
	// queries (b). It holds at every scale recorded in EXPERIMENTS.md; at
	// this one (60 graphs, seed 1) (b) holds by only 0.5% (0.2106 vs
	// 0.2117), while (a) holds by 10%.
	t.Logf("EMD to delta: (a) DSPM %.4f Original %.4f; (b) DSPM %.4f Original %.4f",
		res.DSPMDB.EMD(res.DeltaDB), res.OriginalDB.EMD(res.DeltaDB),
		res.DSPMQ.EMD(res.DeltaQ), res.OriginalQ.EMD(res.DeltaQ))
	if res.DSPMDB.EMD(res.DeltaDB) > res.OriginalDB.EMD(res.DeltaDB) {
		t.Errorf("DSPM EMD %v worse than Original %v",
			res.DSPMDB.EMD(res.DeltaDB), res.OriginalDB.EMD(res.DeltaDB))
	}
	if res.DSPMQ.EMD(res.DeltaQ) > res.OriginalQ.EMD(res.DeltaQ) {
		t.Errorf("queries: DSPM EMD %v worse than Original %v",
			res.DSPMQ.EMD(res.DeltaQ), res.OriginalQ.EMD(res.DeltaQ))
	}
}

// TestFig2CorrelationLower holds Fig. 2's shape at harness scale (60
// chemical graphs, seed 1). The paper claims DSPM selects less-correlated
// dimensions than random sampling. Here that holds only at small p: at
// p = 4 DSPM's total pairwise correlation is below every Sample seed's,
// while at p = 8 it is above all three and at p = 16 more than 1.5×
// their largest. Both curves grow with p. The test asserts that observed
// shape, not the paper's (EXPERIMENTS.md, Fig. 2, has the tables).
func TestFig2CorrelationLower(t *testing.T) {
	ds := chemDS(t)
	ps := []int{4, 8, 16}
	var dspm, worst, best []float64 // per p: DSPM, the largest and the smallest Sample score
	for seed := int64(1); seed <= 3; seed++ {
		pts, err := Fig2(ds, ps, seed)
		if err != nil {
			t.Fatalf("Fig2: %v", err)
		}
		if len(pts) != len(ps) {
			t.Fatalf("got %d points", len(pts))
		}
		for i, pt := range pts {
			t.Logf("p=%d seed=%d: DSPM %.2f, Sample %.2f", pt.P, seed, pt.DSPMScore, pt.SampleScore)
			if seed == 1 {
				dspm = append(dspm, pt.DSPMScore)
				worst = append(worst, pt.SampleScore)
				best = append(best, pt.SampleScore)
			}
			worst[i] = max(worst[i], pt.SampleScore)
			best[i] = min(best[i], pt.SampleScore)
		}
	}
	if dspm[0] >= best[0] {
		t.Errorf("p=4: DSPM %.2f not below every Sample seed (lowest %.2f)", dspm[0], best[0])
	}
	if dspm[1] <= worst[1] {
		t.Errorf("p=8: DSPM %.2f not above every Sample seed (highest %.2f)", dspm[1], worst[1])
	}
	if dspm[2] <= 1.5*worst[2] {
		t.Errorf("p=16: DSPM %.2f not above 1.5× the highest Sample seed %.2f", dspm[2], worst[2])
	}
	for i := 1; i < len(ps); i++ {
		if dspm[i] <= dspm[i-1] || worst[i] <= worst[i-1] {
			t.Errorf("correlation does not grow from p=%d to p=%d: DSPM %.2f→%.2f, Sample %.2f→%.2f",
				ps[i-1], ps[i], dspm[i-1], dspm[i], worst[i-1], worst[i])
		}
	}
}

func TestFigQualityAndWrite(t *testing.T) {
	ds := chemDS(t)
	// Subset of fast algorithms to keep the test quick.
	algos := []Algorithm{DSPMAlgorithm(core.Config{}), StandardAlgorithms(1)[2]}
	ks := []int{2, 4}
	series := FigQuality(ds, algos, 10, ks, true)
	if len(series) != 2 {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if s.Err != nil {
			t.Fatalf("%s failed: %v", s.Name, s.Err)
		}
		for _, k := range ks {
			if _, ok := s.ByK[k]; !ok {
				t.Fatalf("%s missing k=%d", s.Name, k)
			}
		}
	}
	RelativeToBest(series, ks)
	for _, s := range series {
		for _, k := range ks {
			if s.ByK[k].Precision > 1.0001 {
				t.Errorf("relative-to-best precision above 1: %v", s.ByK[k].Precision)
			}
		}
	}
	var buf bytes.Buffer
	WriteSeries(&buf, "test", series, ks)
	if buf.Len() == 0 {
		t.Errorf("WriteSeries produced nothing")
	}
}

// TestFig4Shape asserts Fig. 4 at harness scale (60 chemical graphs, 12
// queries, seed 1, 997 candidates, k = 2% … 10% of the database as
// cmd/figures picks them), precision relative to the fingerprint
// benchmark. Every algorithm but Original gets p = CappedP = 75: half the
// 150-candidate pool the capped baselines (SFS, MICI, MCFS, UDFS, NDFS)
// select from, so each of them chooses rather than returning its whole
// pool. So no two algorithms may select the same features, and no two
// rows may read the same.
//
// The paper has DSPM above all seven baselines at every k. Here it is
// not: on 75 dimensions DSPM's precision averaged over k is 0.801,
// against SFS's 1.219, Sample's 1.142 and Original's 1.036 on all 997;
// only MICI (0.692) and NDFS (0.789) trail it, and DSPM is at or above
// every baseline at none of the five ks. Default scale (150 graphs,
// p = 125) puts DSPM back above every p-matched baseline at every k
// (EXPERIMENTS.md, Fig. 4): the harness shape is not the default-scale
// shape.
func TestFig4Shape(t *testing.T) {
	ds := chemDS(t)
	ks := []int{1, 2, 3, 4, 6}
	p := CappedP(ds)
	if pool := min(ds.BaselineCap, ds.Index.P); pool < 2*p {
		t.Fatalf("capped baselines choose %d of %d candidates, want a pool of at least 2p", p, pool)
	}
	series := FigQuality(ds, StandardAlgorithms(1), p, ks, true)
	mean := func(s AlgoSeries) float64 {
		m := 0.0
		for _, k := range ks {
			m += s.ByK[k].Precision / float64(len(ks))
		}
		return m
	}
	sets, rows := map[string]string{}, map[string]string{}
	for _, s := range series {
		if s.Err != nil {
			t.Fatalf("%s failed: %v", s.Name, s.Err)
		}
		want := p
		if s.Name == "Original" {
			want = ds.Index.P
		}
		if len(s.Selected) != want {
			t.Errorf("%s selected %d features, want %d", s.Name, len(s.Selected), want)
		}
		t.Logf("%-8s p=%d mean relative precision %.3f", s.Name, len(s.Selected), mean(s))
		sel := slices.Clone(s.Selected)
		slices.Sort(sel)
		set := fmt.Sprint(sel)
		if other, ok := sets[set]; ok {
			t.Errorf("%s and %s selected the same features", other, s.Name)
		}
		sets[set] = s.Name
		row := fmt.Sprint(ks, s.ByK)
		if other, ok := rows[row]; ok {
			t.Errorf("%s's row repeats %s's", s.Name, other)
		}
		rows[row] = s.Name
	}
	dspm, baselines := series[0], series[1:]
	if dspm.Name != "DSPM" || len(baselines) != 7 {
		t.Fatalf("series %s and %d baselines, want DSPM and 7", dspm.Name, len(baselines))
	}
	leads := 0
	for _, k := range ks {
		ahead := true
		for _, s := range baselines {
			ahead = ahead && dspm.ByK[k].Precision >= s.ByK[k].Precision
		}
		if ahead {
			leads++
		}
	}
	if leads >= 3 {
		t.Errorf("DSPM is at or above every baseline at %d of %d ks; it measured none", leads, len(ks))
	}
	best := baselines[0]
	for _, s := range baselines {
		if mean(s) > mean(best) {
			best = s
		}
	}
	if mean(best) < mean(dspm)+0.1 {
		t.Errorf("the best baseline, %s at %.3f, does not lead DSPM's %.3f by 0.1", best.Name, mean(best), mean(dspm))
	}
}

// TestFig5Shape asserts Fig. 5 at harness scale (60 synthetic graphs, 12
// queries, seed 1, p = candidates/4 = 34, k = 2% … 10% of the database
// as cmd/figures picks them), precision relative to the best algorithm at
// each k. The paper has DSPM above all seven baselines on the synthetic
// set too. Here it is not: DSPM ties the best only at k = 1, Original —
// every candidate feature — is the best at every k from 2 on, and
// DSPM's precision averaged over k (0.704) trails Original's (0.800),
// NDFS's (0.765) and MICI's (0.718). It does lead Sample, the random
// selection of the same size (0.521). So the test asserts that observed
// shape, which default scale (150 graphs) repeats: Original at 1.000 at
// four of five ks, DSPM's mean above Sample's.
func TestFig5Shape(t *testing.T) {
	ds, err := BuildSynthetic(tiny())
	if err != nil {
		t.Fatalf("BuildSynthetic: %v", err)
	}
	ks := []int{1, 2, 3, 4, 6}
	series := FigQuality(ds, StandardAlgorithms(1), ds.Index.P/4, ks, false)
	RelativeToBest(series, ks)
	mean := map[string]float64{}
	for _, s := range series {
		if s.Err != nil {
			t.Fatalf("%s failed: %v", s.Name, s.Err)
		}
		for _, k := range ks {
			mean[s.Name] += s.ByK[k].Precision / float64(len(ks))
		}
		t.Logf("%-8s mean relative precision %.3f", s.Name, mean[s.Name])
	}
	if len(series) != 8 || series[0].Name != "DSPM" || series[1].Name != "Original" {
		t.Fatalf("want DSPM, Original and six more series, got %d", len(series))
	}
	dspm, original := series[0], series[1]
	if dspm.ByK[1].Precision != 1 {
		t.Errorf("DSPM's relative precision at k = 1 is %.3f, want the best (1)", dspm.ByK[1].Precision)
	}
	for _, k := range ks[1:] {
		if original.ByK[k].Precision != 1 {
			t.Errorf("Original's relative precision at k = %d is %.3f, want the best (1)", k, original.ByK[k].Precision)
		}
	}
	if mean["DSPM"] >= mean["Original"] || mean["DSPM"] <= mean["Sample"] {
		t.Errorf("DSPM's mean precision %.3f is not between Sample's %.3f and Original's %.3f",
			mean["DSPM"], mean["Sample"], mean["Original"])
	}
}

func TestFig7Buckets(t *testing.T) {
	ds := chemDS(t)
	res, err := Fig7(ds, 10, []int{0, 12, 22}, 1)
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	if len(res.Buckets) != 2 {
		t.Fatalf("bucket count wrong: %v", res.Buckets)
	}
}

// minOfRuns calls run three times and returns, position by position, the
// least of the durations it reports. The Fig. 7–9 gates compare two
// timed sides of one figure; each run times both in turn, so the sides
// interleave across the runs, and a side's minimum is its run least
// disturbed by the rest of a loaded process. The gates' bounds stay the
// figures' own.
func minOfRuns(run func() []time.Duration) []time.Duration {
	least := run()
	for range 2 {
		for i, d := range run() {
			least[i] = min(least[i], d)
		}
	}
	return least
}

// TestFig7Shape holds the paper's Fig. 7 claim at harness scale: in every
// query-size bucket that holds a query, answering it in DSPM's mapped
// space — VF2 mapping plus the scan — is at least 10× faster than
// ranking the database by exact (budgeted) MCS.
func TestFig7Shape(t *testing.T) {
	ds := chemDS(t)
	var res *Fig7Result
	times := minOfRuns(func() []time.Duration {
		var err error
		if res, err = Fig7(ds, ds.Index.P/4, []int{10, 14, 18, 21}, 2); err != nil {
			t.Fatalf("Fig7: %v", err)
		}
		return slices.Concat(res.DSPM, res.Exact)
	})
	res.DSPM, res.Exact = times[:len(res.DSPM)], times[len(res.DSPM):]
	buckets := 0
	for b, name := range res.Buckets {
		if res.Exact[b] == 0 {
			continue // no query of this size
		}
		buckets++
		t.Logf("|V(q)| %s: DSPM %v, Original %v, Exact %v (%.0f×)", name, res.DSPM[b], res.Original[b], res.Exact[b],
			float64(res.Exact[b])/float64(res.DSPM[b]))
		if res.DSPM[b]*10 > res.Exact[b] {
			t.Errorf("|V(q)| %s: mapped query %v is not 10× below exact %v", name, res.DSPM[b], res.Exact[b])
		}
	}
	if buckets == 0 {
		t.Fatal("no bucket held a query")
	}
}

// TestFig8Shape asserts Fig. 8's claim at harness scale (60 graphs, 12
// queries, seed 1, p = 10, k = 4, b = n/8 … n/2 as cmd/figures sweeps
// it). DSPMap's precision scatters around DSPM's — 48 result slots make
// one slot 0.021, and it measured 0.146–0.312 against DSPM's 0.208, with
// no trend in b — but averaged over b it matches DSPM's (0.213), so the
// test asserts the mean within 0.05 and each b within 0.125. At the
// smallest b DSPMap indexes in under half of DSPM's time (it measured a
// fifth to a quarter; the time grows with b).
func TestFig8Shape(t *testing.T) {
	ds := chemDS(t)
	n := len(ds.DB)
	var pts []Fig8Point
	times := minOfRuns(func() []time.Duration {
		var err error
		if pts, err = Fig8(ds, 10, 4, []int{n / 8, n / 6, n / 4, n / 3, n / 2}, 1); err != nil {
			t.Fatalf("Fig8: %v", err)
		}
		return []time.Duration{pts[0].DSPMapIndexing, pts[0].DSPMIndexing}
	})
	pts[0].DSPMapIndexing, pts[0].DSPMIndexing = times[0], times[1]
	mean := 0.0
	for _, pt := range pts {
		t.Logf("b=%d: DSPMap %.3f in %v, DSPM %.3f in %v", pt.B, pt.DSPMapPrec, pt.DSPMapIndexing, pt.DSPMPrec, pt.DSPMIndexing)
		if d := pt.DSPMapPrec - pt.DSPMPrec; d < -0.125 || d > 0.125 {
			t.Errorf("b=%d: DSPMap precision %.3f is not within 0.125 of DSPM's %.3f", pt.B, pt.DSPMapPrec, pt.DSPMPrec)
		}
		mean += pt.DSPMapPrec / float64(len(pts))
	}
	if d := mean - pts[0].DSPMPrec; d < -0.05 || d > 0.05 {
		t.Errorf("DSPMap's mean precision over b, %.3f, is not within 0.05 of DSPM's %.3f", mean, pts[0].DSPMPrec)
	}
	if pt := pts[0]; pt.DSPMapIndexing*2 >= pt.DSPMIndexing {
		t.Errorf("b=%d: DSPMap indexed in %v, not under half of DSPM's %v", pt.B, pt.DSPMapIndexing, pt.DSPMIndexing)
	}
}

func TestFig9Shape(t *testing.T) {
	cfg := tiny()
	algos := []Algorithm{DSPMAlgorithm(core.Config{}), timedSelector(baselines.Original{})}
	var pts []Fig9Point
	times := minOfRuns(func() []time.Duration {
		var err error
		if pts, err = Fig9([]int{30, 60, 90}, cfg, algos, 10, 3, 1); err != nil {
			t.Fatalf("Fig9: %v", err)
		}
		if len(pts) != 3 {
			t.Fatalf("Fig9 returned %d points, want 3", len(pts))
		}
		var ts []time.Duration
		for _, pt := range pts {
			ts = append(ts, pt.IndexingByAlgo["DSPMap"], pt.IndexingByAlgo["DSPM"], pt.DSPMapQuery, pt.ExactQuery)
		}
		return ts
	})
	for i, pt := range pts {
		pt.IndexingByAlgo["DSPMap"], pt.IndexingByAlgo["DSPM"] = times[4*i], times[4*i+1]
		pt.DSPMapQuery, pt.ExactQuery = times[4*i+2], times[4*i+3]
		t.Logf("|DG|=%d: DSPMap query %v, exact %v; indexing DSPMap %v, DSPM %v; precision DSPMap %.3f, DSPM %.3f, Original %.3f",
			pt.N, pt.DSPMapQuery, pt.ExactQuery, pt.IndexingByAlgo["DSPMap"], pt.IndexingByAlgo["DSPM"],
			pt.Precision["DSPMap"], pt.Precision["DSPM"], pt.Precision["Original"])
		if dspmap, dspm := pt.IndexingByAlgo["DSPMap"], pt.IndexingByAlgo["DSPM"]; dspmap >= dspm {
			t.Errorf("|DG|=%d: DSPMap indexed in %v, not below DSPM's %v", pt.N, dspmap, dspm)
		}
		if pt.DSPMapQuery*10 > pt.ExactQuery {
			t.Errorf("|DG|=%d: mapped query %v is not 10x faster than exact %v", pt.N, pt.DSPMapQuery, pt.ExactQuery)
		}
		// The paper's precision half does not hold here: Original, every
		// mined feature as a dimension, is at least as precise as DSPMap
		// and DSPM at every size, as it is at default scale (EXPERIMENTS.md
		// §Fig. 9). Asserted as observed.
		if orig := pt.Precision["Original"]; orig < pt.Precision["DSPMap"] || orig < pt.Precision["DSPM"] {
			t.Errorf("|DG|=%d: Original's precision %.3f fell below DSPMap's %.3f or DSPM's %.3f; update EXPERIMENTS.md",
				pt.N, orig, pt.Precision["DSPMap"], pt.Precision["DSPM"])
		}
	}
}

func TestExactQueryTimingZeroQueries(t *testing.T) {
	ds := chemDS(t)
	if ExactQueryTiming(ds, 0) != 0 {
		t.Errorf("zero queries must return 0")
	}
}

// TestFig6Shape asserts Fig. 6 at harness scale (60 synthetic graphs, 12
// queries, seed 1, SFS left out, k = 3 as cmd/figures picks it, p =
// DefaultP of each row's candidates), precision relative to the best
// algorithm in each row. The paper has DSPM leading as the graphs grow
// and densify. Here it does not: Original — every candidate feature — is
// the best at 16 and 20 edges and at density 0.2, DSPM trails it there
// (0.00, 0.60, 0.60), and DSPM's mean over the six rows (0.56) is below
// Original's (0.80). Default scale (150 graphs, k = 9) repeats the mean
// (0.83 against 0.93). So the test asserts that observed shape, plus two
// properties of the sweep itself: the generator's default is 20 edges at
// density 0.2, so those two rows are one data set and must agree, and
// larger graphs yield more frequent candidates (40, 88, 137 here; 1, 15,
// 59 at default scale, where the single 12-edge candidate ties every
// algorithm at 1.00).
func TestFig6Shape(t *testing.T) {
	algos := StandardAlgorithms(1)
	algos = append(algos[:3:3], algos[4:]...) // SFS left out
	const k = 3
	rows, err := Fig6(tiny(), algos, k)
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("want 6 rows (3 edge counts, 3 densities), got %d", len(rows))
	}
	mean := map[string]float64{}
	prec := func(row Fig6Row, name string) float64 {
		for _, s := range row.Series {
			if s.Name == name {
				return s.ByK[k].Precision
			}
		}
		t.Fatalf("no %s series", name)
		return 0
	}
	for _, row := range rows {
		best := 0.0
		for _, s := range row.Series {
			if s.Err != nil {
				t.Fatalf("edges %d density %.1f: %s failed: %v", row.Edges, row.Density, s.Name, s.Err)
			}
			best = max(best, s.ByK[k].Precision)
			mean[s.Name] += s.ByK[k].Precision / float64(len(rows))
		}
		if best != 1 {
			t.Errorf("edges %d density %.1f: the best relative precision is %.3f, want 1", row.Edges, row.Density, best)
		}
		t.Logf("edges %d density %.1f: %d candidates, DSPM %.3f, Original %.3f",
			row.Edges, row.Density, row.Candidates, prec(row, "DSPM"), prec(row, "Original"))
	}
	for i := 1; i < 3; i++ {
		if rows[i].Candidates <= rows[i-1].Candidates {
			t.Errorf("%d edges mine %d candidates, %d edges %d: want more for larger graphs",
				rows[i].Edges, rows[i].Candidates, rows[i-1].Edges, rows[i-1].Candidates)
		}
	}
	for _, s := range rows[2].Series {
		if got := prec(rows[4], s.Name); got != s.ByK[k].Precision {
			t.Errorf("%s: %.3f at 20 edges but %.3f at density 0.2, the same data set", s.Name, s.ByK[k].Precision, got)
		}
	}
	for _, i := range []int{1, 2, 4} {
		if o, d := prec(rows[i], "Original"), prec(rows[i], "DSPM"); o != 1 || d >= o {
			t.Errorf("edges %d density %.1f: Original %.3f, DSPM %.3f; want Original the best, DSPM below it",
				rows[i].Edges, rows[i].Density, o, d)
		}
	}
	if mean["DSPM"] >= mean["Original"] {
		t.Errorf("DSPM's mean precision %.3f is not below Original's %.3f", mean["DSPM"], mean["Original"])
	}
}

// TestDatasetCountsExactTruth: counting which MCS searches finished
// changes no figure value — the δ matrix and the exact rankings are the
// ones mcs.Metric.MatrixWorkers and topk.Exact compute — and the counts
// are those of mcs.Compute over every pair.
func TestDatasetCountsExactTruth(t *testing.T) {
	ds := chemDS(t)
	if want := ds.Metric.MatrixWorkers(ds.DB, ds.MCSOpt, ds.Workers); !reflect.DeepEqual(ds.Delta, want) {
		t.Fatal("the δ matrix differs from mcs.Metric.MatrixWorkers'")
	}
	var want Exactness
	for qi, q := range ds.Queries {
		if r := topk.Exact(ds.DB, q, ds.Metric, ds.MCSOpt); !reflect.DeepEqual(ds.ExactRankings[qi], r) {
			t.Fatalf("query %d: the exact ranking differs from topk.Exact's", qi)
		}
		for _, g := range ds.DB {
			want.TruthPairs++
			if mcs.Compute(q, g, ds.MCSOpt).Exact {
				want.TruthExact++
			}
		}
	}
	for i := range ds.DB {
		for j := i + 1; j < len(ds.DB); j++ {
			want.DeltaPairs++
			if mcs.Compute(ds.DB[i], ds.DB[j], ds.MCSOpt).Exact {
				want.DeltaExact++
			}
		}
	}
	if ds.Exact != want {
		t.Fatalf("Exact = %+v, want %+v", ds.Exact, want)
	}
	t.Log(ds.Exact)
}
