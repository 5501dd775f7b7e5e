package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/topk"
)

// Histogram is a fixed-bin distribution over [0,1] reported as fractions.
type Histogram struct {
	Bins []float64
}

// NewHistogram buckets the values into nbins equal bins over [0,1].
func NewHistogram(values []float64, nbins int) Histogram {
	h := Histogram{Bins: make([]float64, nbins)}
	if len(values) == 0 {
		return h
	}
	for _, v := range values {
		b := int(v * float64(nbins))
		if b >= nbins {
			b = nbins - 1
		}
		if b < 0 {
			b = 0
		}
		h.Bins[b]++
	}
	for i := range h.Bins {
		h.Bins[i] /= float64(len(values))
	}
	return h
}

// EMD returns the earth-mover (1-Wasserstein) distance between two
// histograms with the same binning — used to verify that the DSPM
// distance distribution tracks the δ distribution more closely than
// Original's (the Fig. 1 claim).
func (h Histogram) EMD(o Histogram) float64 {
	carry, total := 0.0, 0.0
	for i := range h.Bins {
		carry += h.Bins[i] - o.Bins[i]
		if carry < 0 {
			total -= carry
		} else {
			total += carry
		}
	}
	return total / float64(len(h.Bins))
}

// Fig1Result holds the dissimilarity/distance distributions of Fig. 1.
type Fig1Result struct {
	// Within-database distributions (Fig. 1a).
	DeltaDB, DSPMDB, OriginalDB Histogram
	// Query-to-database distributions (Fig. 1b).
	DeltaQ, DSPMQ, OriginalQ Histogram
}

// Fig1 reproduces Fig. 1: the distribution of graph dissimilarity versus
// mapped Euclidean distance, for DSPM-selected dimensions and for the
// full frequent-subgraph space (Original).
func Fig1(ds *Dataset, p, nbins int) (*Fig1Result, error) {
	res, err := core.DSPM(ds.Index, ds.Delta, core.Config{P: p})
	if err != nil {
		return nil, err
	}
	all := make([]int, ds.Index.P)
	for i := range all {
		all[i] = i
	}
	dspmVecs := SelectionVectors(ds, res.Selected)
	origVecs := SelectionVectors(ds, all)
	dspmMap, origMap := selectionMapper(ds, res.Selected), selectionMapper(ds, all)

	n := len(ds.DB)
	var deltaVals, dspmVals, origVals []float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			deltaVals = append(deltaVals, ds.Delta[i][j])
			dspmVals = append(dspmVals, dspmVecs[i].Distance(dspmVecs[j]))
			origVals = append(origVals, origVecs[i].Distance(origVecs[j]))
		}
	}
	out := &Fig1Result{
		DeltaDB:    NewHistogram(deltaVals, nbins),
		DSPMDB:     NewHistogram(dspmVals, nbins),
		OriginalDB: NewHistogram(origVals, nbins),
	}

	var dq, sq, oq []float64
	for qi, q := range ds.Queries {
		qd := dspmMap.Map(q)
		qo := origMap.Map(q)
		for i := 0; i < n; i++ {
			// Reuse the cached exact rankings for δ(q, gi).
			_ = qi
			sq = append(sq, qd.Distance(dspmVecs[i]))
			oq = append(oq, qo.Distance(origVecs[i]))
		}
		for _, item := range ds.ExactRankings[qi] {
			dq = append(dq, item.Score)
		}
	}
	out.DeltaQ = NewHistogram(dq, nbins)
	out.DSPMQ = NewHistogram(sq, nbins)
	out.OriginalQ = NewHistogram(oq, nbins)
	return out, nil
}

// Fig2Point is one x-position of Fig. 2: the total pairwise Jaccard
// correlation of the p selected features, for DSPM and random Sample.
type Fig2Point struct {
	P                      int
	DSPMScore, SampleScore float64
}

// Fig2 reproduces Fig. 2 over the given dimension counts.
func Fig2(ds *Dataset, ps []int, seed int64) ([]Fig2Point, error) {
	out := make([]Fig2Point, 0, len(ps))
	for _, p := range ps {
		if p > ds.Index.P {
			p = ds.Index.P
		}
		res, err := core.DSPM(ds.Index, ds.Delta, core.Config{P: p})
		if err != nil {
			return nil, err
		}
		sampleAlg := StandardAlgorithms(seed)[2] // Sample
		sample, _, err := sampleAlg.Run(ds, p)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig2Point{
			P:           p,
			DSPMScore:   ds.Index.TotalCorrelation(res.Selected),
			SampleScore: ds.Index.TotalCorrelation(sample),
		})
	}
	return out, nil
}

// AlgoSeries is one algorithm's curve in Figs. 4/5: relative quality per
// top-k value plus the indexing time.
type AlgoSeries struct {
	Name         string
	Selected     []int           // the chosen features; its length is the algorithm's p
	ByK          map[int]Quality // relative to the benchmark
	IndexingTime time.Duration
	Err          error // non-nil if the algorithm failed (recorded, not fatal)
}

// FigQuality reproduces Figs. 4 and 5: every algorithm evaluated at each
// top-k, relative to the benchmark. On the chemical dataset the benchmark
// is the fingerprint engine; on synthetic data (no fingerprint dictionary
// exists) the paper uses the best algorithm per measure, which
// RelativeToBest applies afterwards.
func FigQuality(ds *Dataset, algos []Algorithm, p int, ks []int, useFingerprint bool) []AlgoSeries {
	series := make([]AlgoSeries, 0, len(algos))
	bench := make(map[int]Quality, len(ks))
	if useFingerprint {
		for _, k := range ks {
			bench[k] = BenchmarkQuality(ds, k)
		}
	}
	for _, alg := range algos {
		s := AlgoSeries{Name: alg.Name, ByK: map[int]Quality{}}
		sel, dur, err := alg.Run(ds, p)
		if err != nil {
			s.Err = err
			series = append(series, s)
			continue
		}
		s.Selected, s.IndexingTime = sel, dur
		for _, k := range ks {
			q, _ := EvaluateSelection(ds, sel, k)
			if useFingerprint {
				q = q.RelativeTo(bench[k])
			}
			s.ByK[k] = q
		}
		series = append(series, s)
	}
	return series
}

// RelativeToBest normalizes each measure at each k by the best value among
// the algorithms — the paper's benchmark for synthetic data.
func RelativeToBest(series []AlgoSeries, ks []int) {
	for _, k := range ks {
		var best Quality
		for _, s := range series {
			if s.Err != nil {
				continue
			}
			q := s.ByK[k]
			if q.Precision > best.Precision {
				best.Precision = q.Precision
			}
			if q.KendallTau > best.KendallTau {
				best.KendallTau = q.KendallTau
			}
			if q.RankDist > best.RankDist {
				best.RankDist = q.RankDist
			}
		}
		for i := range series {
			if series[i].Err != nil {
				continue
			}
			series[i].ByK[k] = series[i].ByK[k].RelativeTo(best)
		}
	}
}

// WriteSeries renders the Fig. 4/5 style table.
func WriteSeries(w io.Writer, title string, series []AlgoSeries, ks []int) {
	fmt.Fprintf(w, "== %s ==\n", title)
	fmt.Fprintf(w, "%-10s %5s %12s", "algorithm", "p", "indexing")
	for _, k := range ks {
		fmt.Fprintf(w, "  p@%-4d tau@%-4d rd@%-4d", k, k, k)
	}
	fmt.Fprintln(w)
	for _, s := range series {
		if s.Err != nil {
			fmt.Fprintf(w, "%-10s failed: %v\n", s.Name, s.Err)
			continue
		}
		fmt.Fprintf(w, "%-10s %5d %12s", s.Name, len(s.Selected), s.IndexingTime.Round(time.Millisecond))
		for _, k := range ks {
			q := s.ByK[k]
			fmt.Fprintf(w, "  %6.3f %7.3f %6.3f", q.Precision, q.KendallTau, q.RankDist)
		}
		fmt.Fprintln(w)
	}
}

// Fig7Result holds Exp-4's query-efficiency series: mean query time per
// query-size bucket for DSPM and Original, plus the exact engine.
type Fig7Result struct {
	Buckets  []string
	DSPM     []time.Duration
	Original []time.Duration
	Exact    []time.Duration
}

// Fig7 reproduces Fig. 7: query time by |V(q)| bucket. exactPerBucket
// bounds how many exact queries are timed per bucket (the exact engine is
// orders of magnitude slower).
func Fig7(ds *Dataset, p int, bucketBounds []int, exactPerBucket int) (*Fig7Result, error) {
	res, err := core.DSPM(ds.Index, ds.Delta, core.Config{P: p})
	if err != nil {
		return nil, err
	}
	all := make([]int, ds.Index.P)
	for i := range all {
		all[i] = i
	}
	dspmVecs := SelectionVectors(ds, res.Selected)
	origVecs := SelectionVectors(ds, all)
	dspmMap, origMap := selectionMapper(ds, res.Selected), selectionMapper(ds, all)

	nb := len(bucketBounds) - 1
	out := &Fig7Result{
		DSPM:     make([]time.Duration, nb),
		Original: make([]time.Duration, nb),
		Exact:    make([]time.Duration, nb),
	}
	counts := make([]int, nb)
	exactCounts := make([]int, nb)
	for b := 0; b < nb; b++ {
		out.Buckets = append(out.Buckets, fmt.Sprintf("%d-%d", bucketBounds[b], bucketBounds[b+1]))
	}
	bucketOf := func(n int) int {
		for b := 0; b < nb; b++ {
			if n >= bucketBounds[b] && n < bucketBounds[b+1] {
				return b
			}
		}
		if n >= bucketBounds[nb] {
			return nb - 1
		}
		return 0
	}
	for _, q := range ds.Queries {
		b := bucketOf(q.N())
		counts[b]++

		t0 := time.Now()
		qv := dspmMap.Map(q)
		topk.Mapped(dspmVecs, qv)
		out.DSPM[b] += time.Since(t0)

		t1 := time.Now()
		qo := origMap.Map(q)
		topk.Mapped(origVecs, qo)
		out.Original[b] += time.Since(t1)

		if exactCounts[b] < exactPerBucket {
			exactCounts[b]++
			t2 := time.Now()
			topk.Exact(ds.DB, q, ds.Metric, ds.MCSOpt)
			out.Exact[b] += time.Since(t2)
		}
	}
	for b := 0; b < nb; b++ {
		if counts[b] > 0 {
			out.DSPM[b] /= time.Duration(counts[b])
			out.Original[b] /= time.Duration(counts[b])
		}
		if exactCounts[b] > 0 {
			out.Exact[b] /= time.Duration(exactCounts[b])
		}
	}
	return out, nil
}

// Fig8Point is one partition size of Fig. 8: DSPMap quality and indexing
// time against the DSPM reference.
type Fig8Point struct {
	B              int
	DSPMapPrec     float64
	DSPMPrec       float64
	DSPMapIndexing time.Duration
	DSPMIndexing   time.Duration
}

// Fig8 reproduces Fig. 8: vary the partition size b and compare DSPMap
// against DSPM on precision and indexing time.
func Fig8(ds *Dataset, p, k int, bs []int, seed int64) ([]Fig8Point, error) {
	dspmAlg := DSPMAlgorithm(core.Config{})
	dspmSel, dspmTime, err := dspmAlg.Run(ds, p)
	if err != nil {
		return nil, err
	}
	dspmQ, _ := EvaluateSelection(ds, dspmSel, k)
	out := make([]Fig8Point, 0, len(bs))
	for _, b := range bs {
		alg := DSPMapAlgorithm(b, seed, core.Config{})
		sel, dur, err := alg.Run(ds, p)
		if err != nil {
			return nil, err
		}
		q, _ := EvaluateSelection(ds, sel, k)
		out = append(out, Fig8Point{
			B:              b,
			DSPMapPrec:     q.Precision,
			DSPMPrec:       dspmQ.Precision,
			DSPMapIndexing: dur,
			DSPMIndexing:   dspmTime,
		})
	}
	return out, nil
}

// Fig9Point is one database size of Fig. 9.
type Fig9Point struct {
	N              int
	Precision      map[string]float64 // relative precision per algorithm
	DSPMapQuery    time.Duration
	ExactQuery     time.Duration
	IndexingByAlgo map[string]time.Duration
	DimsByAlgo     map[string]int // features each algorithm selected
	Exact          Exactness      // of the dataset built at this size
}

// Fig9 reproduces Fig. 9 (scalability): for each database size build a
// fresh dataset, run DSPMap (b = n/20, as in the paper) plus the other
// algorithms, and record relative precision, query time and indexing
// time.
func Fig9(sizes []int, base Config, algos []Algorithm, p, k int, seed int64) ([]Fig9Point, error) {
	out := make([]Fig9Point, 0, len(sizes))
	for _, n := range sizes {
		cfg := base
		cfg.DBSize = n
		ds, err := BuildChemical(cfg)
		if err != nil {
			return nil, err
		}
		b := n / 20
		if b < 2 {
			b = 2
		}
		pt := Fig9Point{
			N:              n,
			Precision:      map[string]float64{},
			IndexingByAlgo: map[string]time.Duration{},
			DimsByAlgo:     map[string]int{},
			Exact:          ds.Exact,
		}
		bench := BenchmarkQuality(ds, k)

		run := append([]Algorithm{DSPMapAlgorithm(b, seed, core.Config{})}, algos...)
		var dspmapSel []int
		for _, alg := range run {
			sel, dur, err := alg.Run(ds, p)
			if err != nil {
				continue // record only successful algorithms
			}
			q, _ := EvaluateSelection(ds, sel, k)
			pt.Precision[alg.Name] = q.RelativeTo(bench).Precision
			pt.IndexingByAlgo[alg.Name] = dur
			pt.DimsByAlgo[alg.Name] = len(sel)
			if alg.Name == "DSPMap" {
				dspmapSel = sel
			}
		}
		if dspmapSel != nil {
			_, timing := EvaluateSelection(ds, dspmapSel, k)
			pt.DSPMapQuery = timing.Total()
		}
		pt.ExactQuery = ExactQueryTiming(ds, 3)
		out = append(out, pt)
	}
	return out, nil
}

// SortedAlgoNames lists map keys deterministically for reporting.
func SortedAlgoNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Fig6Row is one point of Fig. 6's synthetic sweeps: a data set built at
// one average edge count (Density zero) or one density (Edges zero), its
// mined candidate count, and every algorithm's precision at k relative to
// the best, with its indexing time.
type Fig6Row struct {
	Edges      int
	Density    float64
	Candidates int
	Series     []AlgoSeries
	Exact      Exactness // of the row's data set
}

// Fig6 reproduces Fig. 6: for average edge counts 12, 16 and 20, then
// densities 0.1, 0.2 and 0.3, it builds a synthetic data set from base
// with that one setting changed and evaluates algos at top-k, p =
// DefaultP of its candidate count. It fails where a build does: when
// mining finds no candidate feature.
func Fig6(base Config, algos []Algorithm, k int) ([]Fig6Row, error) {
	rows := []Fig6Row{{Edges: 12}, {Edges: 16}, {Edges: 20}, {Density: 0.1}, {Density: 0.2}, {Density: 0.3}}
	for i := range rows {
		cfg := base
		if rows[i].Edges != 0 {
			cfg.Synth.AvgEdges = rows[i].Edges
		} else {
			cfg.Synth.Density = rows[i].Density
		}
		ds, err := BuildSynthetic(cfg)
		if err != nil {
			return nil, err
		}
		rows[i].Candidates = ds.Index.P
		rows[i].Exact = ds.Exact
		rows[i].Series = FigQuality(ds, algos, DefaultP(ds.Index.P), []int{k}, false)
		RelativeToBest(rows[i].Series, []int{k})
	}
	return rows, nil
}

// DefaultP is the dimension count the figure drivers select out of m
// candidate features: a quarter of them, but at least 10 and at most m.
func DefaultP(m int) int {
	return min(max(m/4, 10), m)
}

// CappedP is the dimension count Fig. 4 gives every algorithm but
// Original: DefaultP, but at most half the capped baselines' pool, so each
// of them chooses p of at least 2p candidates, not its whole pool.
func CappedP(ds *Dataset) int {
	p := DefaultP(ds.Index.P)
	if ds.BaselineCap > 0 && ds.BaselineCap < ds.Index.P {
		p = min(p, ds.BaselineCap/2)
	}
	return p
}
