package experiments

import (
	"sort"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/vecspace"
)

// Algorithm is a dimension-selection method under evaluation. Run returns
// the selected feature indices and measures the indexing (selection) time,
// the quantity plotted in Figs. 4(d), 5(d), 6(c,d) and 9(c).
type Algorithm struct {
	Name string
	Run  func(ds *Dataset, p int) ([]int, time.Duration, error)
}

// timedSelector adapts a baselines.Selector.
func timedSelector(s baselines.Selector) Algorithm {
	return Algorithm{
		Name: s.Name(),
		Run: func(ds *Dataset, p int) ([]int, time.Duration, error) {
			start := time.Now()
			sel, err := s.Select(ds.Index, ds.Delta, p)
			return sel, time.Since(start), err
		},
	}
}

// cappedSelector adapts a baselines.Selector whose cost is quadratic or
// worse in the candidate count m: the candidate set is truncated to the
// ds.BaselineCap features with the largest support before selection, and
// the chosen indices are mapped back. This mirrors the paper's Exp-6
// finding that these methods are the first to stop scaling (memory/time);
// without the cap they could not run at all on the full candidate set.
func cappedSelector(s baselines.Selector) Algorithm {
	return Algorithm{
		Name: s.Name(),
		Run: func(ds *Dataset, p int) ([]int, time.Duration, error) {
			start := time.Now()
			cap := ds.BaselineCap
			if cap <= 0 || cap >= ds.Index.P {
				sel, err := s.Select(ds.Index, ds.Delta, p)
				return sel, time.Since(start), err
			}
			// Top-cap candidates by support.
			type fs struct{ r, sup int }
			all := make([]fs, ds.Index.P)
			for r := 0; r < ds.Index.P; r++ {
				all[r] = fs{r, len(ds.Index.IF[r])}
			}
			sort.Slice(all, func(i, j int) bool {
				if all[i].sup != all[j].sup {
					return all[i].sup > all[j].sup
				}
				return all[i].r < all[j].r
			})
			kept := make([]int, cap)
			for i := 0; i < cap; i++ {
				kept[i] = all[i].r
			}
			sort.Ints(kept)
			sub := ds.Index.Subindex(kept)
			if p > cap {
				p = cap
			}
			sel, err := s.Select(sub, ds.Delta, p)
			if err != nil {
				return nil, 0, err
			}
			mapped := make([]int, len(sel))
			for i, local := range sel {
				mapped[i] = kept[local]
			}
			return mapped, time.Since(start), nil
		},
	}
}

// DSPMAlgorithm wraps core.DSPM. The δ matrix is treated as an input (as
// in the paper: every distance-aware method consumes the same
// dissimilarities), so indexing time covers the majorization iteration.
func DSPMAlgorithm(cfg core.Config) Algorithm {
	return Algorithm{
		Name: "DSPM",
		Run: func(ds *Dataset, p int) ([]int, time.Duration, error) {
			c := cfg
			c.P = p
			start := time.Now()
			res, err := core.DSPM(ds.Index, ds.Delta, c)
			if err != nil {
				return nil, 0, err
			}
			return res.Selected, time.Since(start), nil
		},
	}
}

// DSPMapAlgorithm wraps core.DSPMap with partition size b. Unlike DSPM it
// evaluates dissimilarities lazily inside partitions, which is what makes
// it scale; its indexing time therefore includes those MCS computations
// only. Its sub-runs run on one worker: DSPM's indexing time is serial
// too, so Figs. 8 and 9 compare algorithms, not core counts.
func DSPMapAlgorithm(b int, seed int64, cfg core.Config) Algorithm {
	return Algorithm{
		Name: "DSPMap",
		Run: func(ds *Dataset, p int) ([]int, time.Duration, error) {
			c := cfg
			c.P = p
			dis := func(i, j int) float64 {
				if ds.Delta != nil {
					return ds.Delta[i][j]
				}
				return ds.Metric.DissimilarityBudget(ds.DB[i], ds.DB[j], ds.MCSOpt)
			}
			start := time.Now()
			res, err := core.DSPMap(ds.Index, dis, core.MapConfig{Core: c, B: b, Seed: seed, Workers: 1})
			if err != nil {
				return nil, 0, err
			}
			return res.Selected, time.Since(start), nil
		},
	}
}

// StandardAlgorithms returns the eight algorithms of Exp-1/Exp-2 in the
// paper's ordering: DSPM, Original, Sample, SFS, MICI, MCFS, UDFS, NDFS.
func StandardAlgorithms(seed int64) []Algorithm {
	return []Algorithm{
		DSPMAlgorithm(core.Config{}),
		timedSelector(baselines.Original{}),
		timedSelector(baselines.Sample{Seed: seed}),
		cappedSelector(baselines.SFS{}),
		cappedSelector(baselines.MICI{}),
		cappedSelector(baselines.MCFS{}),
		cappedSelector(baselines.UDFS{}),
		cappedSelector(baselines.NDFS{Seed: seed}),
	}
}

// SelectionVectors builds the database-side binary vectors restricted to
// the selected features, in selection order.
func SelectionVectors(ds *Dataset, sel []int) []*vecspace.BitVector {
	sub := ds.Index.Subindex(sel)
	out := make([]*vecspace.BitVector, sub.N)
	for i := 0; i < sub.N; i++ {
		out[i] = sub.Vector(i)
	}
	return out
}
