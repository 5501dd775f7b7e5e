package core_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// Ablation benchmarks for the paper's §5 optimisations: each runs DSPM or
// DSPMap with one technique swapped for its naive counterpart.

// benchConfig is the shared harness scale: large enough that the paper's
// shapes (who wins, by what factor) are visible, small enough that every
// ablation runs in seconds.
func benchConfig() experiments.Config {
	return experiments.Config{
		DBSize:      100,
		QueryCount:  20,
		Tau:         0.05,
		MaxEdges:    6,
		MCSBudget:   2000,
		BaselineCap: 200,
		Seed:        1,
	}
}

var (
	benchOnce sync.Once
	benchChem *experiments.Dataset
	benchErr  error
)

func chemBench(b *testing.B) *experiments.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchChem, benchErr = experiments.BuildChemical(benchConfig())
	})
	if benchErr != nil {
		b.Fatalf("building benchmark dataset: %v", benchErr)
	}
	return benchChem
}

func benchP(ds *experiments.Dataset) int {
	p := ds.Index.P / 4
	if p < 10 {
		p = 10
	}
	return p
}

// BenchmarkAblationUpdateC compares the simplified Theorem 5.1 weight
// update against the naive Eq. (7) computation.
func BenchmarkAblationUpdateC(b *testing.B) {
	ds := chemBench(b)
	for _, naive := range []bool{false, true} {
		name := "simplified"
		if naive {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DSPM(ds.Index, ds.Delta, core.Config{P: benchP(ds), MaxIter: 5, NaiveUpdateC: naive}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationComputeObj compares the inverted-list Algorithm 4
// against a dense objective computation.
func BenchmarkAblationComputeObj(b *testing.B) {
	ds := chemBench(b)
	for _, dense := range []bool{false, true} {
		name := "invertedlist"
		if dense {
			name = "dense"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DSPM(ds.Index, ds.Delta, core.Config{P: benchP(ds), MaxIter: 5, DenseObjective: dense}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationUpdateXbar compares the IF-list Algorithm 3 against the
// dense Guttman transform.
func BenchmarkAblationUpdateXbar(b *testing.B) {
	ds := chemBench(b)
	for _, dense := range []bool{false, true} {
		name := "iflist"
		if dense {
			name = "dense"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DSPM(ds.Index, ds.Delta, core.Config{P: benchP(ds), MaxIter: 5, DenseXbar: dense}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPartition compares Algorithm 7's similarity-driven
// partitioning against random partitioning inside DSPMap, reporting the
// resulting precision as well as cost.
func BenchmarkAblationPartition(b *testing.B) {
	ds := chemBench(b)
	dis := func(i, j int) float64 { return ds.Delta[i][j] }
	for _, random := range []bool{false, true} {
		name := "similarity"
		if random {
			name = "random"
		}
		b.Run(name, func(b *testing.B) {
			var prec float64
			for i := 0; i < b.N; i++ {
				res, err := core.DSPMap(ds.Index, dis, core.MapConfig{
					Core: core.Config{P: benchP(ds), MaxIter: 10},
					B:    len(ds.DB) / 4, Seed: 1, RandomPartition: random,
				})
				if err != nil {
					b.Fatal(err)
				}
				q, _ := experiments.EvaluateSelection(ds, res.Selected, 4)
				prec = q.Precision
			}
			b.ReportMetric(prec, "precision")
		})
	}
}
