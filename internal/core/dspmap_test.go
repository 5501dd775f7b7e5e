package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/vecspace"
)

func TestDSPMapValidation(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	idx, delta := randomProblem(r, 10, 5)
	dis := func(i, j int) float64 { return delta[i][j] }
	if _, err := DSPMap(idx, dis, MapConfig{B: 1, Core: Config{P: 2}}); err == nil {
		t.Errorf("B=1 must error")
	}
	if _, err := DSPMap(idx, dis, MapConfig{B: 4, Core: Config{P: 0}}); err == nil {
		t.Errorf("P=0 must error")
	}
}

func newTestDspmap(idx *vecspace.Index, delta [][]float64, b int, seed int64) *dspmap {
	d := &dspmap{
		idx: idx,
		dis: func(i, j int) float64 { return delta[i][j] },
		cfg: MapConfig{B: b, SampleSize: 8, Core: Config{P: 2, MaxIter: 5}},
		rng: rand.New(rand.NewSource(seed)),
	}
	d.vectors = make([]*vecspace.BitVector, idx.N)
	for i := range d.vectors {
		d.vectors[i] = idx.Vector(i)
	}
	return d
}

func TestPartitionInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for iter := 0; iter < 15; iter++ {
		n := 15 + r.Intn(80)
		b := 3 + r.Intn(10)
		idx, delta := randomProblem(r, n, 10)
		d := newTestDspmap(idx, delta, b, int64(iter))
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		parts := d.partition(all)

		// Invariant 1: each part has between 1 and b graphs.
		for _, p := range parts {
			if len(p) == 0 || len(p) > b {
				t.Fatalf("iter %d: partition size %d out of (0,%d]", iter, len(p), b)
			}
		}
		// Invariant 2: parts are disjoint and cover all ids.
		var flat []int
		for _, p := range parts {
			flat = append(flat, p...)
		}
		sort.Ints(flat)
		if len(flat) != n {
			t.Fatalf("iter %d: partition covers %d ids, want %d", iter, len(flat), n)
		}
		for i, id := range flat {
			if id != i {
				t.Fatalf("iter %d: partition not a permutation of 0..n-1", iter)
			}
		}
		// Invariant 3: number of parts is ⌈n/b⌉ (the balancing step makes
		// every left subtree an exact multiple of b).
		want := (n + b - 1) / b
		if len(parts) != want {
			t.Fatalf("iter %d: %d parts, want %d (n=%d b=%d)", iter, len(parts), want, n, b)
		}
	}
}

func TestDSPMapEndToEnd(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 8; iter++ {
		n := 20 + r.Intn(50)
		b := 5 + r.Intn(8)
		idx, delta := randomProblem(r, n, 8)
		res, err := DSPMap(idx, func(i, j int) float64 { return delta[i][j] },
			MapConfig{B: b, SampleSize: 10, Core: Config{P: 2, MaxIter: 5}, Seed: int64(iter)})
		if err != nil {
			t.Fatalf("DSPMap: %v", err)
		}
		if len(res.Selected) != 2 {
			t.Fatalf("selected %d features, want 2", len(res.Selected))
		}
		if len(res.C) != idx.P {
			t.Fatalf("weight vector length %d, want %d", len(res.C), idx.P)
		}
	}
}

func TestDSPMapApproximatesDSPM(t *testing.T) {
	// On a problem with clearly informative features, DSPMap should select
	// mostly the same dimensions DSPM does.
	r := rand.New(rand.NewSource(21))
	idx, delta := randomProblem(r, 60, 12)
	exact, err := DSPM(idx, delta, Config{P: 4, MaxIter: 20})
	if err != nil {
		t.Fatalf("DSPM: %v", err)
	}
	approx, err := DSPMap(idx, func(i, j int) float64 { return delta[i][j] },
		MapConfig{B: 20, Core: Config{P: 4, MaxIter: 20}, Seed: 5})
	if err != nil {
		t.Fatalf("DSPMap: %v", err)
	}
	inExact := map[int]bool{}
	for _, f := range exact.Selected {
		inExact[f] = true
	}
	overlap := 0
	for _, f := range approx.Selected {
		if inExact[f] {
			overlap++
		}
	}
	// Random dissimilarities make full agreement unlikely; require a
	// majority overlap as a smoke-level consistency check.
	if overlap < 2 {
		t.Errorf("DSPMap selected %v, DSPM selected %v; overlap %d < 2", approx.Selected, exact.Selected, overlap)
	}
}

func TestDSPMapDeterministicForSeed(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	idx, delta := randomProblem(r, 40, 10)
	dis := func(i, j int) float64 { return delta[i][j] }
	cfg := MapConfig{B: 10, Core: Config{P: 3, MaxIter: 10}, Seed: 99}
	a, err1 := DSPMap(idx, dis, cfg)
	b, err2 := DSPMap(idx, dis, cfg)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v %v", err1, err2)
	}
	for i := range a.C {
		if a.C[i] != b.C[i] {
			t.Fatalf("same seed produced different weights at %d", i)
		}
	}
}

func TestDSPMapLazyDissimilarityScope(t *testing.T) {
	// DSPMap must never request δ for pairs outside partitions or merge
	// samples; in particular the number of distinct pairs evaluated must
	// be far below n(n-1)/2 for many partitions.
	r := rand.New(rand.NewSource(12))
	n := 100
	idx, delta := randomProblem(r, n, 10)
	type pair struct{ i, j int }
	asked := map[pair]bool{}
	var mu sync.Mutex // DSPMap's sub-runs call dis concurrently
	dis := func(i, j int) float64 {
		if i == j {
			t.Errorf("dissimilarity asked for identical pair %d", i)
		}
		a, b := i, j
		if a > b {
			a, b = b, a
		}
		mu.Lock()
		asked[pair{a, b}] = true
		mu.Unlock()
		return delta[i][j]
	}
	if _, err := DSPMap(idx, dis, MapConfig{B: 10, Core: Config{P: 3, MaxIter: 5}, Seed: 7}); err != nil {
		t.Fatalf("DSPMap: %v", err)
	}
	all := n * (n - 1) / 2
	if len(asked) >= all/2 {
		t.Errorf("DSPMap evaluated %d of %d pairs; expected locality", len(asked), all)
	}
}
