package graphdim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

func buildSmall(t *testing.T, algo Algorithm) (*Index, []*Graph) {
	t.Helper()
	db := dataset.Chemical(dataset.ChemConfig{N: 40, MinVertices: 8, MaxVertices: 14, Seed: 5})
	idx, err := Build(db, Options{
		Dimensions: 20,
		Tau:        0.1,
		MCSBudget:  3000,
		Algorithm:  algo,
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return idx, db
}

// graphOf resolves id in ix's current snapshot, tombstoned or not — the
// flat reference index's graph lookup.
func graphOf(ix *Index, id int) *Graph {
	g, _ := ix.snap.Load().graphAt(id)
	return g
}

func TestBuildAndQueryDSPM(t *testing.T) {
	idx, db := buildSmall(t, DSPM)
	if len(idx.Dimensions()) == 0 || len(idx.Dimensions()) > 20 {
		t.Fatalf("dimension count %d out of range", len(idx.Dimensions()))
	}
	if len(idx.weights) != len(idx.Dimensions()) {
		t.Fatalf("weights not aligned with dimensions")
	}
	if live := idx.snap.Load().live(); live != len(db) {
		t.Fatalf("live graphs = %d, want %d", live, len(db))
	}
	// Self query: graph 7 must be its own nearest neighbour (distance 0).
	sr, err := idx.Search(context.Background(), db[7], SearchOptions{K: 3})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	res := sr.Results
	if res[0].Distance != 0 {
		t.Errorf("self query distance %v, want 0", res[0].Distance)
	}
	found := false
	for _, r := range res {
		if r.ID == 7 {
			found = true
		}
	}
	if !found {
		t.Errorf("self graph not in top-3 (ties possible, but id-tiebreak should include it): %v", res)
	}
}

func TestBuildAndQueryDSPMap(t *testing.T) {
	idx, db := buildSmall(t, DSPMap)
	sr, err := idx.Search(context.Background(), db[3], SearchOptions{K: 5})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	res := sr.Results
	if len(res) != 5 {
		t.Fatalf("got %d results, want 5", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Distance < res[i-1].Distance {
			t.Errorf("results not sorted by distance")
		}
	}
}

func TestExactEngineAgreesOnSelf(t *testing.T) {
	idx, db := buildSmall(t, DSPM)
	res, err := idx.Search(context.Background(), db[2], SearchOptions{K: 2, Engine: EngineExact})
	if err != nil {
		t.Fatalf("exact Search: %v", err)
	}
	if first := res.Results[0]; first.ID != 2 || first.Distance != 0 {
		t.Errorf("exact self query should return itself first, got %v", first)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Errorf("empty database must error")
	}
	db := dataset.Chemical(dataset.ChemConfig{N: 1, Seed: 1})
	if _, err := Build(db, Options{}); err == nil {
		t.Errorf("single graph must error")
	}
	db = dataset.Chemical(dataset.ChemConfig{N: 5, Seed: 1})
	if _, err := Build(db, Options{Algorithm: Algorithm(9)}); err == nil {
		t.Errorf("unknown algorithm must error")
	}
}

func TestQueryValidation(t *testing.T) {
	idx, db := buildSmall(t, DSPM)
	ctx := context.Background()
	if _, err := idx.Search(ctx, nil, SearchOptions{K: 3}); err == nil {
		t.Errorf("nil query must error")
	}
	if _, err := idx.Search(ctx, db[0], SearchOptions{K: 0}); err == nil {
		t.Errorf("k=0 must error")
	}
	if _, err := idx.Search(ctx, nil, SearchOptions{K: 3, Engine: EngineExact}); err == nil {
		t.Errorf("nil exact query must error")
	}
	if _, err := idx.Search(ctx, db[0], SearchOptions{K: -1, Engine: EngineExact}); err == nil {
		t.Errorf("negative k must error")
	}
	res, err := idx.Search(ctx, db[0], SearchOptions{K: 10_000})
	if err != nil {
		t.Fatalf("huge k: %v", err)
	}
	if len(res.Results) != len(db) {
		t.Errorf("huge k should clamp to database size")
	}
}

func TestContainsWrapper(t *testing.T) {
	target := NewGraph(3)
	target.MustAddEdge(0, 1, 0)
	target.MustAddEdge(1, 2, 0)
	pattern := NewGraph(2)
	pattern.MustAddEdge(0, 1, 0)
	if !Contains(target, pattern) {
		t.Errorf("edge pattern should be contained in path")
	}
}

func TestReadWriteGraphs(t *testing.T) {
	db := dataset.Chemical(dataset.ChemConfig{N: 4, Seed: 2})
	var buf bytes.Buffer
	if err := WriteGraphs(&buf, db); err != nil {
		t.Fatalf("WriteGraphs: %v", err)
	}
	back, err := ReadGraphs(&buf)
	if err != nil {
		t.Fatalf("ReadGraphs: %v", err)
	}
	if len(back) != len(db) {
		t.Fatalf("round trip count mismatch")
	}
	for i := range db {
		if db[i].N() != back[i].N() || db[i].M() != back[i].M() {
			t.Fatalf("graph %d changed shape", i)
		}
	}
}

// TestBuildDeterministicAcrossWorkers asserts the core contract of the
// parallel build: Workers is a performance knob, not a semantics knob.
// Identical inputs must select identical dimensions with identical
// weights at any parallelism.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	db := dataset.Chemical(dataset.ChemConfig{N: 30, MinVertices: 8, MaxVertices: 12, Seed: 11})
	for _, algo := range []Algorithm{DSPM, DSPMap} {
		opt := Options{Dimensions: 15, Tau: 0.15, MCSBudget: 2000, Algorithm: algo, Seed: 3}
		var builds [2]*Index
		for i, workers := range []int{1, 8} {
			opt.Workers = workers
			ix, err := Build(db, opt)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			builds[i] = ix
		}
		seq, par := builds[0], builds[1]
		if !reflect.DeepEqual(graphsToStrings(seq.Dimensions()), graphsToStrings(par.Dimensions())) {
			t.Fatalf("algo %v: Workers=1 and Workers=8 selected different dimensions", algo)
		}
		if !reflect.DeepEqual(seq.weights, par.weights) {
			t.Fatalf("algo %v: Workers=1 and Workers=8 produced different weights", algo)
		}
	}
}

func graphsToStrings(gs []*Graph) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.String()
	}
	return out
}
