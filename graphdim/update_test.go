package graphdim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
)

// assertOneVectorStore checks the invariant that replaced the scan's
// stale-block guard: block and graph slots cover
// the same ids, and lane id holds exactly the vector the mapper gives
// graph id.
func assertOneVectorStore(t *testing.T, label string, ix *Index) {
	t.Helper()
	s := ix.snap.Load()
	if s.block.N() != len(s.db) {
		t.Fatalf("%s: block covers %d ids, db %d", label, s.block.N(), len(s.db))
	}
	for id := range s.db {
		g, err := s.graphAt(id)
		if err != nil {
			t.Fatal(err)
		}
		if s.block.Vector(id).HammingDistance(ix.mapper.Map(g)) != 0 {
			t.Fatalf("%s: block lane %d of %d is not graph %d's mapped vector", label, id, len(s.db), id)
		}
	}
}

func TestAddMakesGraphsSearchable(t *testing.T) {
	all := dataset.Chemical(dataset.ChemConfig{N: 50, MinVertices: 8, MaxVertices: 14, Seed: 5})
	base, extra := all[:40], all[40:]
	idx, err := Build(base, Options{Dimensions: 20, Tau: 0.1, MCSBudget: 3000})
	if err != nil {
		t.Fatal(err)
	}

	ids, err := idx.Add(extra...)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{40, 41, 42, 43, 44, 45, 46, 47, 48, 49}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("assigned ids %v, want %v", ids, want)
	}
	if idx.Size() != 50 || idx.TotalGraphs() != 50 {
		t.Fatalf("Size/TotalGraphs = %d/%d, want 50/50", idx.Size(), idx.TotalGraphs())
	}
	assertOneVectorStore(t, "never-searched build + Add", idx)

	// Each added graph must now be findable — a self query returns its
	// new id at distance 0.
	for i, g := range extra {
		res, err := idx.Search(context.Background(), g, SearchOptions{K: idx.Size()})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range res.Results {
			if r.ID == ids[i] {
				found = true
				if r.Distance != 0 {
					t.Errorf("added graph %d: self distance %v, want 0", ids[i], r.Distance)
				}
			}
		}
		if !found {
			t.Errorf("added graph %d missing from full scan", ids[i])
		}
	}

	// Nil and empty adds.
	if _, err := idx.Add(nil); err == nil {
		t.Error("Add(nil graph) accepted")
	}
	if ids, err := idx.Add(); err != nil || ids != nil {
		t.Errorf("empty Add = %v, %v", ids, err)
	}
}

// TestReloadedPlusAddMatchesDirectAdd pins the acceptance criterion: an
// index persisted, reloaded, and extended via Add answers queries
// identically to the same build extended directly — same dimensions, same
// database, same mapping.
func TestReloadedPlusAddMatchesDirectAdd(t *testing.T) {
	all := dataset.Chemical(dataset.ChemConfig{N: 48, MinVertices: 8, MaxVertices: 14, Seed: 6})
	base, extra := all[:36], all[36:]
	built, err := Build(base, Options{Dimensions: 18, Tau: 0.1, MCSBudget: 3000})
	if err != nil {
		t.Fatal(err)
	}

	reloaded := reopenAsCollection(t, built, MemoryAuto)
	if _, err := built.Add(extra...); err != nil {
		t.Fatal(err)
	}
	if _, err := reloaded.Add(context.Background(), extra...); err != nil {
		t.Fatal(err)
	}

	queries := dataset.Chemical(dataset.ChemConfig{N: 6, MinVertices: 8, MaxVertices: 14, Seed: 77})
	for qi, q := range queries {
		for _, opt := range []SearchOptions{
			{K: 10},
			{K: 10, Engine: EngineVerified, VerifyFactor: 2},
			{K: 10, Engine: EngineExact},
		} {
			a, err := built.Search(context.Background(), q, opt)
			if err != nil {
				t.Fatal(err)
			}
			b, err := reloaded.Search(context.Background(), q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Results, b.Results) {
				t.Errorf("query %d engine %v: direct %v vs reloaded %v", qi, opt.Engine, a.Results, b.Results)
			}
		}
	}
	if got := reloaded.StaleRatios()[0]; built.StaleRatio() != got {
		t.Errorf("stale ratios diverged: %v vs %v", built.StaleRatio(), got)
	}
}

func TestRemoveTombstones(t *testing.T) {
	idx, db := buildSmall(t, DSPM)
	n := idx.Size()

	if err := idx.Remove(3, 17); err != nil {
		t.Fatal(err)
	}
	if idx.Size() != n-2 || idx.Removed() != 2 {
		t.Fatalf("Size/Removed = %d/%d, want %d/2", idx.Size(), idx.Removed(), n-2)
	}
	if !idx.IsRemoved(3) || idx.IsRemoved(4) {
		t.Error("IsRemoved wrong")
	}
	assertOneVectorStore(t, "after Remove", idx)
	if idx.Graph(3) == nil {
		t.Error("removed graph no longer addressable")
	}

	// No engine may return a tombstoned id, even for a self query.
	for _, engine := range []Engine{EngineMapped, EngineVerified, EngineExact} {
		res, err := idx.Search(context.Background(), db[3], SearchOptions{K: idx.TotalGraphs(), Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) != n-2 {
			t.Errorf("%v: %d results after removal, want %d", engine, len(res.Results), n-2)
		}
		for _, r := range res.Results {
			if r.ID == 3 || r.ID == 17 {
				t.Errorf("%v returned removed id %d", engine, r.ID)
			}
		}
	}

	// Validation: out of range, double remove, atomicity.
	if err := idx.Remove(idx.TotalGraphs()); err == nil {
		t.Error("out-of-range Remove accepted")
	}
	if err := idx.Remove(-1); err == nil {
		t.Error("negative Remove accepted")
	}
	if err := idx.Remove(3); err == nil {
		t.Error("double Remove accepted")
	}
	if err := idx.Remove(5, 5); err == nil {
		t.Error("duplicate ids in one Remove accepted")
	}
	before := idx.Removed()
	if err := idx.Remove(6, 3); err == nil {
		t.Error("batch with already-removed id accepted")
	}
	if idx.Removed() != before {
		t.Error("failed Remove was not atomic")
	}
	if err := idx.Remove(); err != nil {
		t.Errorf("empty Remove = %v", err)
	}
}

func TestStaleRatio(t *testing.T) {
	all := dataset.Chemical(dataset.ChemConfig{N: 60, MinVertices: 8, MaxVertices: 12, Seed: 8})
	idx, err := Build(all[:40], Options{Dimensions: 12, Tau: 0.15, MCSBudget: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.StaleRatio(); got != 0 {
		t.Fatalf("fresh StaleRatio = %v, want 0", got)
	}
	if _, err := idx.Add(all[40:50]...); err != nil {
		t.Fatal(err)
	}
	// 10 added of 50 slots.
	if got, want := idx.StaleRatio(), 10.0/50.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("after add: StaleRatio = %v, want %v", got, want)
	}
	if err := idx.Remove(0, 1, 2, 3, 4); err != nil {
		t.Fatal(err)
	}
	// (10 added + 5 removed) / 50 slots.
	if got, want := idx.StaleRatio(), 15.0/50.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("after remove: StaleRatio = %v, want %v", got, want)
	}
	if r := idx.StaleRatio(); r < 0 || r > 1 {
		t.Errorf("StaleRatio %v outside [0,1]", r)
	}
}

// TestStaleRatioAddThenRemoveCancels pins the no-double-count property:
// adding graphs and removing exactly those graphs leaves the live
// database identical to what the build-time ratio reflected.
func TestStaleRatioAddThenRemoveCancels(t *testing.T) {
	all := dataset.Chemical(dataset.ChemConfig{N: 50, MinVertices: 8, MaxVertices: 12, Seed: 16})
	idx, err := Build(all[:40], Options{Dimensions: 12, Tau: 0.15, MCSBudget: 1500})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := idx.Add(all[40:]...)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Remove(ids...); err != nil {
		t.Fatal(err)
	}
	// The live database is the build-time database again: not stale.
	if got := idx.StaleRatio(); got != 0 {
		t.Errorf("add-then-remove StaleRatio = %v, want 0", got)
	}
	// Removing a build-time graph is real drift.
	if err := idx.Remove(0); err != nil {
		t.Fatal(err)
	}
	if got, want := idx.StaleRatio(), 1.0/50.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("after base removal: StaleRatio = %v, want %v", got, want)
	}
	// And the distinction survives persistence.
	if got := reopenAsCollection(t, idx, MemoryAuto).StaleRatios()[0]; got != idx.StaleRatio() {
		t.Errorf("StaleRatio changed across persistence: %v vs %v", got, idx.StaleRatio())
	}
}

// TestConcurrentSearchersAndUpdaters hammers one index with lock-free
// readers while writers add and remove — the copy-on-write contract,
// meaningful under -race. Readers must always observe a consistent
// snapshot: every result id resolvable, no partial states.
func TestConcurrentSearchersAndUpdaters(t *testing.T) {
	all := dataset.Chemical(dataset.ChemConfig{N: 60, MinVertices: 8, MaxVertices: 12, Seed: 9})
	idx, err := Build(all[:30], Options{Dimensions: 12, Tau: 0.15, MCSBudget: 1500, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := all[0]

	var writers, readers sync.WaitGroup
	errCh := make(chan error, 64)
	var stop atomic.Bool

	// Writers: one adder, one remover.
	writers.Add(2)
	go func() {
		defer writers.Done()
		for _, g := range all[30:] {
			if _, err := idx.Add(g); err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for id := 0; id < 20; id++ {
			if err := idx.Remove(id); err != nil {
				errCh <- err
				return
			}
		}
	}()

	// Readers run until the writers are done.
	for w := 0; w < 8; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				res, err := idx.Search(context.Background(), q, SearchOptions{K: 5})
				if err != nil {
					errCh <- err
					return
				}
				for _, r := range res.Results {
					if r.ID < 0 || r.ID >= idx.TotalGraphs() {
						errCh <- errors.New("result id out of range")
						return
					}
				}
			}
		}()
	}

	writers.Wait()
	stop.Store(true)
	readers.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if idx.TotalGraphs() != 60 || idx.Size() != 40 || idx.Removed() != 20 {
		t.Fatalf("final state Total/Size/Removed = %d/%d/%d, want 60/40/20",
			idx.TotalGraphs(), idx.Size(), idx.Removed())
	}
}

func TestAddContextCancelled(t *testing.T) {
	idx, _ := buildSmall(t, DSPM)
	extra := dataset.Chemical(dataset.ChemConfig{N: 3, MinVertices: 8, MaxVertices: 12, Seed: 10})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := idx.TotalGraphs()
	if _, err := idx.AddContext(ctx, extra...); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Add err = %v, want context.Canceled", err)
	}
	if idx.TotalGraphs() != before {
		t.Error("cancelled Add published graphs")
	}
}
