package graphdim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
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
	if s := idx.snap.Load(); s.live() != 50 || len(s.db) != 50 {
		t.Fatalf("live/total = %d/%d, want 50/50", s.live(), len(s.db))
	}
	assertOneVectorStore(t, "never-searched build + Add", idx)

	// Each added graph must now be findable — a self query returns its
	// new id at distance 0.
	for i, g := range extra {
		res, err := idx.Search(context.Background(), g, SearchOptions{K: 50})
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

	reloaded := reopenAsCollection(t, built)
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
	if want, got := built.snap.Load().staleRatio(), reloaded.StaleRatios()[0]; want != got {
		t.Errorf("stale ratios diverged: %v vs %v", want, got)
	}
}

// serveIndex serves idx as a collection of shards shards in an
// in-memory store closed with the test.
func serveIndex(t *testing.T, idx *Index, shards int) *Collection {
	t.Helper()
	store := NewStore(StoreOptions{})
	t.Cleanup(store.Close)
	c, err := store.CreateFromIndex("c", idx, CollectionOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// tombstones counts the collection's tombstoned id slots.
func tombstones(c *Collection) int {
	n := 0
	for _, sh := range c.Stats().Shards {
		n += sh.Total - sh.Live
	}
	return n
}

// TestRemoveTombstones runs on an in-memory collection and on a durable
// one, whose refused Removes must also leave the log as it was.
func TestRemoveTombstones(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "in memory", true: "durable"}[durable], func(t *testing.T) {
			testRemoveTombstones(t, durable)
		})
	}
}

func testRemoveTombstones(t *testing.T, durable bool) {
	idx, db := buildSmall(t, DSPM)
	c := serveIndex(t, idx, 2)
	if durable {
		s, _ := newCheckpointStore(t)
		var err error
		if c, err = s.CreateFromIndex("c", idx, CollectionOptions{Shards: 2}); err != nil {
			t.Fatal(err)
		}
	}
	appends := func() int64 {
		if st := c.Stats().WAL; st != nil {
			return st.Appends
		}
		return 0
	}
	n := c.Size()
	isRemoved := func(id int) bool {
		s, local := c.resolve(id)
		return local >= 0 && s.isDead(local)
	}

	if err := c.Remove(3, 17); err != nil {
		t.Fatal(err)
	}
	if c.Size() != n-2 || tombstones(c) != 2 {
		t.Fatalf("Size/tombstones = %d/%d, want %d/2", c.Size(), tombstones(c), n-2)
	}
	if !isRemoved(3) || isRemoved(4) {
		t.Error("tombstones wrong")
	}
	for i, sh := range c.shards {
		assertOneVectorStore(t, "shard "+strconv.Itoa(i)+" after Remove", sh)
	}
	if g, ok := c.Graph(3); !ok || g == nil {
		t.Error("removed graph no longer addressable")
	}

	// No engine may return a tombstoned id, even for a self query.
	for _, engine := range []Engine{EngineMapped, EngineVerified, EngineExact} {
		res, err := c.Search(context.Background(), db[3], SearchOptions{K: n, Engine: engine})
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

	// Validation: out of range, double remove, atomicity. A refusal names
	// the id at fault and no log record, logs nothing and publishes
	// nothing.
	for _, tc := range []struct {
		name string
		ids  []int
		bad  int
	}{
		{"out-of-range Remove", []int{n}, n},
		{"negative Remove", []int{-1}, -1},
		{"double Remove", []int{3}, 3},
		{"duplicate ids in one Remove", []int{5, 5}, 5},
		{"batch with already-removed id", []int{6, 3}, 3},
	} {
		logged, gens := appends(), c.generations()
		err := c.Remove(tc.ids...)
		if err == nil {
			t.Errorf("%s accepted", tc.name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("id %d ", tc.bad)) || strings.Contains(msg, "wal record") {
			t.Errorf("%s: error %q, want one naming id %d and no log record", tc.name, msg, tc.bad)
		}
		if got := appends(); got != logged {
			t.Errorf("%s: the log took %d appends", tc.name, got-logged)
		}
		if got := c.generations(); !slices.Equal(got, gens) {
			t.Errorf("%s: generations moved from %v to %v", tc.name, gens, got)
		}
	}
	if tombstones(c) != 2 || isRemoved(6) {
		t.Error("failed Remove was not atomic")
	}
	if err := c.Remove(); err != nil {
		t.Errorf("empty Remove = %v", err)
	}
	logged := appends()
	if err := c.Remove(6); err != nil {
		t.Fatalf("a valid Remove after the refusals: %v", err)
	}
	if !isRemoved(6) || tombstones(c) != 3 {
		t.Error("the valid Remove did not land")
	}
	if want := logged + map[bool]int64{false: 0, true: 1}[durable]; appends() != want {
		t.Errorf("the valid Remove left %d appends, want %d", appends(), want)
	}
}

func TestStaleRatio(t *testing.T) {
	all := dataset.Chemical(dataset.ChemConfig{N: 60, MinVertices: 8, MaxVertices: 12, Seed: 8})
	idx, err := Build(all[:40], Options{Dimensions: 12, Tau: 0.15, MCSBudget: 1500})
	if err != nil {
		t.Fatal(err)
	}
	c := serveIndex(t, idx, 1)
	ratio := func() float64 { return c.StaleRatios()[0] }
	if got := ratio(); got != 0 {
		t.Fatalf("fresh StaleRatio = %v, want 0", got)
	}
	if _, err := c.Add(context.Background(), all[40:50]...); err != nil {
		t.Fatal(err)
	}
	// 10 added of 50 slots.
	if got, want := ratio(), 10.0/50.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("after add: StaleRatio = %v, want %v", got, want)
	}
	if err := c.Remove(0, 1, 2, 3, 4); err != nil {
		t.Fatal(err)
	}
	// (10 added + 5 removed) / 50 slots.
	if got, want := ratio(), 15.0/50.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("after remove: StaleRatio = %v, want %v", got, want)
	}
	if got := c.Stats().Shards[0].StaleRatio; got != ratio() {
		t.Errorf("Stats reports StaleRatio %v, StaleRatios %v", got, ratio())
	}
	// Compact drops the 5 gone build graphs: 10 unseen of 45 live.
	if _, err := c.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := ratio(), 10.0/45.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("after compact: StaleRatio = %v, want %v", got, want)
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
	s, dir := newCheckpointStore(t)
	c, err := s.CreateFromIndex("c", idx, CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := func() float64 { return c.StaleRatios()[0] }
	ids, err := c.Add(context.Background(), all[40:]...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(ids...); err != nil {
		t.Fatal(err)
	}
	// The live database is the build-time database again: not stale.
	if got := ratio(); got != 0 {
		t.Errorf("add-then-remove StaleRatio = %v, want 0", got)
	}
	// Removing a build-time graph is real drift.
	if err := c.Remove(0); err != nil {
		t.Fatal(err)
	}
	if got, want := ratio(), 1.0/50.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("after base removal: StaleRatio = %v, want %v", got, want)
	}
	// And the distinction survives persistence.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got := reopenCollection(t, dir).StaleRatios()[0]; got != ratio() {
		t.Errorf("StaleRatio changed across persistence: %v vs %v", got, ratio())
	}
}

// TestConcurrentSearchersAndUpdaters hammers one collection with
// lock-free readers while writers add, remove and compact — the
// copy-on-write contract, meaningful under -race. Readers must always
// observe a consistent snapshot: every result id resolvable, and no
// shard's stats row with more live graphs than id slots (a row read
// across a Remove plus Compact would count the live graphs before the
// repack and the slots after it).
func TestConcurrentSearchersAndUpdaters(t *testing.T) {
	all := dataset.Chemical(dataset.ChemConfig{N: 60, MinVertices: 8, MaxVertices: 12, Seed: 9})
	idx, err := Build(all[:30], Options{Dimensions: 12, Tau: 0.15, MCSBudget: 1500, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := serveIndex(t, idx, 2)
	ctx := context.Background()
	q := all[0]

	var writers, readers sync.WaitGroup
	errCh := make(chan error, 64)
	var stop atomic.Bool

	// Writers: one adder, one remover that compacts after every remove.
	writers.Add(2)
	go func() {
		defer writers.Done()
		for _, g := range all[30:] {
			if _, err := c.Add(ctx, g); err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for id := 0; id < 20; id++ {
			if err := c.Remove(id); err != nil {
				errCh <- err
				return
			}
			if _, err := c.Compact(ctx); err != nil {
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
				res, err := c.Search(ctx, q, SearchOptions{K: 5})
				if err != nil {
					errCh <- err
					return
				}
				for _, r := range res.Results {
					if r.ID < 0 || r.ID >= 60 {
						errCh <- errors.New("result id out of range")
						return
					}
				}
				for _, sh := range c.Stats().Shards {
					if sh.Live > sh.Total {
						errCh <- errors.New("shard stats: more live graphs than id slots")
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

	st := c.Stats()
	if st.NextID != 60 || st.Live != 40 || tombstones(c) != 0 {
		t.Fatalf("final state NextID/Live/tombstones = %d/%d/%d, want 60/40/0",
			st.NextID, st.Live, tombstones(c))
	}
}

func TestAddContextCancelled(t *testing.T) {
	idx, _ := buildSmall(t, DSPM)
	c := serveIndex(t, idx, 2)
	extra := dataset.Chemical(dataset.ChemConfig{N: 3, MinVertices: 8, MaxVertices: 12, Seed: 10})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := c.Stats()
	if _, err := c.Add(ctx, extra...); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Add err = %v, want context.Canceled", err)
	}
	if after := c.Stats(); after.NextID != before.NextID || !reflect.DeepEqual(after.Generations, before.Generations) {
		t.Error("cancelled Add published graphs")
	}
}

// removeGlobal tombstones the given collection-global ids (on a
// stand-alone index, its own ids) on one index directly, outside any
// collection's log — how the model and the equivalence suites remove.
// The translation happens under the writer lock, so no reclaim can
// renumber the shard between the lookup and the publish.
func (ix *Index) removeGlobal(globals []int) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	cur := ix.snap.Load()
	ids := make([]int, len(globals))
	for i, g := range globals {
		if ids[i] = cur.localOf(g); ids[i] < 0 {
			return fmt.Errorf("graphdim: id %d not in store", g)
		}
	}
	return ix.removeLocked(cur, ids)
}

// removeLocked validates ids against cur, the current snapshot, and
// publishes cur.tombstoned(ids); ix.mu is held.
func (ix *Index) removeLocked(cur *snapshot, ids []int) error {
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if id < 0 || id >= len(cur.db) {
			return fmt.Errorf("graphdim: id %d out of range [0,%d)", id, len(cur.db))
		}
		if cur.isDead(id) || seen[id] {
			return fmt.Errorf("graphdim: id %d already removed", id)
		}
		seen[id] = true
	}
	ix.snap.Store(cur.tombstoned(ids))
	ix.gen.Add(1)
	return nil
}
