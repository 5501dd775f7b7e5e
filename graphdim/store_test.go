package graphdim

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
)

// storeTestDB is a small synthetic database that mines reliably even when
// split across shards.
func storeTestDB(t *testing.T, n int, seed int64) []*Graph {
	t.Helper()
	return dataset.Synthetic(dataset.SynthConfig{N: n, AvgEdges: 12, Labels: 6, Seed: seed})
}

func storeTestOptions() Options {
	return Options{Dimensions: 16, Tau: 0.2, MCSBudget: 1500}
}

// newTestStore returns an in-memory store closed with the test.
func newTestStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore(StoreOptions{})
	t.Cleanup(s.Close)
	return s
}

func sameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Distance != want[i].Distance {
			t.Fatalf("%s: result %d = (id %d, %v), want (id %d, %v)",
				label, i, got[i].ID, got[i].Distance, want[i].ID, want[i].Distance)
		}
	}
}

// TestStoreShardedEquivalence is the acceptance criterion: for random
// queries and ks, a collection with >= 2 shards returns exactly the ranked
// id/score list of a single unsharded Index over the same graphs — for the
// mapped and exact engines, and for the verified engine once its candidate
// pool covers the database (smaller pools verify per shard, a superset of
// the unsharded candidates, so only that degenerate case is id-for-id
// comparable).
func TestStoreShardedEquivalence(t *testing.T) {
	db := storeTestDB(t, 36, 11)
	opt := storeTestOptions()
	flat, err := Build(db, opt)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s := newTestStore(t)
	ctx := context.Background()

	rng := rand.New(rand.NewSource(99))
	queries := append([]*Graph{}, db[3], db[17], db[35])
	queries = append(queries, storeTestDB(t, 4, 77)...) // unseen graphs
	for _, shards := range []int{2, 3, 5} {
		coll, err := s.Create(ctx, nameForShards(shards), db, CollectionOptions{Shards: shards, Build: opt})
		if err != nil {
			t.Fatalf("Create(%d shards): %v", shards, err)
		}
		for qi, q := range queries {
			k := 1 + rng.Intn(len(db)+5) // occasionally above the db size
			for _, sopt := range []SearchOptions{
				{K: k},
				{K: k, Engine: EngineExact},
				{K: k, Engine: EngineVerified, VerifyFactor: len(db)},
				{K: k, Metric: MetricDelta1, Engine: EngineExact},
				{K: k, Predicate: func(id int, g *Graph) bool { return id%2 == 0 }},
			} {
				want, err := flat.Search(ctx, q, sopt)
				if err != nil {
					t.Fatalf("flat Search: %v", err)
				}
				got, err := coll.Search(ctx, q, sopt)
				if err != nil {
					t.Fatalf("sharded Search: %v", err)
				}
				label := coll.Name() + "/" + got.Engine.String()
				sameResults(t, label, got.Results, want.Results)
				// Candidates counts the ids the engine actually scored.
				// For the mapped engine that depends on per-shard pruning
				// decisions (each shard's posting plan sees a different
				// slice), so only a sanity bound is portable; the MCS
				// engines score a pruning-independent candidate set and
				// stay exactly comparable.
				if got.Engine == EngineMapped {
					if got.Candidates < len(got.Results) {
						t.Errorf("%s query %d: candidates = %d < %d results", label, qi, got.Candidates, len(got.Results))
					}
				} else if got.Candidates != want.Candidates {
					t.Errorf("%s query %d: candidates = %d, want %d", label, qi, got.Candidates, want.Candidates)
				}
				if got.Matched.Count() != want.Matched.Count() {
					t.Errorf("%s query %d: matched = %d, want %d", label, qi, got.Matched.Count(), want.Matched.Count())
				}
			}
		}
	}
}

func nameForShards(n int) string {
	return "eq-" + string(rune('a'+n))
}

// TestStoreEquivalenceAfterUpdates extends the equivalence through Add,
// Remove, Compact and a further Add applied identically to both sides (the
// flat index has no Compact — a reclaim must be invisible to rankings).
func TestStoreEquivalenceAfterUpdates(t *testing.T) {
	db := storeTestDB(t, 30, 5)
	opt := storeTestOptions()
	flat, err := Build(db, opt)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s := newTestStore(t)
	ctx := context.Background()
	coll, err := s.Create(ctx, "upd", db, CollectionOptions{Shards: 3, Build: opt})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	addBoth := func(gs []*Graph) []int {
		t.Helper()
		flatIDs, err := flat.Add(gs...)
		if err != nil {
			t.Fatalf("flat Add: %v", err)
		}
		collIDs, err := coll.Add(ctx, gs...)
		if err != nil {
			t.Fatalf("collection Add: %v", err)
		}
		for i := range flatIDs {
			if flatIDs[i] != collIDs[i] {
				t.Fatalf("Add ids diverge at %d: flat %d, collection %d", i, flatIDs[i], collIDs[i])
			}
		}
		return collIDs
	}
	extra := storeTestDB(t, 8, 123)
	collIDs := addBoth(extra)
	removed := []int{2, 9, collIDs[1], collIDs[5]}
	if err := flat.Remove(removed...); err != nil {
		t.Fatalf("flat Remove: %v", err)
	}
	if err := coll.Remove(removed...); err != nil {
		t.Fatalf("collection Remove: %v", err)
	}

	queries := []*Graph{db[0], extra[2], extra[5]}
	check := func(label string) {
		t.Helper()
		for _, q := range queries {
			for _, sopt := range []SearchOptions{
				{K: 10},
				{K: 50, Engine: EngineExact},
				{K: 10, Engine: EngineVerified, VerifyFactor: 100},
			} {
				want, err := flat.Search(ctx, q, sopt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := coll.Search(ctx, q, sopt)
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, label+"/"+got.Engine.String(), got.Results, want.Results)
			}
			// Removed ids never come back.
			res, err := coll.Search(ctx, q, SearchOptions{K: coll.Size() + 10})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res.Results {
				for _, dead := range removed {
					if r.ID == dead {
						t.Fatalf("%s: removed id %d returned by Search", label, dead)
					}
				}
			}
		}
	}
	check("after updates")

	// Graph resolves live and tombstoned ids, and rejects unknown ones.
	if g, ok := coll.Graph(removed[0]); !ok || g == nil {
		t.Fatalf("Graph(%d) (tombstoned) not addressable", removed[0])
	}
	if _, ok := coll.Graph(coll.Stats().NextID + 3); ok {
		t.Fatal("Graph beyond the id space resolved")
	}
	if _, ok := coll.Graph(-1); ok {
		t.Fatal("Graph(-1) resolved")
	}

	if _, err := coll.Compact(ctx); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	check("after compact")
	for _, id := range removed {
		if _, ok := coll.Graph(id); ok {
			t.Fatalf("Graph(%d) resolves after its slot was reclaimed", id)
		}
	}
	if g, ok := coll.Graph(collIDs[0]); !ok || g != extra[0] {
		t.Fatalf("live id %d lost its graph across Compact", collIDs[0])
	}
	more := storeTestDB(t, 6, 321)
	queries = append(queries, more[0])
	addBoth(more)
	check("add after compact")
}

// TestStoreCompaction checks what Compact is: it reclaims tombstoned slots
// and nothing else — growth alone gives it nothing to do, dimensions and
// rankings never move, reclaimed ids stop resolving, and StaleRatio is
// afterwards live-unseen over live.
func TestStoreCompaction(t *testing.T) {
	db := storeTestDB(t, 16, 21)
	s := newTestStore(t)
	ctx := context.Background()
	coll, err := s.Create(ctx, "c", db, CollectionOptions{Shards: 2, Build: storeTestOptions()})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	dims := coll.Stats().Dimensions
	if dims == 0 {
		t.Fatal("Stats().Dimensions = 0")
	}

	// Triple the database: every shard is now well past any staleness
	// threshold, and Compact still has nothing to do — it never re-selects.
	extra := storeTestDB(t, 32, 500)
	ids, err := coll.Add(ctx, extra...)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	stale := coll.StaleRatios()
	if n, err := coll.Compact(ctx); err != nil || n != 0 {
		t.Fatalf("Compact with no tombstones = (%d, %v), want (0, nil)", n, err)
	}
	for i, r := range coll.StaleRatios() {
		if r < 0.3 || r != stale[i] {
			t.Fatalf("shard %d stale ratio %v (was %v), want unchanged and >= 0.3", i, r, stale[i])
		}
	}

	// Tombstone build-time and added graphs on both shards.
	removed := []int{0, 1, 2, 3, ids[0], ids[1], ids[2], ids[3]}
	if err := coll.Remove(removed...); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	before := make([]*SearchResult, len(extra))
	for i, q := range extra {
		if before[i], err = coll.Search(ctx, q, SearchOptions{K: coll.Size()}); err != nil {
			t.Fatal(err)
		}
	}
	gens := coll.Stats().Generations

	compacted, err := coll.Compact(ctx)
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if compacted != coll.Shards() {
		t.Fatalf("compacted %d shards, want %d", compacted, coll.Shards())
	}
	st := coll.Stats()
	if st.Dimensions != dims {
		t.Fatalf("dimensions %d after Compact, want %d", st.Dimensions, dims)
	}
	unseen := make([]int, coll.Shards()) // live graphs the selection never saw
	for _, id := range ids[4:] {
		unseen[placeID(id, coll.Shards())]++
	}
	for i, sh := range st.Shards {
		if sh.Compactions != 1 {
			t.Fatalf("shard %d compactions = %d, want 1", i, sh.Compactions)
		}
		if sh.Total != sh.Live {
			t.Fatalf("shard %d holds %d slots for %d live graphs after Compact", i, sh.Total, sh.Live)
		}
		if want := float64(unseen[i]) / float64(sh.Live); sh.StaleRatio != want {
			t.Fatalf("shard %d stale ratio %v after Compact, want live-unseen/live = %v", i, sh.StaleRatio, want)
		}
		if st.Generations[i] <= gens[i] {
			t.Fatalf("shard %d generation %d did not move across Compact (was %d)", i, st.Generations[i], gens[i])
		}
	}
	for _, id := range removed {
		if _, ok := coll.Graph(id); ok {
			t.Fatalf("Graph(%d) resolves after its slot was reclaimed", id)
		}
		if err := coll.Remove(id); err == nil {
			t.Fatalf("Remove(%d) of a reclaimed id succeeded", id)
		}
	}

	// Ids, vectors and therefore rankings survive: bit-identical results,
	// and every surviving added graph still self-matches at distance 0.
	for i, q := range extra {
		res, err := coll.Search(ctx, q, SearchOptions{K: coll.Size()})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "across Compact", res.Results, before[i].Results)
		if i < 4 {
			continue
		}
		found := false
		for _, r := range res.Results {
			if r.ID == ids[i] {
				found = true
				if r.Distance != 0 {
					t.Fatalf("self query %d: distance %v at own id, want 0", i, r.Distance)
				}
			}
		}
		if !found {
			t.Fatalf("id %d missing after compaction", ids[i])
		}
	}

	// Nothing left to reclaim.
	if n, err := coll.Compact(ctx); err != nil || n != 0 {
		t.Fatalf("idle Compact = (%d, %v), want (0, nil)", n, err)
	}
}

// TestStoreCompactionConcurrentSearch is the acceptance race test: a
// compaction triggered mid-search must complete without failing concurrent
// Search or Add calls. Run with -race.
func TestStoreCompactionConcurrentSearch(t *testing.T) {
	db := storeTestDB(t, 24, 42)
	s := newTestStore(t)
	ctx := context.Background()
	coll, err := s.Create(ctx, "race", db, CollectionOptions{Shards: 2, Build: storeTestOptions()})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	stop := make(chan struct{})
	errc := make(chan error, 32)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := db[w*3]
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := coll.Search(ctx, q, SearchOptions{K: 5}); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		seed := int64(1000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := coll.Add(ctx, storeTestDB(t, 4, seed)...); err != nil {
				errc <- err
				return
			}
			seed++
			time.Sleep(time.Millisecond)
		}
	}()

	for round := 0; round < 3; round++ {
		// Tombstones on both shards, so every round really swaps.
		ids, err := coll.Add(ctx, storeTestDB(t, 6, int64(2000+round))...)
		if err == nil {
			err = coll.Remove(ids...)
		}
		if err != nil {
			t.Errorf("round %d: preparing tombstones: %v", round, err)
			break
		}
		if _, err := coll.Compact(ctx); err != nil {
			t.Errorf("Compact round %d: %v", round, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("concurrent operation failed during compaction: %v", err)
	}

	// Post-race invariant: every live id resolves and self-searches.
	stats := coll.Stats()
	if stats.Live < len(db) {
		t.Fatalf("live %d < initial %d", stats.Live, len(db))
	}
}

// TestStorePersistence round-trips a multi-collection store through
// Save/OpenStore and checks the loaded store answers identically.
func TestStorePersistence(t *testing.T) {
	db := storeTestDB(t, 24, 33)
	opt := storeTestOptions()
	s := newTestStore(t)
	ctx := context.Background()
	c1, err := s.Create(ctx, "alpha", db, CollectionOptions{Shards: 3, Build: opt, Defaults: SearchOptions{K: 7, Engine: EngineVerified, VerifyFactor: 2}})
	if err != nil {
		t.Fatalf("Create alpha: %v", err)
	}
	if _, err := s.Create(ctx, "beta", db[:12], CollectionOptions{Build: opt}); err != nil {
		t.Fatalf("Create beta: %v", err)
	}
	// Leave alpha with adds and tombstones so base/stale state persists.
	ids, err := c1.Add(ctx, storeTestDB(t, 5, 321)...)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := c1.Remove(1, ids[2]); err != nil {
		t.Fatalf("Remove: %v", err)
	}

	dir := filepath.Join(t.TempDir(), "store")
	if err := s.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer loaded.Close()

	if got, want := loaded.Collections(), []string{"alpha", "beta"}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Collections() = %v, want %v", got, want)
	}
	l1, ok := loaded.Collection("alpha")
	if !ok {
		t.Fatal("alpha missing after load")
	}
	if l1.Shards() != 3 || l1.Size() != c1.Size() {
		t.Fatalf("loaded alpha: %d shards size %d, want 3 shards size %d", l1.Shards(), l1.Size(), c1.Size())
	}
	for _, q := range []*Graph{db[2], db[19]} {
		want, err := c1.Search(ctx, q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := l1.Search(ctx, q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// The zero options exercise the persisted defaults overlay too.
		if got.Engine != EngineVerified || len(got.Results) != len(want.Results) {
			t.Fatalf("loaded search: engine %v, %d results; want %v, %d", got.Engine, len(got.Results), want.Engine, len(want.Results))
		}
		sameResults(t, "persisted", got.Results, want.Results)
	}
	// The stale state survived: adding the same ratio of graphs keeps
	// working and ids continue from the persisted next_id.
	newIDs, err := l1.Add(ctx, storeTestDB(t, 2, 999)...)
	if err != nil {
		t.Fatal(err)
	}
	if newIDs[0] != c1.Stats().NextID {
		t.Fatalf("loaded store assigned id %d, want %d", newIDs[0], c1.Stats().NextID)
	}
}

func TestOpenStoreRejectsCorruptManifests(t *testing.T) {
	db := storeTestDB(t, 12, 3)
	s := newTestStore(t)
	coll, err := s.Create(context.Background(), "c", db, CollectionOptions{Shards: 2, Build: storeTestOptions()})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	_ = coll
	dir := filepath.Join(t.TempDir(), "store")
	if err := s.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	manifest := filepath.Join(dir, manifestName)
	good, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}

	for name, corrupt := range map[string]string{
		"bad placement": strings.Replace(string(good), placementSplitMix64, "modulo", 1),
		"bad version":   strings.Replace(string(good), `"version": 1`, `"version": 99`, 1),
		"not json":      "{",
	} {
		if err := os.WriteFile(manifest, []byte(corrupt), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStore(dir, StoreOptions{}); err == nil {
			t.Errorf("%s: OpenStore succeeded on a corrupt manifest", name)
		}
	}
	// Missing shard file.
	if err := os.WriteFile(manifest, good, 0o644); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "c", "shard-0001-*.gdx"))
	if err != nil || len(files) != 1 {
		t.Fatalf("shard file glob = %v, %v", files, err)
	}
	if err := os.Remove(files[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, StoreOptions{}); err == nil {
		t.Error("OpenStore succeeded with a missing shard file")
	}
}

// TestOpenStoreRefusesMixedDimensionSets: releases whose Compact re-selected
// dimensions per shard could checkpoint a collection whose shards rank in
// unrelated spaces. Such a directory must be refused by name in every
// memory mode, never served.
func TestOpenStoreRefusesMixedDimensionSets(t *testing.T) {
	db := storeTestDB(t, 24, 3)
	s := newTestStore(t)
	coll, err := s.Create(context.Background(), "c", db, CollectionOptions{Shards: 2, Build: storeTestOptions()})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := s.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if re, err := OpenStore(dir, StoreOptions{WAL: WALOptions{Disabled: true}}); err != nil {
		t.Fatalf("OpenStore of the untouched directory: %v", err)
	} else {
		re.Close()
		re.Close() // idempotent
	}

	// What the old per-shard rebuild left behind: shard 1 replaced by a
	// segment of exactly as many graphs, built over its own dimensions.
	n := coll.Stats().Shards[1].Total
	other, err := Build(storeTestDB(t, n, 77), Options{Dimensions: 9, Tau: 0.3, MCSBudget: 1500})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if other.dims == coll.shards[1].dims {
		t.Fatal("the replacement selected the very same dimensions; pick another seed")
	}
	files, err := filepath.Glob(filepath.Join(dir, "c", "shard-0001-*.gdx"))
	if err != nil || len(files) != 1 {
		t.Fatalf("shard file glob = %v, %v", files, err)
	}
	f, err := os.Create(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	want := `collection "c": shard 1 holds a different dimension set than shard 0 — compacted by an earlier release; re-create the collection`
	for _, mode := range []MemoryMode{MemoryAuto, MemoryMap, MemoryHeap} {
		re, err := OpenStore(dir, StoreOptions{Memory: mode, WAL: WALOptions{Disabled: true}})
		if err == nil {
			re.Close()
			t.Fatalf("memory mode %d: OpenStore served a collection with two dimension sets", mode)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("memory mode %d: OpenStore error %q, want it to say %q", mode, err, want)
		}
	}
}

// TestStoreResaveNeverCorruptsPreviousGeneration pins Save's durability
// contract: a re-save writes fresh files and swaps the manifest, so even
// interleaved saves leave a loadable store, and orphans are swept.
func TestStoreResaveNeverCorruptsPreviousGeneration(t *testing.T) {
	db := storeTestDB(t, 12, 4)
	s := newTestStore(t)
	ctx := context.Background()
	coll, err := s.Create(ctx, "c", db, CollectionOptions{Shards: 2, Build: storeTestOptions()})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := s.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, err := coll.Add(ctx, storeTestDB(t, 3, 40)...); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(dir); err != nil {
		t.Fatalf("re-Save: %v", err)
	}
	// The superseded generation's files are swept; one file per shard
	// remains and the store loads with the new contents.
	files, err := filepath.Glob(filepath.Join(dir, "c", "shard-*.gdx"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("found %d shard files after re-save, want 2: %v", len(files), files)
	}
	loaded, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore after re-save: %v", err)
	}
	defer loaded.Close()
	lc, _ := loaded.Collection("c")
	if lc.Size() != coll.Size() {
		t.Fatalf("loaded size %d, want %d", lc.Size(), coll.Size())
	}
}

func TestStoreCollectionLifecycle(t *testing.T) {
	db := storeTestDB(t, 12, 8)
	s := newTestStore(t)
	ctx := context.Background()
	opt := CollectionOptions{Build: storeTestOptions()}
	if _, err := s.Create(ctx, "a", db, opt); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := s.Create(ctx, "a", db, opt); err == nil {
		t.Fatal("duplicate Create succeeded")
	}
	for _, bad := range []string{"", "/etc/passwd", "a/b", ".hidden", "café", strings.Repeat("x", 200)} {
		if _, err := s.Create(ctx, bad, db, opt); err == nil {
			t.Errorf("Create(%q) accepted an invalid name", bad)
		}
	}
	if _, err := s.Create(ctx, "b", db, CollectionOptions{Shards: -1, Build: storeTestOptions()}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := s.Create(ctx, "b", db, CollectionOptions{Shards: maxShards + 1, Build: storeTestOptions()}); err == nil {
		t.Fatal("huge shard count accepted")
	}
	if err := s.Drop("missing"); err == nil {
		t.Fatal("Drop of a missing collection succeeded")
	}
	if err := s.Drop("a"); err != nil {
		t.Fatalf("Drop: %v", err)
	}
	if _, ok := s.Collection("a"); ok {
		t.Fatal("collection still reachable after Drop")
	}
}

// TestCollectionDefaultsOverlay pins the zero-field overlay semantics.
func TestCollectionDefaultsOverlay(t *testing.T) {
	db := storeTestDB(t, 14, 15)
	s := newTestStore(t)
	ctx := context.Background()
	coll, err := s.Create(ctx, "d", db, CollectionOptions{
		Shards: 2,
		Build:  storeTestOptions(),
		Defaults: SearchOptions{
			K:      4,
			Engine: EngineVerified, VerifyFactor: 2,
			Predicate: func(id int, g *Graph) bool { return id != 0 },
		},
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	res, err := coll.Search(ctx, db[0], SearchOptions{})
	if err != nil {
		t.Fatalf("Search with zero options: %v", err)
	}
	if res.Engine != EngineVerified || len(res.Results) != 4 {
		t.Fatalf("defaults not applied: engine %v, %d results", res.Engine, len(res.Results))
	}
	for _, r := range res.Results {
		if r.ID == 0 {
			t.Fatal("default predicate not applied")
		}
	}
	// Explicit fields win over the defaults.
	res, err = coll.Search(ctx, db[0], SearchOptions{K: 2, Engine: EngineExact, Predicate: func(int, *Graph) bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineExact || len(res.Results) != 2 || res.Results[0].ID != 0 {
		t.Fatalf("explicit options overridden: %+v", res)
	}
	// No default K and no explicit K must fail validation.
	plain, err := s.Create(ctx, "plain", db, CollectionOptions{Build: storeTestOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Search(ctx, db[0], SearchOptions{}); err == nil {
		t.Fatal("Search without K succeeded")
	}
}

func TestPlaceIDIsBalancedAndStable(t *testing.T) {
	const n, shards = 10000, 8
	counts := make([]int, shards)
	for id := 0; id < n; id++ {
		p := placeID(id, shards)
		if p != placeID(id, shards) {
			t.Fatal("placement not deterministic")
		}
		counts[p]++
	}
	for i, c := range counts {
		if c < n/shards/2 || c > n/shards*2 {
			t.Fatalf("shard %d holds %d of %d ids — placement badly skewed: %v", i, c, n, counts)
		}
	}
}

// TestCreateFromIndexInheritsStaleness pins that splitting a drifted index
// carries its staleness into the shards, so the compaction policy still
// sees pre-existing drift after a gserve restart.
func TestCreateFromIndexInheritsStaleness(t *testing.T) {
	db := storeTestDB(t, 20, 6)
	idx, err := Build(db, storeTestOptions())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := idx.Add(storeTestDB(t, 20, 61)...); err != nil {
		t.Fatal(err)
	}
	want := idx.StaleRatio()
	if want < 0.4 {
		t.Fatalf("setup: source stale ratio %v, want >= 0.4", want)
	}
	s := newTestStore(t)
	coll, err := s.CreateFromIndex("drifted", idx, CollectionOptions{Shards: 3, Build: storeTestOptions()})
	if err != nil {
		t.Fatalf("CreateFromIndex: %v", err)
	}
	for i, r := range coll.StaleRatios() {
		// Per-shard ratios vary with placement, but a drifted source must
		// not split into fresh-looking shards.
		if r < 0.2 {
			t.Errorf("shard %d stale ratio %v — source drift (%v) was discarded", i, r, want)
		}
	}
}

// TestSearchNoDefaultsBypassesOverlay pins the explicit-zero escape hatch:
// NoDefaults lets a caller request EngineMapped on a collection whose
// default engine is verified.
func TestSearchNoDefaultsBypassesOverlay(t *testing.T) {
	db := storeTestDB(t, 14, 2)
	s := newTestStore(t)
	ctx := context.Background()
	coll, err := s.Create(ctx, "nd", db, CollectionOptions{
		Build:    storeTestOptions(),
		Defaults: SearchOptions{K: 4, Engine: EngineVerified},
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	res, err := coll.Search(ctx, db[0], SearchOptions{K: 2, NoDefaults: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineMapped || len(res.Results) != 2 {
		t.Fatalf("NoDefaults search: engine %v with %d results, want mapped with 2", res.Engine, len(res.Results))
	}
}

// TestSaveSweepsDroppedCollections pins that re-saving after Drop removes
// the dropped collection's files and directory.
func TestSaveSweepsDroppedCollections(t *testing.T) {
	db := storeTestDB(t, 12, 7)
	s := newTestStore(t)
	ctx := context.Background()
	if _, err := s.Create(ctx, "keep", db, CollectionOptions{Build: storeTestOptions()}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(ctx, "gone", db, CollectionOptions{Build: storeTestOptions()}); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Drop("gone"); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gone")); !os.IsNotExist(err) {
		t.Fatalf("dropped collection directory still on disk (stat err: %v)", err)
	}
	if _, err := OpenStore(dir, StoreOptions{}); err != nil {
		t.Fatalf("OpenStore after drop+save: %v", err)
	}
}
