package graphdim

import (
	"context"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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

// newCheckpointStore creates a durable store in a fresh data directory,
// closed with the test. The store owns the directory until it closes, and
// a reopen replays its log: it serves every acknowledged write, whether
// or not a checkpoint covered it. A test that reopens while the store
// keeps writing opens copyDataDir's copy instead.
func newCheckpointStore(t *testing.T) (*Store, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	s, err := CreateStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, dir
}

// copyDataDir copies the data directory dir file by file and returns the
// copy's path: what a kill of dir's still-open owner leaves on disk, short
// of losing the OS cache. A data directory has one owner, so a test that
// inspects the disk while its writer carries on opens a copy.
func copyDataDir(t *testing.T, dir string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "copy")
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying %s: %v", dir, err)
	}
	return dst
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
				// For the mapped engine that depends on each shard's heap
				// threshold and zone skips (each shard scans a different
				// slice), so only a sanity bound is portable; the MCS
				// engines score a shard-independent candidate set and
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

func TestOpenStoreRejectsCorruptManifests(t *testing.T) {
	db := storeTestDB(t, 12, 3)
	s, dir := newCheckpointStore(t)
	if _, err := s.Create(context.Background(), "c", db, CollectionOptions{Shards: 2, Build: storeTestOptions()}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	s.Close() // release the directory to the opens below
	manifest := filepath.Join(dir, manifestName)
	good, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}

	for name, corrupt := range map[string]string{
		"bad placement": strings.Replace(string(good), placementSplitMix64, "modulo", 1),
		"bad version":   strings.Replace(string(good), `"version":1`, `"version":99`, 1),
		"not json":      "{",
	} {
		if err := os.WriteFile(manifest, []byte(corrupt), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStore(dir, StoreOptions{}); err == nil {
			t.Errorf("%s: OpenStore succeeded on a corrupt manifest", name)
		}
	}
	// An earlier release's manifest, whose build block no longer
	// persists, still opens.
	old := strings.Replace(string(good), `"shards":2,`, `"shards":2,"build":{"workers":3,"tau":0.2},`, 1)
	if err := os.WriteFile(manifest, []byte(old), 0o644); err != nil || old == string(good) {
		t.Fatalf("writing a manifest with a build block: %v", err)
	}
	if re, err := OpenStore(dir, StoreOptions{}); err != nil {
		t.Fatalf("OpenStore of a manifest with a build block: %v", err)
	} else {
		re.Close()
	}
	// Missing shard file.
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
// unrelated spaces. Such a directory must be refused by name, never
// served.
func TestOpenStoreRefusesMixedDimensionSets(t *testing.T) {
	db := storeTestDB(t, 24, 3)
	s, dir := newCheckpointStore(t)
	coll, err := s.Create(context.Background(), "c", db, CollectionOptions{Shards: 2, Build: storeTestOptions()})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	s.Close() // release the directory to the opens below
	if re, err := OpenStore(dir, StoreOptions{}); err != nil {
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
	if err := other.writeSegment(f, other.snap.Load()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	want := `collection "c": shard 1 holds a different dimension set than shard 0 — compacted by an earlier release; re-create the collection`
	re, err := OpenStore(dir, StoreOptions{})
	if err == nil {
		re.Close()
		t.Fatal("OpenStore served a collection with two dimension sets")
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenStore error %q, want it to say %q", err, want)
	}
}

// TestStoreResaveNeverCorruptsPreviousGeneration pins the checkpoint's
// durability contract: a second checkpoint writes fresh files and swaps
// the manifest, so a store stays loadable throughout, and orphans are
// swept.
func TestStoreResaveNeverCorruptsPreviousGeneration(t *testing.T) {
	db := storeTestDB(t, 12, 4)
	s, dir := newCheckpointStore(t)
	ctx := context.Background()
	coll, err := s.Create(ctx, "c", db, CollectionOptions{Shards: 2, Build: storeTestOptions()})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := coll.Add(ctx, storeTestDB(t, 3, 40)...); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("second checkpoint: %v", err)
	}
	// The superseded generation's files are swept; one file per shard
	// remains and the store loads with the new contents.
	files, err := filepath.Glob(filepath.Join(dir, "c", "shard-*.gdx"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("found %d shard files after the second checkpoint, want 2: %v", len(files), files)
	}
	s.Close()
	loaded, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore after the second checkpoint: %v", err)
	}
	defer loaded.Close()
	lc, _ := loaded.Collection("c")
	if lc.Size() != coll.Size() {
		t.Fatalf("loaded size %d, want %d", lc.Size(), coll.Size())
	}
	// The contents came from the checkpoint, not from replaying the log.
	if w := lc.Stats().WAL; w.CheckpointSeq != w.LastSeq {
		t.Fatalf("reopen replayed records %d..%d past the checkpoint", w.CheckpointSeq+1, w.LastSeq)
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
	want := idx.snap.Load().staleRatio()
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

// TestSaveSweepsDroppedCollections pins that the checkpoint a Drop runs
// removes the dropped collection's files and directory.
func TestSaveSweepsDroppedCollections(t *testing.T) {
	db := storeTestDB(t, 12, 7)
	s, dir := newCheckpointStore(t)
	ctx := context.Background()
	if _, err := s.Create(ctx, "keep", db, CollectionOptions{Build: storeTestOptions()}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(ctx, "gone", db, CollectionOptions{Build: storeTestOptions()}); err != nil {
		t.Fatal(err)
	}
	if got := s.Collections(); !reflect.DeepEqual(got, []string{"gone", "keep"}) {
		t.Fatalf("Collections() = %v, want both in lexical order", got)
	}
	if err := s.Drop("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gone")); !os.IsNotExist(err) {
		t.Fatalf("dropped collection directory still on disk (stat err: %v)", err)
	}
	s.Close()
	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore after drop: %v", err)
	}
	re.Close()
}
