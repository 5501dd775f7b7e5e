package graphdim

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestCachedStoreGenerationFenceUnderConcurrency is the generation-fence
// correctness test: concurrent Search (served through the query cache),
// Add, Remove, and Compact on one cached collection, asserting
// that no search ever returns an id whose Remove committed before the
// search started, nor misses an id whose Add committed before the
// search started. Meaningful under -race (the CI race job runs this
// package); the assertions themselves hold under the plain test run
// too — a cached result served across a committed mutation would trip
// them deterministically.
func TestCachedStoreGenerationFenceUnderConcurrency(t *testing.T) {
	db := dataset.Chemical(dataset.ChemConfig{N: 24, MinVertices: 8, MaxVertices: 12, Seed: 61})
	buildOpt := Options{Dimensions: 8, Tau: 0.25, MCSBudget: 500}
	idx, err := Build(db, buildOpt)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(StoreOptions{})
	defer s.Close()
	coll, err := s.CreateFromIndex("fence", idx, CollectionOptions{
		Shards: 2,
		Build:  buildOpt,
		Cache:  CacheOptions{MaxEntries: 128},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	// committed mirrors what the mutator has durably applied: entries are
	// recorded only after the store call returns, so any reader snapshot
	// of it describes operations that must be visible to a search that
	// starts afterwards. "permanent" ids are never removed; "ephemeral"
	// ids are added and later removed, and assertions only cover their
	// removed-before-snapshot state.
	var (
		committedMu sync.Mutex
		permanent   = map[int]bool{}
		removed     = map[int]bool{}
	)
	snapshotCommitted := func() (perm, gone []int) {
		committedMu.Lock()
		defer committedMu.Unlock()
		for id := range permanent {
			perm = append(perm, id)
		}
		for id := range removed {
			gone = append(gone, id)
		}
		return perm, gone
	}

	const mutations = 48
	done := make(chan struct{})
	var wg sync.WaitGroup

	// Mutator: interleaved adds (half permanent, half ephemeral) and
	// removes of earlier ephemeral ids.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(62))
		var ephemeral []int
		for i := 0; i < mutations; i++ {
			// Stretch the mutation window so the readers interleave with
			// many distinct generation states, not one burst.
			time.Sleep(200 * time.Microsecond)
			if len(ephemeral) > 0 && rng.Intn(3) == 0 {
				id := ephemeral[0]
				ephemeral = ephemeral[1:]
				if err := coll.Remove(id); err != nil {
					t.Errorf("Remove(%d): %v", id, err)
					return
				}
				committedMu.Lock()
				removed[id] = true
				committedMu.Unlock()
				continue
			}
			g := dataset.Chemical(dataset.ChemConfig{N: 1, MinVertices: 8, MaxVertices: 12, Seed: int64(1000 + i)})
			ids, err := coll.Add(ctx, g...)
			if err != nil {
				t.Errorf("Add: %v", err)
				return
			}
			committedMu.Lock()
			if i%2 == 0 {
				permanent[ids[0]] = true
			} else {
				ephemeral = append(ephemeral, ids[0])
			}
			committedMu.Unlock()
		}
	}()

	// Compactor: reclaims of the mutator's tombstones racing the searches
	// and writes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := coll.Compact(ctx); err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
		}
	}()

	// Readers: the same few queries over and over (maximizing cache
	// traffic), each checked against the pre-search committed state.
	queries := []*Graph{db[0], db[7], db[15]}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					if i > 0 {
						return
					}
					// Run at least once even if the mutator finished first.
				default:
				}
				perm, gone := snapshotCommitted()
				res, err := coll.Search(ctx, queries[(r+i)%len(queries)], SearchOptions{K: 1 << 20})
				if err != nil {
					t.Errorf("Search: %v", err)
					return
				}
				got := make(map[int]bool, len(res.Results))
				for _, item := range res.Results {
					got[item.ID] = true
				}
				for _, id := range perm {
					if !got[id] {
						t.Errorf("search missed id %d whose Add committed before it started", id)
						return
					}
				}
				for _, id := range gone {
					if got[id] {
						t.Errorf("search returned id %d whose Remove committed before it started", id)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	// The cache was actually in play.
	st, ok := coll.CacheStats()
	if !ok {
		t.Fatal("cache disabled")
	}
	if st.Hits+st.Misses == 0 {
		t.Fatalf("no cache traffic recorded: %+v", st)
	}
	t.Logf("cache after run: %+v", st)
}
