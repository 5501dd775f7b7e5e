package graphdim

import (
	"context"
	"maps"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// TestCachedStoreGenerationFenceUnderConcurrency is the generation-fence
// correctness test: concurrent Search and pipeline count and group_by
// Query calls (all served through the query cache), Add, Remove, and
// Compact on one cached collection. It asserts that no search ever
// returns an id whose Remove committed before the search started, nor
// misses an id whose Add committed before the search started; and that a
// count or group_by that ran while no Add or Remove was in flight
// answers exactly for the committed state it started after. Meaningful
// under -race (the CI race job runs this package); the assertions
// themselves hold under the plain test run too — a cached result served
// across a committed mutation would trip them deterministically.
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
	// live maps every live id to its graph, for the count and group_by
	// oracle; begun and landed count the mutator's Adds and Removes as
	// they begin and once they are recorded here.
	var (
		committedMu sync.Mutex
		permanent   = map[int]bool{}
		removed     = map[int]bool{}
		live        = map[int]*Graph{}
		begun       atomic.Int64
		landed      atomic.Int64
	)
	for id, g := range db {
		live[id] = g
	}
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
			begun.Add(1)
			if len(ephemeral) > 0 && rng.Intn(3) == 0 {
				id := ephemeral[0]
				ephemeral = ephemeral[1:]
				if err := coll.Remove(id); err != nil {
					t.Errorf("Remove(%d): %v", id, err)
					return
				}
				committedMu.Lock()
				removed[id] = true
				delete(live, id)
				landed.Add(1)
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
			live[ids[0]] = g[0]
			landed.Add(1)
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
	// Pipeline readers: a count and a group_by over every live graph, the
	// same two documents over and over. A run that no Add or Remove
	// overlapped — none in flight when it read the committed state, none
	// begun by the time it returned — saw exactly that state, so it must
	// equal the oracle's answer for it; a stale cache hit would not.
	everything := &pipeline.Filter{MinVertices: 1}
	pipes := []*pipeline.Pipeline{
		{Stages: []pipeline.Stage{{Filter: everything}, {Count: &pipeline.Count{}}}},
		{Stages: []pipeline.Stage{{Filter: everything}, {GroupBy: &pipeline.GroupBy{Key: pipeline.KeyVertexLabel}}}},
	}
	var exact atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					if i > 0 {
						return
					}
				default:
				}
				committedMu.Lock()
				before := begun.Load()
				quiet := before == landed.Load() // landed moves only under committedMu
				want := labelCounts(live)
				committedMu.Unlock()
				res, err := coll.Query(ctx, pipes[(r+i)%len(pipes)])
				if err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				if !quiet || begun.Load() != before {
					continue
				}
				exact.Add(1)
				if res.Count != nil {
					if *res.Count != want["count"] {
						t.Errorf("count %d, want %d for the committed state it ran in", *res.Count, want["count"])
						return
					}
					continue
				}
				got := map[string]int64{"count": want["count"]}
				for _, g := range res.Groups {
					got[g.Key] = g.Count
				}
				if !maps.Equal(got, want) {
					t.Errorf("group_by %v, want %v for the committed state it ran in", got, want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if exact.Load() == 0 {
		t.Error("no pipeline ran between mutations: nothing was checked exactly")
	}

	// The cache was actually in play.
	st, ok := coll.CacheStats()
	if !ok {
		t.Fatal("cache disabled")
	}
	if st.Hits+st.Misses == 0 {
		t.Fatalf("no cache traffic recorded: %+v", st)
	}
	t.Logf("cache after run: %+v; %d pipelines checked exactly", st, exact.Load())
}

// labelCounts is the count and vertex_label group_by of graphs: under
// "count" the number of graphs, and under each label the number of
// graphs holding it.
func labelCounts(graphs map[int]*Graph) map[string]int64 {
	out := map[string]int64{"count": int64(len(graphs))}
	for _, g := range graphs {
		seen := map[Label]bool{}
		for v := 0; v < g.N(); v++ {
			if l := g.VertexLabel(v); !seen[l] {
				seen[l] = true
				out[strconv.Itoa(int(l))]++
			}
		}
	}
	return out
}
