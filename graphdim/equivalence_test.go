package graphdim

import (
	"context"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/topk"
)

// The property-based engine-equivalence suite: randomized collections
// (live sizes from 1 to the hundreds, removals interleaved with adds)
// on which the posting-pruned mapped and verified rankings must be
// byte-identical — same ids, bitwise-equal distances — to the flat-scan
// rankings (SearchOptions.NoPrune) and to the single-shard Store
// ranking, and a sharded collection fed the same waves — compacting
// along the way — must rank like the single-shard one. Every run draws a
// fresh seed and logs it; replay a failure with
//
//	GRAPHDIM_EQUIV_SEED=<seed> go test -run TestEngineEquivalenceRandomized ./graphdim
func equivSeed(t *testing.T) int64 {
	if v := os.Getenv("GRAPHDIM_EQUIV_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("GRAPHDIM_EQUIV_SEED=%q: %v", v, err)
		}
		t.Logf("replaying GRAPHDIM_EQUIV_SEED=%d", seed)
		return seed
	}
	seed := time.Now().UnixNano()
	t.Logf("random run; replay with GRAPHDIM_EQUIV_SEED=%d", seed)
	return seed
}

// equivBuild builds an index over a random synthetic database of n
// graphs, fast enough to run many rounds: tiny patterns, a small MCS
// budget, and DSPMap once the pairwise matrix would dominate.
func equivBuild(t *testing.T, rng *rand.Rand, n int) (*Index, []*Graph) {
	t.Helper()
	db := dataset.Synthetic(dataset.SynthConfig{N: n, AvgEdges: 9, Labels: 5, Seed: rng.Int63()})
	opt := Options{Dimensions: 16, Tau: 0.2, MaxPatternEdges: 3, MCSBudget: 300, Iterations: 8}
	if n > 80 {
		opt.Algorithm = DSPMap
		opt.Seed = rng.Int63()
	}
	// A random database occasionally has no frequent pattern at the
	// starting support; lower tau until mining finds dimensions (the
	// suite tests engine equivalence, not mining, so any dimension set
	// will do).
	for _, tau := range []float64{0.2, 0.1, 0.05, 0.02, 0.005} {
		opt.Tau = tau
		idx, err := Build(db, opt)
		if err == nil {
			return idx, db
		}
		if !strings.Contains(err.Error(), "no frequent subgraphs") {
			t.Fatalf("Build(n=%d, tau=%v): %v", n, tau, err)
		}
	}
	t.Fatalf("Build(n=%d): no frequent subgraphs even at tau=0.005", n)
	return nil, nil
}

// assertPrunedEqualsFlat runs one query through the pruned and flat
// paths of the given engine and requires byte-identical rankings.
func assertPrunedEqualsFlat(t *testing.T, label string, idx *Index, q *Graph, opt SearchOptions) *SearchResult {
	t.Helper()
	ctx := context.Background()
	pruned, err := idx.Search(ctx, q, opt)
	if err != nil {
		t.Fatalf("%s: pruned Search: %v", label, err)
	}
	flatOpt := opt
	flatOpt.NoPrune = true
	flat, err := idx.Search(ctx, q, flatOpt)
	if err != nil {
		t.Fatalf("%s: flat Search: %v", label, err)
	}
	if !reflect.DeepEqual(pruned.Results, flat.Results) {
		t.Fatalf("%s: pruned ranking diverges from flat scan:\npruned: %v\nflat:   %v\nmatched %d dimensions",
			label, pruned.Results, flat.Results, pruned.Matched.Count())
	}
	if pruned.Matched.Count() != flat.Matched.Count() {
		t.Fatalf("%s: matched dimensions diverge: %d vs %d", label, pruned.Matched.Count(), flat.Matched.Count())
	}
	// Third leg, mapped engine only: both Search paths above ran the SoA
	// kernel; re-derive the ranking with the scalar reference
	// (topk.MappedContext over the block's unpacked vectors — no kernel,
	// no scratch, full sort) and require the kernel results bit-identical
	// to its prefix, distances included.
	if opt.Engine == EngineMapped && opt.Predicate == nil && len(opt.Filters) == 0 {
		s := idx.snap.Load()
		qv, err := idx.mapper.MapContext(ctx, q)
		if err != nil {
			t.Fatalf("%s: MapContext: %v", label, err)
		}
		ref, _, err := topk.MappedContext(ctx, s.block.Unpack(), qv, s.limits(nil).Admits)
		if err != nil {
			t.Fatalf("%s: scalar reference: %v", label, err)
		}
		k := opt.K
		if k > len(ref) {
			k = len(ref)
		}
		if len(flat.Results) != k {
			t.Fatalf("%s: kernel returned %d results, scalar reference has %d", label, len(flat.Results), k)
		}
		for i, r := range flat.Results {
			if r.ID != ref[i].ID || r.Distance != ref[i].Score {
				t.Fatalf("%s: kernel result %d = {%d, %v}, scalar reference {%d, %v} (bit-identical required)",
					label, i, r.ID, r.Distance, ref[i].ID, ref[i].Score)
			}
		}
	}
	return pruned
}

func TestEngineEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(equivSeed(t)))
	rounds, maxN := 6, 500
	if testing.Short() {
		rounds, maxN = 3, 60
	}
	for round := 0; round < rounds; round++ {
		n := 2 + rng.Intn(maxN-1)
		idx, db := equivBuild(t, rng, n)
		label := "round " + strconv.Itoa(round) + " n=" + strconv.Itoa(n)
		t.Logf("%s: %d dimensions", label, len(idx.Dimensions()))

		// Queries: database members (often dense in matched dimensions,
		// exercising the cost-model fallback) plus unseen graphs (often
		// sparse, exercising deep pruning), across interleaved mutation
		// waves.
		queries := []*Graph{db[rng.Intn(n)], db[rng.Intn(n)]}
		queries = append(queries, dataset.Synthetic(dataset.SynthConfig{N: 3, AvgEdges: 6, Labels: 7, Seed: rng.Int63()})...)

		// A single-shard and a sharded collection ride the same waves as
		// the index (ids stay aligned: all three assign densely). Only the
		// sharded one compacts, so every comparison after the first wave
		// is reclaimed-vs-tombstoned as well as sharded-vs-flat.
		store := NewStore(StoreOptions{})
		one, err := store.CreateFromIndex("one", idx, CollectionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		many, err := store.CreateFromIndex("many", idx, CollectionOptions{Shards: 2 + rng.Intn(3)})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()

		waves := 3
		for wave := 0; wave < waves; wave++ {
			k := 1 + rng.Intn(idx.TotalGraphs()+4)
			for qi, q := range queries {
				wl := label + " wave " + strconv.Itoa(wave) + " query " + strconv.Itoa(qi)
				mapped := assertPrunedEqualsFlat(t, wl+" mapped", idx, q, SearchOptions{K: k})
				assertPrunedEqualsFlat(t, wl+" verified", idx, q, SearchOptions{
					K:            k,
					Engine:       EngineVerified,
					VerifyFactor: 1 + rng.Intn(3),
				})
				// Verified is shard-count independent only once its pool
				// covers the database; the MCS legs run on one query a
				// wave to keep the suite quick.
				sopts := []SearchOptions{{K: k}}
				if qi == wave%len(queries) {
					sopts = append(sopts,
						SearchOptions{K: 5, Engine: EngineVerified, VerifyFactor: idx.TotalGraphs()},
						SearchOptions{K: 5, Engine: EngineExact})
				}
				for _, sopt := range sopts {
					want, err := one.Search(ctx, q, sopt)
					if err != nil {
						t.Fatalf("%s: single-shard Search: %v", wl, err)
					}
					got, err := many.Search(ctx, q, sopt)
					if err != nil {
						t.Fatalf("%s: sharded Search: %v", wl, err)
					}
					if !reflect.DeepEqual(got.Results, want.Results) {
						t.Fatalf("%s %s: sharded (compacted) ranking diverges from single-shard:\nsharded: %v\nsingle:  %v",
							wl, sopt.Engine, got.Results, want.Results)
					}
					if sopt.Engine == EngineMapped && !reflect.DeepEqual(got.Results, mapped.Results) {
						t.Fatalf("%s: store ranking diverges from the index:\nstore: %v\nindex: %v", wl, got.Results, mapped.Results)
					}
				}
			}
			// Interleave mutations: add a few unseen graphs, remove a few
			// random live ids (never below one live graph).
			added := dataset.Synthetic(dataset.SynthConfig{N: 1 + rng.Intn(4), AvgEdges: 9, Labels: 5, Seed: rng.Int63()})
			if _, err := idx.Add(added...); err != nil {
				t.Fatalf("%s: Add: %v", label, err)
			}
			for _, c := range []*Collection{one, many} {
				if _, err := c.Add(ctx, added...); err != nil {
					t.Fatalf("%s: %s Add: %v", label, c.Name(), err)
				}
			}
			removals := rng.Intn(4)
			for i := 0; i < removals && idx.Size() > 1; i++ {
				id := rng.Intn(idx.TotalGraphs())
				if idx.IsRemoved(id) {
					continue
				}
				if err := idx.Remove(id); err != nil {
					t.Fatalf("%s: Remove(%d): %v", label, id, err)
				}
				for _, c := range []*Collection{one, many} {
					if err := c.Remove(id); err != nil {
						t.Fatalf("%s: %s Remove(%d): %v", label, c.Name(), id, err)
					}
				}
			}
			if _, err := many.Compact(ctx); err != nil {
				t.Fatalf("%s: Compact: %v", label, err)
			}
		}
		store.Close()
	}
}

// TestEngineEquivalenceAtTinySizes drives the live database down to
// exactly 1 (and through every size on the way) — the degenerate end of
// the size range, where off-by-one bugs in the merge would hide.
func TestEngineEquivalenceAtTinySizes(t *testing.T) {
	rng := rand.New(rand.NewSource(equivSeed(t)))
	idx, db := equivBuild(t, rng, 12)
	q := dataset.Synthetic(dataset.SynthConfig{N: 1, AvgEdges: 6, Labels: 7, Seed: rng.Int63()})[0]
	order := rng.Perm(len(db))
	for _, id := range order[:len(db)-1] {
		assertPrunedEqualsFlat(t, "live="+strconv.Itoa(idx.Size())+" mapped", idx, q, SearchOptions{K: 5})
		assertPrunedEqualsFlat(t, "live="+strconv.Itoa(idx.Size())+" verified", idx, q,
			SearchOptions{K: 3, Engine: EngineVerified, VerifyFactor: 2})
		if err := idx.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Size() != 1 {
		t.Fatalf("live size = %d, want 1", idx.Size())
	}
	res := assertPrunedEqualsFlat(t, "live=1 mapped", idx, q, SearchOptions{K: 5})
	if len(res.Results) != 1 {
		t.Fatalf("live=1: got %d results, want 1", len(res.Results))
	}
}

// TestEngineEquivalenceSingleShardStore closes the loop the ISSUE pins:
// pruned Index rankings equal flat Index rankings equal the
// single-shard Store ranking, on a mutated database.
func TestEngineEquivalenceSingleShardStore(t *testing.T) {
	rng := rand.New(rand.NewSource(equivSeed(t)))
	idx, db := equivBuild(t, rng, 2+rng.Intn(120))
	if _, err := idx.Add(dataset.Synthetic(dataset.SynthConfig{N: 5, AvgEdges: 9, Labels: 5, Seed: rng.Int63()})...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3 && idx.Size() > 2; i++ {
		id := rng.Intn(idx.TotalGraphs())
		if !idx.IsRemoved(id) {
			if err := idx.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
	}

	s := NewStore(StoreOptions{})
	defer s.Close()
	// One cached and one uncached single-shard collection: the cache must
	// be invisible in the payloads.
	cached, err := s.CreateFromIndex("one-cached", idx, CollectionOptions{Cache: CacheOptions{MaxEntries: 32}})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := s.CreateFromIndex("one-plain", idx, CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	queries := append([]*Graph{db[0], db[len(db)/2]},
		dataset.Synthetic(dataset.SynthConfig{N: 2, AvgEdges: 6, Labels: 7, Seed: rng.Int63()})...)
	for qi, q := range queries {
		k := 1 + rng.Intn(idx.TotalGraphs()+3)
		for _, opt := range []SearchOptions{
			{K: k},
			{K: k, Engine: EngineVerified, VerifyFactor: 2},
		} {
			label := "store query " + strconv.Itoa(qi) + " " + opt.Engine.String()
			want := assertPrunedEqualsFlat(t, label, idx, q, opt)
			for _, coll := range []*Collection{cached, plain, cached} { // cached twice: second pass is a cache hit
				got, err := coll.Search(ctx, q, opt)
				if err != nil {
					t.Fatalf("%s (%s): %v", label, coll.Name(), err)
				}
				if !reflect.DeepEqual(got.Results, want.Results) {
					t.Fatalf("%s (%s): store ranking diverges:\nstore: %v\nindex: %v",
						label, coll.Name(), got.Results, want.Results)
				}
			}
		}
	}
	if st, ok := cached.CacheStats(); !ok || st.Hits == 0 {
		t.Fatalf("cached collection never hit: %+v", st)
	}

	// Reclaiming the tombstones changes nothing a query can see, cached
	// or not.
	for _, coll := range []*Collection{cached, plain} {
		if _, err := coll.Compact(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for qi, q := range queries {
		want, err := idx.Search(ctx, q, SearchOptions{K: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, coll := range []*Collection{cached, plain} {
			got, err := coll.Search(ctx, q, SearchOptions{K: 7})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("query %d (%s): ranking moved across Compact:\nstore: %v\nindex: %v",
					qi, coll.Name(), got.Results, want.Results)
			}
		}
	}
}
