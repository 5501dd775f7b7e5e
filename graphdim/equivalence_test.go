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
// on which the mapped ranking must be byte-identical — same ids,
// bitwise-equal distances — to the scalar reference scan, the mapped and
// verified rankings to the single-shard Store ranking, and a sharded
// collection fed the same waves — compacting
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

// searchChecked runs one query through the given engine and returns its
// result. For the mapped engine it re-derives the ranking with the scalar
// reference (topk.MappedContext over the block's unpacked vectors — no
// kernel, no scratch, full sort) and requires the kernel results
// bit-identical to its prefix, distances included.
func searchChecked(t *testing.T, label string, idx *Index, q *Graph, opt SearchOptions) *SearchResult {
	t.Helper()
	ctx := context.Background()
	flat, err := idx.Search(ctx, q, opt)
	if err != nil {
		t.Fatalf("%s: Search: %v", label, err)
	}
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
	return flat
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

		// Queries: database members (often dense in matched dimensions)
		// plus unseen graphs (often sparse, so counts tie), across
		// interleaved mutation waves.
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
			k := 1 + rng.Intn(len(idx.snap.Load().db)+4)
			for qi, q := range queries {
				wl := label + " wave " + strconv.Itoa(wave) + " query " + strconv.Itoa(qi)
				mapped := searchChecked(t, wl+" mapped", idx, q, SearchOptions{K: k})
				searchChecked(t, wl+" verified", idx, q, SearchOptions{
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
						SearchOptions{K: 5, Engine: EngineVerified, VerifyFactor: len(idx.snap.Load().db)},
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
			for i := 0; i < removals && idx.snap.Load().live() > 1; i++ {
				id := rng.Intn(len(idx.snap.Load().db))
				if idx.snap.Load().isDead(id) {
					continue
				}
				if err := idx.removeGlobal([]int{id}); err != nil {
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
		searchChecked(t, "live="+strconv.Itoa(idx.snap.Load().live())+" mapped", idx, q, SearchOptions{K: 5})
		searchChecked(t, "live="+strconv.Itoa(idx.snap.Load().live())+" verified", idx, q,
			SearchOptions{K: 3, Engine: EngineVerified, VerifyFactor: 2})
		if err := idx.removeGlobal([]int{id}); err != nil {
			t.Fatal(err)
		}
	}
	if idx.snap.Load().live() != 1 {
		t.Fatalf("live size = %d, want 1", idx.snap.Load().live())
	}
	res := searchChecked(t, "live=1 mapped", idx, q, SearchOptions{K: 5})
	if len(res.Results) != 1 {
		t.Fatalf("live=1: got %d results, want 1", len(res.Results))
	}
}
