package topk

import (
	"context"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/mcs"
	"repro/internal/posting"
	"repro/internal/vecspace"
)

// The randomized kernel-equivalence property suite: the batched SoA
// scan (MappedTopKContext, ragged tails, tombstones, Alive filters,
// pruned plans) must be bit-identical — distances included — to the
// scalar reference path (MappedContext / HammingDistance / Distance).
// Every run draws a fresh seed and logs it; replay with
//
//	GRAPHDIM_EQUIV_SEED=<seed> go test -run TestKernel ./internal/topk
func kernelSeed(t *testing.T) int64 {
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

func kernelRandVecs(rng *rand.Rand, n, p int) []*vecspace.BitVector {
	vs := make([]*vecspace.BitVector, n)
	for i := range vs {
		v := vecspace.NewBitVector(p)
		for r := 0; r < p; r++ {
			if rng.Intn(4) == 0 {
				v.Set(r)
			}
		}
		vs[i] = v
	}
	return vs
}

// randAlive returns a random liveness predicate: nil (admit all) a
// third of the time, otherwise a random tombstone set — sometimes
// killing everything.
func randAlive(rng *rand.Rand, n int) Alive {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		dead := make([]bool, n)
		for i := range dead {
			dead[i] = rng.Intn(4) == 0
		}
		return func(id int) bool { return !dead[id] }
	default:
		return func(id int) bool { return false }
	}
}

func assertRankingPrefix(t *testing.T, label string, got, ref Ranking, k int) {
	t.Helper()
	if k > len(ref) {
		k = len(ref)
	}
	if len(got) != k {
		t.Fatalf("%s: got %d results, want %d", label, len(got), k)
	}
	for i := range got {
		if got[i].ID != ref[i].ID || got[i].Score != ref[i].Score {
			t.Fatalf("%s: result %d = {%d, %v}, want {%d, %v} (bit-identical)",
				label, i, got[i].ID, got[i].Score, ref[i].ID, ref[i].Score)
		}
	}
}

// TestKernelDistanceEquivalence: batched SoA Hamming counts equal the
// scalar per-vector counts across random shapes.
func TestKernelDistanceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(kernelSeed(t)))
	for round := 0; round < 60; round++ {
		n, p := rng.Intn(140), rng.Intn(200)
		vecs := kernelRandVecs(rng, n, p)
		q := kernelRandVecs(rng, 1, p)[0]
		blk := vecspace.Pack(vecs, p)
		out := make([]int32, n)
		blk.HammingInto(q, out)
		for id, v := range vecs {
			if want := int32(q.HammingDistance(v)); out[id] != want {
				t.Fatalf("round %d (n=%d p=%d): hamming[%d] = %d, want %d",
					round, n, p, id, out[id], want)
			}
		}
	}
}

// TestKernelTopKEquivalence: the batched top-k scan — flat and pruned,
// with fresh, Append-extended, and missing (packed per call) blocks,
// tombstones, Alive filters, and a shared Scratch reused across every
// round — must return exactly the first k entries of the scalar full
// ranking.
func TestKernelTopKEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(kernelSeed(t)))
	ctx := context.Background()
	s := NewScratch() // shared across rounds: reuse must not leak state
	defer s.Release()
	for round := 0; round < 80; round++ {
		n, p := rng.Intn(160), 1+rng.Intn(190)
		if rng.Intn(10) == 0 {
			p = 0
		}
		vecs := kernelRandVecs(rng, n, p)
		q := kernelRandVecs(rng, 1, p)[0]
		alive := randAlive(rng, n)
		k := rng.Intn(n + 3)
		label := "round " + strconv.Itoa(round) +
			" n=" + strconv.Itoa(n) + " p=" + strconv.Itoa(p) + " k=" + strconv.Itoa(k)

		// The scalar reference: full ranking, no block, no scratch.
		ref, refScored, err := MappedContext(ctx, vecs, q, alive)
		if err != nil {
			t.Fatal(err)
		}

		// Block variants: nil (packed for the call), fresh, a COW Append chain.
		blocks := map[string]*vecspace.Block{
			"nil":     nil,
			"fresh":   vecspace.Pack(vecs, p),
			"chained": vecspace.Pack(vecs[:n/2], p).Append(vecs[n/2:]),
		}
		for name, blk := range blocks {
			scratch := s
			if rng.Intn(4) == 0 {
				scratch = nil // the nil-scratch path must behave identically
			}
			got, scored, err := MappedTopKContext(ctx, vecs, blk, q, alive, k, nil, scratch)
			if err != nil {
				t.Fatalf("%s blk=%s: %v", label, name, err)
			}
			// Zone maps let a block scan skip whole zones the heap bound
			// already rules out, so scored may come in under the scalar
			// reference — never over, and never under what was returned.
			if k > 0 && (scored > refScored || scored < len(got)) {
				t.Fatalf("%s blk=%s: scored %d outside [%d, %d]", label, name, scored, len(got), refScored)
			}
			assertRankingPrefix(t, label+" flat blk="+name, got, ref, k)
			if scratch == s {
				// The ranking aliases the scratch; copy before the next use.
				got = append(Ranking(nil), got...)
				assertRankingPrefix(t, label+" flat copy blk="+name, got, ref, k)
			}
		}

		// Pruned plan from the real posting index, when its cost model
		// produces one (sparse queries, small k).
		if k > 0 && p > 0 {
			if pl := posting.FromVectors(vecs, p).Plan(q, k); pl != nil {
				cands := &Candidates{K: k, QueryOnes: pl.QueryOnes, Matched: pl.Matched, Rest: pl.Rest}
				got, _, err := MappedTopKContext(ctx, vecs, blocks["chained"], q, alive, k, cands, s)
				if err != nil {
					t.Fatal(err)
				}
				assertRankingPrefix(t, label+" pruned", got, ref, k)
			}
		}
	}
}

// TestKernelVerifiedBlockEquivalence: VerifiedContext must return the
// ranking a scalar retrieval stage would — the first factor·k entries of
// MappedContext's full ranking, verified and re-sorted — since the
// retrieval stage is the only part the kernel touches.
func TestKernelVerifiedBlockEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(kernelSeed(t)))
	ctx := context.Background()
	db := dataset.Chemical(dataset.ChemConfig{N: 20, MinVertices: 5, MaxVertices: 9, Seed: rng.Int63()})
	const p = 48
	vecs := kernelRandVecs(rng, len(db), p)
	metric := mcs.Delta2
	opt := mcs.Options{MaxNodes: 3000}
	blk := vecspace.Pack(vecs, p)
	s := NewScratch()
	defer s.Release()
	for round := 0; round < 6; round++ {
		q := db[rng.Intn(len(db))]
		qv := kernelRandVecs(rng, 1, p)[0]
		k, factor := 1+rng.Intn(6), 1+rng.Intn(3)
		full, _, _ := MappedContext(ctx, vecs, qv, nil)
		ref := append(Ranking(nil), full[:min(k*factor, len(full))]...)
		for i := range ref {
			ref[i].Score = metric.DissimilarityBudget(q, db[ref[i].ID], opt)
		}
		sortItems(ref)
		got, gotN, err := VerifiedContext(ctx, SliceGraphs(db), blk, q, qv, k, factor, 0, metric, opt, Limits{}, nil, s)
		if err != nil {
			t.Fatal(err)
		}
		if gotN != len(ref) {
			t.Fatalf("round %d: verified %d candidates, scalar reference %d", round, gotN, len(ref))
		}
		assertRankingPrefix(t, "verified round "+strconv.Itoa(round), got, ref, k)
	}
}

// TestScanLimits: the limits a scan takes as data — tombstone slice,
// predicate, alone and together, flat and pruned — select exactly the ids
// the scalar reference ranks when handed their conjunction as one Alive.
func TestScanLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(kernelSeed(t)))
	ctx := context.Background()
	s := NewScratch()
	defer s.Release()
	const p = 96
	planned := 0
	for round := 0; round < 40; round++ {
		n := 1 + rng.Intn(700) // up to a few zones
		vecs := kernelRandVecs(rng, n, p)
		// Sparse queries, so the posting index actually plans.
		q := vecspace.NewBitVector(p)
		for i := rng.Intn(3); i >= 0; i-- {
			q.Set(rng.Intn(p))
		}
		blk := vecspace.Pack(vecs, p)
		post := posting.FromVectors(vecs, p)
		k := 1 + rng.Intn(12)

		var dead []bool
		if rng.Intn(2) == 0 {
			dead = make([]bool, n)
			for i := range dead {
				dead[i] = rng.Intn(3) == 0
			}
		}
		var pred Alive
		if rng.Intn(2) == 0 {
			m := 2 + rng.Intn(3)
			pred = func(id int) bool { return id%m != 0 }
		}
		lim := Limits{Dead: dead, Pred: pred}
		label := "round " + strconv.Itoa(round) + " n=" + strconv.Itoa(n) + " k=" + strconv.Itoa(k)
		ref, _, err := MappedContext(ctx, vecs, q, lim.Admits)
		if err != nil {
			t.Fatal(err)
		}
		got, scored, err := MappedScan(ctx, blk, q, lim, k, nil, s)
		if err != nil {
			t.Fatal(err)
		}
		if scored > len(ref) {
			t.Fatalf("%s: flat scan scored %d ids, only %d admitted", label, scored, len(ref))
		}
		assertRankingPrefix(t, label+" flat", got, ref, k)

		if pl := post.Plan(q, k); pl != nil {
			planned++
			cands := &Candidates{K: k, QueryOnes: pl.QueryOnes, Matched: pl.Matched, Rest: pl.Rest}
			got, _, err := MappedScan(ctx, blk, q, lim, k, cands, s)
			if err != nil {
				t.Fatal(err)
			}
			assertRankingPrefix(t, label+" pruned", got, ref, k)
		}

		// The verified engine's retrieval stage takes the same limits:
		// at factor 1 it resolves exactly the admitted top k, in order.
		var resolved []int
		_, verified, err := VerifiedContext(ctx, func(id int) (*graph.Graph, error) {
			resolved = append(resolved, id)
			return tinyGraph, nil
		}, blk, tinyGraph, q, k, 1, 0, mcs.Delta2, mcs.Options{MaxNodes: 10}, lim, nil, s)
		if err != nil {
			t.Fatal(err)
		}
		if want := min(k, len(ref)); verified != want || len(resolved) != want {
			t.Fatalf("%s: verified %d candidates (resolved %d graphs), want %d", label, verified, len(resolved), want)
		}
		for i, id := range resolved {
			if id != ref[i].ID {
				t.Fatalf("%s: verified candidate %d is id %d, want %d", label, i, id, ref[i].ID)
			}
		}

		// And the exact engine's range.
		ex, err := ExactContext(ctx, n, func(id int) (*graph.Graph, error) { return tinyGraph, nil },
			tinyGraph, mcs.Delta2, mcs.Options{MaxNodes: 10}, lim)
		if err != nil {
			t.Fatal(err)
		}
		if len(ex) != len(ref) {
			t.Fatalf("%s: exact ranked %d ids, %d admitted", label, len(ex), len(ref))
		}
		for _, it := range ex {
			if !lim.Admits(it.ID) {
				t.Fatalf("%s: exact ranked id %d the limits reject", label, it.ID)
			}
		}
	}
	if planned == 0 {
		t.Error("no round produced a pruned plan; the pruned path went untested")
	}
	t.Logf("%d pruned plans checked", planned)
}

// tinyGraph stands in for every payload where a test only watches which
// ids an engine resolves.
var tinyGraph = func() *graph.Graph {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 0)
	return g
}()
