package topk

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mcs"
	"repro/internal/vecspace"
)

func TestVerifiedAtLeastAsGoodAsMapped(t *testing.T) {
	// With factor >= n/k the verified engine degenerates to exact search,
	// so its precision is 1; with factor 1 it equals the mapped engine.
	db := dataset.Chemical(dataset.ChemConfig{N: 15, MinVertices: 6, MaxVertices: 10, Seed: 3})
	q := db[4]
	metric := mcs.Delta2
	opt := mcs.Options{MaxNodes: 5000}
	exact := Exact(db, q, metric, opt)

	// Degenerate vectors (all identical) make the mapped engine
	// uninformative; verification must still recover the exact top-k.
	vecs := make([]*vecspace.BitVector, len(db))
	for i := range vecs {
		vecs[i] = vecspace.NewBitVector(4)
	}
	qv := vecspace.NewBitVector(4)

	const k = 3
	full := Verified(db, vecs, q, qv, k, len(db), metric, opt)
	if got := Precision(full.TopK(k), exact, k); got != 1 {
		t.Errorf("fully verified precision = %v, want 1", got)
	}
	if len(full) != k {
		t.Errorf("verified returned %d items, want %d", len(full), k)
	}

	one := Verified(db, vecs, q, qv, k, 1, metric, opt)
	if len(one) != k {
		t.Errorf("factor-1 verified returned %d items", len(one))
	}
	// factor < 1 clamps to 1 rather than panicking.
	clamped := Verified(db, vecs, q, qv, k, 0, metric, opt)
	if len(clamped) != k {
		t.Errorf("factor-0 verified returned %d items", len(clamped))
	}
}

// degenerateVectors returns n identical vectors plus a matching query
// vector: the mapped retrieval stage becomes uninformative, so every
// candidate-set decision is down to the clamping logic under test.
func degenerateVectors(n int) ([]*vecspace.BitVector, *vecspace.BitVector) {
	vecs := make([]*vecspace.BitVector, n)
	for i := range vecs {
		vecs[i] = vecspace.NewBitVector(4)
	}
	return vecs, vecspace.NewBitVector(4)
}

func TestVerifiedFactorOverflowsDatabase(t *testing.T) {
	db := dataset.Chemical(dataset.ChemConfig{N: 10, MinVertices: 5, MaxVertices: 8, Seed: 9})
	vecs, qv := degenerateVectors(len(db))
	q := db[2]
	metric := mcs.Delta2
	opt := mcs.Options{MaxNodes: 5000}
	exact := Exact(db, q, metric, opt)

	const k = 3
	// factor·k far beyond n, including values whose product overflows
	// int64: all must degrade to verifying the whole database (== exact).
	for _, factor := range []int{len(db), 1 << 30, math.MaxInt} {
		got := Verified(db, vecs, q, qv, k, factor, metric, opt)
		if len(got) != k {
			t.Fatalf("factor=%d: got %d items, want %d", factor, len(got), k)
		}
		if !reflect.DeepEqual(got.TopK(k), exact.TopK(k)) {
			t.Errorf("factor=%d: top-%d = %v, want exact %v", factor, k, got.TopK(k), exact.TopK(k))
		}
	}
}

func TestVerifiedKLargerThanDatabase(t *testing.T) {
	db := dataset.Chemical(dataset.ChemConfig{N: 6, MinVertices: 5, MaxVertices: 8, Seed: 10})
	vecs, qv := degenerateVectors(len(db))
	q := db[0]
	metric := mcs.Delta2
	opt := mcs.Options{MaxNodes: 5000}

	got := Verified(db, vecs, q, qv, len(db)*4, 2, metric, opt)
	if len(got) != len(db) {
		t.Fatalf("k > n returned %d items, want the whole database (%d)", len(got), len(db))
	}
	exact := Exact(db, q, metric, opt)
	if !reflect.DeepEqual([]Item(got), []Item(exact)) {
		t.Errorf("k > n ranking diverged from exact:\ngot  %v\nwant %v", got, exact)
	}
}

func TestVerifiedBudgetExhaustedMCS(t *testing.T) {
	// A 1-node MCS budget exhausts immediately: every verification returns
	// an upper-bound dissimilarity. The engine must still return k items
	// with finite scores in [0,1], ranked deterministically.
	db := dataset.Chemical(dataset.ChemConfig{N: 12, MinVertices: 6, MaxVertices: 10, Seed: 11})
	vecs, qv := degenerateVectors(len(db))
	q := db[5]
	metric := mcs.Delta2
	starved := mcs.Options{MaxNodes: 1}

	const k = 4
	got := Verified(db, vecs, q, qv, k, 2, metric, starved)
	if len(got) != k {
		t.Fatalf("got %d items, want %d", len(got), k)
	}
	for _, it := range got {
		if it.Score < 0 || it.Score > 1 || math.IsNaN(it.Score) {
			t.Errorf("budget-starved score out of range: %+v", it)
		}
	}
	again := Verified(db, vecs, q, qv, k, 2, metric, starved)
	if !reflect.DeepEqual(got, again) {
		t.Errorf("budget-starved verification is nondeterministic")
	}
}

func TestVerifiedContextMaxCandidatesAndAlive(t *testing.T) {
	db := dataset.Chemical(dataset.ChemConfig{N: 12, MinVertices: 6, MaxVertices: 10, Seed: 12})
	vecs, qv := degenerateVectors(len(db))
	blk := vecspace.Pack(vecs, qv.Len())
	q := db[3]
	metric := mcs.Delta2
	opt := mcs.Options{MaxNodes: 5000}

	// maxCandidates caps the verified set below factor·k: with the
	// degenerate vectors retrieval is id-ordered, so capping at 2 must
	// verify exactly ids {0,1}.
	got, verified, err := VerifiedContext(context.Background(), SliceGraphs(db), blk, q, qv, 3, 4, 2, metric, opt, Limits{}, Order{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("maxCandidates=2 returned %d items", len(got))
	}
	if verified != 2 {
		t.Fatalf("verified count = %d, want 2", verified)
	}
	for _, it := range got {
		if it.ID != 0 && it.ID != 1 {
			t.Errorf("maxCandidates=2 verified unexpected id %d", it.ID)
		}
	}

	// alive filters ids out of retrieval entirely.
	alive := func(id int) bool { return id%2 == 0 }
	got, _, err = VerifiedContext(context.Background(), SliceGraphs(db), blk, q, qv, len(db), 1, 0, metric, opt, Limits{Pred: alive}, Order{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range got {
		if it.ID%2 != 0 {
			t.Errorf("alive-filtered result contains dead id %d", it.ID)
		}
	}
	if len(got) != len(db)/2 {
		t.Errorf("alive-filtered result has %d items, want %d", len(got), len(db)/2)
	}

	// A cancelled context aborts with its error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := VerifiedContext(ctx, SliceGraphs(db), blk, q, qv, 3, 2, 0, metric, opt, Limits{}, Order{}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled VerifiedContext err = %v, want context.Canceled", err)
	}
}
