package topk

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fingerprint"
	"repro/internal/mcs"
	"repro/internal/vecspace"
)

func TestExactSelfQueryFirst(t *testing.T) {
	// Molecule-sized graphs with few distinct labels need a search budget:
	// the identity mapping is found greedily in the first descent, so the
	// self-distance is exact even under a tight budget.
	db := dataset.Chemical(dataset.ChemConfig{N: 8, MinVertices: 6, MaxVertices: 10, Seed: 1})
	r := Exact(db, db[3], mcs.Delta2, mcs.Options{MaxNodes: 20000})
	if r[0].ID != 3 || r[0].Score != 0 {
		t.Fatalf("self query should rank itself first with score 0, got id %d score %v", r[0].ID, r[0].Score)
	}
	if len(r) != 8 {
		t.Fatalf("ranking length %d, want 8", len(r))
	}
}

func TestRankingDeterministicTieBreak(t *testing.T) {
	items := Ranking{{2, 0.5}, {0, 0.5}, {1, 0.1}}
	Order{}.sort(items)
	if items[0].ID != 1 || items[1].ID != 0 || items[2].ID != 2 {
		t.Fatalf("tie break wrong: %v", items)
	}
}

func TestTopKAndRankOf(t *testing.T) {
	r := Ranking{{5, 0.1}, {2, 0.2}, {9, 0.3}}
	top := r.TopK(2)
	if len(top) != 2 || top[0] != 5 || top[1] != 2 {
		t.Fatalf("TopK wrong: %v", top)
	}
	if r.RankOf(9) != 3 || r.RankOf(42) != 4 {
		t.Errorf("RankOf wrong")
	}
	if len(r.TopK(10)) != 3 {
		t.Errorf("TopK should clamp")
	}
}

func TestMappedRanking(t *testing.T) {
	vs := []*vecspace.BitVector{
		vecspace.NewBitVector(4),
		vecspace.NewBitVector(4),
		vecspace.NewBitVector(4),
	}
	vs[1].Set(0)
	vs[2].Set(0)
	vs[2].Set(1)
	q := vecspace.NewBitVector(4)
	q.Set(0)
	r := Mapped(vs, q)
	if r[0].ID != 1 {
		t.Fatalf("nearest should be exact match, got %d", r[0].ID)
	}
}

func TestTanimotoRanking(t *testing.T) {
	db := dataset.Chemical(dataset.ChemConfig{N: 10, Seed: 2})
	fps := fingerprint.ComputeAll(db)
	r := Tanimoto(fps, fps[4], fingerprint.Tanimoto)
	if r[0].ID != 4 {
		t.Fatalf("self fingerprint should rank first, got %d", r[0].ID)
	}
}

func TestPrecision(t *testing.T) {
	exact := Ranking{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}}
	if got := Precision([]int{0, 1, 2}, exact, 3); got != 1 {
		t.Errorf("perfect precision = %v, want 1", got)
	}
	// T = top-3 of exact = {0,1,2}; only 0 hits.
	if got := Precision([]int{0, 4, 9}, exact, 3); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("precision = %v, want 1/3", got)
	}
	if got := Precision([]int{9, 8, 7}, exact, 3); got != 0 {
		t.Errorf("precision = %v, want 0", got)
	}
	if Precision(nil, exact, 0) != 0 {
		t.Errorf("k=0 precision must be 0")
	}
}

func TestKendallTauPerfectAndReversed(t *testing.T) {
	n := 10
	exact := make(Ranking, n)
	for i := range exact {
		exact[i] = Item{ID: i, Score: float64(i)}
	}
	k := 4
	perfect := KendallTau([]int{0, 1, 2, 3}, exact, k)
	reversed := KendallTau([]int{3, 2, 1, 0}, exact, k)
	if perfect <= reversed {
		t.Errorf("perfect tau %v should exceed reversed %v", perfect, reversed)
	}
	if reversed != 0 {
		t.Errorf("fully reversed list has no concordant pairs, got %v", reversed)
	}
	// Perfect = k(k-1)/2 concordant pairs over k(2n-k-1).
	want := float64(k*(k-1)/2) / float64(k*(2*n-k-1))
	if math.Abs(perfect-want) > 1e-12 {
		t.Errorf("perfect tau = %v, want %v", perfect, want)
	}
}

func TestInverseRankDistance(t *testing.T) {
	n := 6
	exact := make(Ranking, n)
	for i := range exact {
		exact[i] = Item{ID: i, Score: float64(i)}
	}
	if got := InverseRankDistance([]int{0, 1, 2}, exact, 3); got != 3 {
		t.Errorf("perfect inverse rank distance = %v, want k=3", got)
	}
	// A = [1,0,2]: footrule = |1-2| + |2-1| + |3-3| = 2; inverse = 3/2.
	if got := InverseRankDistance([]int{1, 0, 2}, exact, 3); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("inverse rank distance = %v, want 1.5", got)
	}
}

func TestMeasuresImproveWithBetterRankings(t *testing.T) {
	// Randomized sanity: a ranking closer to exact scores at least as well
	// on all three measures than a random permutation, in expectation.
	r := rand.New(rand.NewSource(3))
	n, k := 50, 10
	exact := make(Ranking, n)
	for i := range exact {
		exact[i] = Item{ID: i, Score: float64(i)}
	}
	good := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	better := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		perm := r.Perm(n)[:k]
		pg := Precision(good, exact, k)
		pr := Precision(perm, exact, k)
		if pg >= pr {
			better++
		}
	}
	if better < trials*8/10 {
		t.Errorf("good ranking beat random only %d/%d times", better, trials)
	}
}

func TestExactBudgetedStillRanksSelfFirst(t *testing.T) {
	db := dataset.Chemical(dataset.ChemConfig{N: 6, Seed: 4})
	r := Exact(db, db[2], mcs.Delta1, mcs.Options{MaxNodes: 100})
	if r[0].ID != 2 {
		t.Fatalf("budgeted self query should still rank itself first (budget search maps identity fast)")
	}
}
