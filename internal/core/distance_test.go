package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vecspace"
)

// symmetricDifferenceFeatures calls fn, ascending, for every feature
// contained in exactly one of graphs i and j: a merge walk of their sorted
// feature lists (Algorithm 4 walks IGi ∪ IGj − IGi ∩ IGj). With
// pairDistanceWalk it is how DSPM computed a distance before fillDist, and
// stays as the oracle fillDist must match bit for bit.
func symmetricDifferenceFeatures(idx *vecspace.Index, i, j int, fn func(r int)) {
	a, b := idx.IG[i], idx.IG[j]
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] == b[y]:
			x++
			y++
		case a[x] < b[y]:
			fn(a[x])
			x++
		default:
			fn(b[y])
			y++
		}
	}
	for ; x < len(a); x++ {
		fn(a[x])
	}
	for ; y < len(b); y++ {
		fn(b[y])
	}
}

// pairDistanceWalk computes d(z_i, z_j) = sqrt(Σ_{r: y_ir≠y_jr} c_r²)
// through the merge walk. The conversion rounds each square before the
// add, as the default amd64 build does; without it Go may fuse the two
// on other architectures.
func (s *state) pairDistanceWalk(i, j int) float64 {
	sum := 0.0
	symmetricDifferenceFeatures(s.idx, i, j, func(r int) {
		sum += float64(s.c[r] * s.c[r])
	})
	return math.Sqrt(sum)
}

// TestPackedDistancesMatchWalk holds fillDist's packed-bitset distances
// equal, bit for bit, to the merge walk, and the walk's features equal to
// those on which the two graphs' vectors differ. It covers word
// boundaries, a wide feature set and graphs that contain no feature.
func TestPackedDistancesMatchWalk(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for _, m := range []int{1, 63, 64, 65, 300} {
		for trial := 0; trial < 6; trial++ {
			n := 2 + r.Intn(30)
			density := []float64{0.05, 0.5, 0.95}[trial%3]
			vs := make([]*vecspace.BitVector, n)
			for i := range vs {
				vs[i] = vecspace.NewBitVector(m)
				if r.Intn(4) == 0 {
					continue // a graph with no feature
				}
				for f := 0; f < m; f++ {
					if r.Float64() < density {
						vs[i].Set(f)
					}
				}
			}
			checkPackedDistances(t, r, vs)
		}
	}
	// Small random problems, pairs i == j included.
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		n, m := 2+r.Intn(8), 1+r.Intn(20)
		vs := make([]*vecspace.BitVector, n)
		for i := range vs {
			vs[i] = vecspace.NewBitVector(m)
			for f := 0; f < m; f++ {
				if r.Intn(2) == 0 {
					vs[i].Set(f)
				}
			}
		}
		checkPackedDistances(t, r, vs)
	}
}

func checkPackedDistances(t *testing.T, r *rand.Rand, vs []*vecspace.BitVector) {
	t.Helper()
	idx := vecspace.BuildIndexFromVectors(vs)
	n, m := idx.N, idx.P
	s := newState(idx, nil, Config{})
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := map[int]bool{}
			symmetricDifferenceFeatures(idx, i, j, func(f int) { got[f] = true })
			for f := 0; f < m; f++ {
				if want := vs[i].Get(f) != vs[j].Get(f); got[f] != want {
					t.Fatalf("n=%d m=%d: walk(%d, %d) has feature %d: %v, want %v", n, m, i, j, f, got[f], want)
				}
			}
		}
	}
	// Two weight vectors in turn, so a stale square would show. Weights
	// are signed, as updateC's are, and some are zero.
	for round := 0; round < 2; round++ {
		for f := range s.c {
			s.c[f] = r.NormFloat64()
			if r.Intn(5) == 0 {
				s.c[f] = 0
			}
		}
		s.fillDist()
		k := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want := s.pairDistanceWalk(i, j)
				if math.Float64bits(s.dist[k]) != math.Float64bits(want) {
					t.Fatalf("n=%d m=%d round %d: dist(%d, %d) = %v (%#x), walk %v (%#x)",
						n, m, round, i, j, s.dist[k], math.Float64bits(s.dist[k]), want, math.Float64bits(want))
				}
				k++
			}
		}
	}
}
