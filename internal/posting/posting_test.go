package posting

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/vecspace"
)

// randomVectors draws n vectors of dimension p with the given bit
// density.
func randomVectors(rng *rand.Rand, n, p int, density float64) []*vecspace.BitVector {
	out := make([]*vecspace.BitVector, n)
	for i := range out {
		v := vecspace.NewBitVector(p)
		for r := 0; r < p; r++ {
			if rng.Float64() < density {
				v.Set(r)
			}
		}
		out[i] = v
	}
	return out
}

// naiveLists transposes vectors the slow way.
func naiveLists(vecs []*vecspace.BitVector, p int) [][]int32 {
	lists := make([][]int32, p)
	for id, v := range vecs {
		for r := 0; r < p; r++ {
			if v.Get(r) {
				lists[r] = append(lists[r], int32(id))
			}
		}
	}
	return lists
}

func TestFromVectorsMatchesNaiveTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 100} {
		vecs := randomVectors(rng, n, 67, 0.2)
		ix := FromVectors(vecs, 67)
		if ix.N() != n || ix.P() != 67 {
			t.Fatalf("n=%d: index reports n=%d p=%d", n, ix.N(), ix.P())
		}
		want := naiveLists(vecs, 67)
		for r := 0; r < 67; r++ {
			if got := ix.List(r); !reflect.DeepEqual(got, want[r]) && (len(got) != 0 || len(want[r]) != 0) {
				t.Fatalf("n=%d dim %d: lists diverge: got %v want %v", n, r, got, want[r])
			}
		}
	}
}

func TestAppendEqualsBulkBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	all := randomVectors(rng, 120, 33, 0.25)
	bulk := FromVectors(all, 33)
	// Build the same index through a chain of Appends of varying sizes.
	inc := FromVectors(nil, 33)
	for lo := 0; lo < len(all); {
		hi := lo + 1 + rng.Intn(17)
		if hi > len(all) {
			hi = len(all)
		}
		inc = inc.Append(all[lo:hi])
		lo = hi
	}
	if inc.N() != bulk.N() {
		t.Fatalf("incremental n = %d, bulk n = %d", inc.N(), bulk.N())
	}
	for r := 0; r < 33; r++ {
		if !reflect.DeepEqual(inc.List(r), bulk.List(r)) {
			t.Fatalf("dim %d diverges after appends", r)
		}
	}
	// byCount buckets must agree too: compare via Plan over an all-zero
	// query, whose Rest stream enumerates every id in (ones, id) order.
	q := vecspace.NewBitVector(33)
	var a, b []int32
	bulk.Plan(q, 1).Rest(func(id, _ int32) bool { a = append(a, id); return true })
	inc.Plan(q, 1).Rest(func(id, _ int32) bool { b = append(b, id); return true })
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("ones-order streams diverge: bulk %v incremental %v", a, b)
	}
}

func TestUnion(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lists [][]int32
		union []int32
	}{
		{"empty", nil, nil},
		{"single", [][]int32{{1, 4, 9}}, []int32{1, 4, 9}},
		{"disjoint", [][]int32{{1, 3}, {2, 4}}, []int32{1, 2, 3, 4}},
		{"overlap", [][]int32{{1, 2, 5}, {2, 5, 7}, {0, 5}}, []int32{0, 1, 2, 5, 7}},
		{"subset", [][]int32{{1, 2, 3, 4}, {2, 3}}, []int32{1, 2, 3, 4}},
		{"with empty list", [][]int32{{1, 2}, {}}, []int32{1, 2}},
	} {
		if got := Union(tc.lists...); !sameIDs(got, tc.union) {
			t.Errorf("%s: Union = %v, want %v", tc.name, got, tc.union)
		}
	}
}

func sameIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestUnionRandomizedAgainstMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		k := 1 + rng.Intn(5)
		lists := make([][]int32, k)
		inAll := map[int32]int{}
		for i := range lists {
			seen := map[int32]bool{}
			for j := 0; j < rng.Intn(30); j++ {
				id := int32(rng.Intn(60))
				if !seen[id] {
					seen[id] = true
				}
			}
			for id := int32(0); id < 60; id++ {
				if seen[id] {
					lists[i] = append(lists[i], id)
					inAll[id]++
				}
			}
		}
		var wantU []int32
		for id := int32(0); id < 60; id++ {
			if inAll[id] > 0 {
				wantU = append(wantU, id)
			}
		}
		if got := Union(lists...); !sameIDs(got, wantU) {
			t.Fatalf("round %d: Union = %v, want %v", round, got, wantU)
		}
	}
}

func TestPlanCostModelFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vecs := randomVectors(rng, 200, 16, 0.5) // dense: every dimension covers ~half
	ix := FromVectors(vecs, 16)

	dense := vecs[0] // matches many dimensions -> flat scan wins
	if pl := ix.Plan(dense, 5); pl != nil {
		t.Fatalf("dense query got a pruning plan (matched mass should trip the cost model)")
	}
	sparse := vecspace.NewBitVector(16) // matches nothing -> maximal pruning
	pl := ix.Plan(sparse, 5)
	if pl == nil {
		t.Fatalf("sparse query got no plan")
	}
	if len(pl.Matched) != 0 || pl.QueryOnes != 0 {
		t.Fatalf("sparse plan: matched=%d ones=%d, want 0/0", len(pl.Matched), pl.QueryOnes)
	}
	// k at the collection size trips the cost model even with no matches.
	if pl := ix.Plan(sparse, 200); pl != nil {
		t.Fatalf("k = n still got a plan")
	}
	// Degenerate dimensionalities never plan.
	if pl := FromVectors(nil, 0).Plan(vecspace.NewBitVector(0), 3); pl != nil {
		t.Fatalf("p = 0 got a plan")
	}
	if pl := ix.Plan(vecspace.NewBitVector(8), 3); pl != nil {
		t.Fatalf("mismatched query dimension got a plan")
	}
}

func TestPlanMatchedAndRestPartitionTheIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vecs := randomVectors(rng, 300, 40, 0.05)
	ix := FromVectors(vecs, 40)
	q := vecspace.NewBitVector(40)
	q.Set(3)
	q.Set(17)
	pl := ix.Plan(q, 10)
	if pl == nil {
		t.Fatalf("sparse query got no plan")
	}
	if pl.QueryOnes != 2 {
		t.Fatalf("QueryOnes = %d, want 2", pl.QueryOnes)
	}
	seen := make(map[int32]bool, 300)
	for _, id := range pl.Matched {
		if !vecs[id].Get(3) && !vecs[id].Get(17) {
			t.Fatalf("id %d in Matched shares no dimension with the query", id)
		}
		seen[id] = true
	}
	prevOnes, prevID := int32(-1), int32(-1)
	pl.Rest(func(id, ones int32) bool {
		if seen[id] {
			t.Fatalf("id %d yielded by both Matched and Rest", id)
		}
		seen[id] = true
		if got := int32(vecs[id].Ones()); got != ones {
			t.Fatalf("id %d: ones = %d, want %d", id, ones, got)
		}
		if ones < prevOnes || (ones == prevOnes && id <= prevID) {
			t.Fatalf("Rest out of (ones, id) order at id %d", id)
		}
		prevOnes, prevID = ones, id
		return true
	})
	if len(seen) != 300 {
		t.Fatalf("Matched + Rest covered %d of 300 ids", len(seen))
	}
	// Early termination: yield false stops the stream.
	n := 0
	pl.Rest(func(_, _ int32) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("Rest yielded %d ids after early stop, want 7", n)
	}
}
