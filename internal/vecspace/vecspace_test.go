package vecspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/gspan"
)

func randomVec(r *rand.Rand, p int) *BitVector {
	v := NewBitVector(p)
	for i := 0; i < p; i++ {
		if r.Intn(2) == 0 {
			v.Set(i)
		}
	}
	return v
}

func TestBitVectorBasics(t *testing.T) {
	v := NewBitVector(130)
	if v.Len() != 130 || v.Ones() != 0 {
		t.Fatalf("fresh vector wrong")
	}
	v.Set(0)
	v.Set(64)
	v.Set(129)
	if !v.Get(0) || !v.Get(64) || !v.Get(129) || v.Get(1) {
		t.Errorf("Get/Set wrong across word boundaries")
	}
	if v.Ones() != 3 {
		t.Errorf("Ones = %d, want 3", v.Ones())
	}
}

func TestDistanceMetricAxioms(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := 1 + r.Intn(200)
		a, b, c := randomVec(r, p), randomVec(r, p), randomVec(r, p)
		dab, dba := a.Distance(b), b.Distance(a)
		if dab != dba || dab < 0 || dab > 1 {
			return false
		}
		if a.Distance(a) != 0 {
			return false
		}
		// Triangle inequality.
		return a.Distance(c) <= dab+b.Distance(c)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDistanceFormula(t *testing.T) {
	// d = sqrt(hamming/p).
	a := NewBitVector(4)
	b := NewBitVector(4)
	a.Set(0)
	a.Set(1)
	b.Set(1)
	b.Set(2)
	want := math.Sqrt(2.0 / 4.0)
	if got := a.Distance(b); math.Abs(got-want) > 1e-12 {
		t.Errorf("Distance = %v, want %v", got, want)
	}
	if NewBitVector(0).Distance(NewBitVector(0)) != 0 {
		t.Errorf("zero-dim distance must be 0")
	}
}

func TestHammingAndIntersection(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := 1 + r.Intn(150)
		a, b := randomVec(r, p), randomVec(r, p)
		h, inter := 0, 0
		for i := 0; i < p; i++ {
			if a.Get(i) != b.Get(i) {
				h++
			}
			if a.Get(i) && b.Get(i) {
				inter++
			}
		}
		return a.HammingDistance(b) == h && a.IntersectionSize(b) == inter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMapperAgainstDirectContainment(t *testing.T) {
	// Features: single edge (C-C), path (C-C-C); graphs: path and star.
	cc := graph.New(2)
	cc.MustAddEdge(0, 1, 0)
	ccc := graph.New(3)
	ccc.MustAddEdge(0, 1, 0)
	ccc.MustAddEdge(1, 2, 0)
	big := graph.New(4) // star: contains both
	big.MustAddEdge(0, 1, 0)
	big.MustAddEdge(0, 2, 0)
	big.MustAddEdge(0, 3, 0)
	single := graph.New(2)
	single.MustAddEdge(0, 1, 0)

	m := NewMapper([]*graph.Graph{cc, ccc})
	vb := m.Map(big)
	if !vb.Get(0) || !vb.Get(1) {
		t.Errorf("star should contain both features")
	}
	vs := m.Map(single)
	if !vs.Get(0) || vs.Get(1) {
		t.Errorf("single edge should contain only feature 0")
	}
	all := m.MapAll([]*graph.Graph{big, single})
	if all[0].Ones() != 2 || all[1].Ones() != 1 {
		t.Errorf("MapAll inconsistent with Map")
	}
	if m.Dim() != 2 || len(m.Features()) != 2 {
		t.Errorf("Dim/Features wrong")
	}
}

func TestBuildIndexConsistency(t *testing.T) {
	feats := []*gspan.Feature{
		{Support: []int{0, 2}},
		{Support: []int{1}},
		{Support: []int{0, 1, 2}},
	}
	idx := BuildIndex(3, feats)
	if idx.N != 3 || idx.P != 3 {
		t.Fatalf("index shape wrong")
	}
	wantIG := [][]int{{0, 2}, {1, 2}, {0, 2}}
	for i, w := range wantIG {
		if len(idx.IG[i]) != len(w) {
			t.Fatalf("IG[%d] = %v, want %v", i, idx.IG[i], w)
		}
		for k := range w {
			if idx.IG[i][k] != w[k] {
				t.Fatalf("IG[%d] = %v, want %v", i, idx.IG[i], w)
			}
		}
	}
	v := idx.Vector(1)
	if v.Get(0) || !v.Get(1) || !v.Get(2) {
		t.Errorf("Vector(1) wrong")
	}
}

func TestBuildIndexFromVectorsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, p := 2+r.Intn(10), 1+r.Intn(12)
		vs := make([]*BitVector, n)
		for i := range vs {
			vs[i] = randomVec(r, p)
		}
		idx := BuildIndexFromVectors(vs)
		for i := range vs {
			got := idx.Vector(i)
			for r2 := 0; r2 < p; r2++ {
				if got.Get(r2) != vs[i].Get(r2) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestJaccardCorrelation(t *testing.T) {
	feats := []*gspan.Feature{
		{Support: []int{0, 1, 2}},
		{Support: []int{1, 2, 3}},
		{Support: []int{4}},
		{Support: nil},
	}
	idx := BuildIndex(5, feats)
	if got, want := idx.JaccardCorrelation(0, 1), 2.0/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Jaccard(0,1) = %v, want %v", got, want)
	}
	if got := idx.JaccardCorrelation(0, 2); got != 0 {
		t.Errorf("disjoint supports must have 0 correlation, got %v", got)
	}
	if got := idx.JaccardCorrelation(3, 3); got != 0 {
		t.Errorf("empty supports must have 0 correlation, got %v", got)
	}
	if got := idx.JaccardCorrelation(0, 0); got != 1 {
		t.Errorf("self correlation must be 1, got %v", got)
	}
	// Total over {0,1,2}: J(0,1)+J(0,2)+J(1,2) = 0.5.
	if got := idx.TotalCorrelation([]int{0, 1, 2}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("TotalCorrelation = %v, want 0.5", got)
	}
}

func TestSubindex(t *testing.T) {
	feats := []*gspan.Feature{
		{Support: []int{0, 2}},
		{Support: []int{1}},
		{Support: []int{0, 1, 2}},
	}
	idx := BuildIndex(3, feats)
	sub := idx.Subindex([]int{2, 0})
	if sub.P != 2 || sub.N != 3 {
		t.Fatalf("subindex shape wrong")
	}
	// Renumbered: feature 0 of sub = old 2, feature 1 = old 0.
	if len(sub.IF[0]) != 3 || len(sub.IF[1]) != 2 {
		t.Errorf("subindex IF wrong: %v", sub.IF)
	}
	v := sub.Vector(1)
	if !v.Get(0) || v.Get(1) {
		t.Errorf("subindex Vector(1) wrong")
	}
}
