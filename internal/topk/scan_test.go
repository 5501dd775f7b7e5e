package topk

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/gspan"
	"repro/internal/vecspace"
)

// referenceScan is the flat scan's shape before the heap's threshold moved
// into the kernel: every lane's count is stored to an n-entry buffer and
// loaded back, each lane branches on a []bool tombstone and on the
// predicate, and each live lane is packed and offered to pushK, which
// rejects almost all of them once the heap is full. It returns the k best
// heap entries, sorted.
func referenceScan(blk *vecspace.Block, qv *vecspace.BitVector, dead []bool, pred Alive, k int,
	dists []int32, keys []entry) []entry {
	blk.HammingInto(qv, dists)
	keys = keys[:0]
	for id, d := range dists[:blk.N()] {
		if dead != nil && dead[id] {
			continue
		}
		if pred != nil && !pred(id) {
			continue
		}
		keys = pushK(keys, k, entry{key: uint64(d)<<32 | uint64(id), id: id})
	}
	slices.SortFunc(keys, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
	return keys
}

var (
	chemOnce    sync.Once
	chemBlock   *vecspace.Block
	chemQueries []*vecspace.BitVector
)

// chemCorpus is the mapped corpus BenchmarkMappedScan scans, built the way
// vecspace's chemMapper builds its mapper: 64 gSpan features of a
// 200-molecule sample (τ = 0.05, ≤ 6 edges, 64 scaffolds). It maps the
// same 64 query molecules and 40,000 more molecules of the same families,
// packed as one block.
func chemCorpus(tb testing.TB) (*vecspace.Block, []*vecspace.BitVector) {
	tb.Helper()
	chemOnce.Do(func() {
		const sample, queries, lanes = 200, 64, 40000
		all := dataset.Chemical(dataset.ChemConfig{N: sample + queries + lanes, Seed: 7, Scaffolds: 64})
		feats, err := gspan.Mine(all[:sample], gspan.Options{
			MinSupport:  gspan.MinSupportRatio(0.05, sample),
			MaxEdges:    6,
			MaxFeatures: 64,
		})
		if err != nil {
			tb.Fatal(err)
		}
		fs := make([]*graph.Graph, len(feats))
		for i, f := range feats {
			fs[i] = f.Graph
		}
		m := vecspace.NewMapper(fs)
		for _, g := range all[sample : sample+queries] {
			chemQueries = append(chemQueries, m.Map(g))
		}
		vecs := make([]*vecspace.BitVector, lanes)
		for i, g := range all[sample+queries:] {
			vecs[i] = m.Map(g)
		}
		chemBlock = vecspace.Pack(vecs, m.Dim())
	})
	if chemBlock == nil {
		tb.Fatal("chem corpus failed to build")
	}
	return chemBlock, chemQueries
}

// BenchmarkMappedScan is the flat top-k scan (K = 10) over the 40,000-lane
// chem corpus at p = 64 — the shape of bench's scan_dense — with no
// tombstones and with 1% of ids dead, on four layouts of the same vectors,
// each lane ranked by its id: unclustered keeps them in id order, as a
// stand-alone Index stores them; clustered stores them in
// vecspace.ClusterOrder, as a collection's shard does once a split or
// Compact has rewritten it; appended clusters the first three quarters and
// leaves the last quarter in id order, as a shard holds the lanes Add
// appended since its last rewrite; and appended-resorted is that shard
// after a checkpoint has clustered those lanes as a run of their own.
// Every iteration runs one query through both legs: fused is MappedScan on
// the layout, reference is referenceScan, the shape the fused scan
// replaced, always over the unclustered block. It reports each leg's ns
// per lane, their ratio — compare the ratio, which one run measures on one
// host, not the absolute ns/lane, which moves with the host — and
// zones-visited-%, the share of zones the fused leg streamed through the
// kernel (the rest its zone map ruled out).
func BenchmarkMappedScan(b *testing.B) {
	blk, queries := chemCorpus(b)
	n := blk.N()
	ctx := context.Background()
	vecs := blk.Unpack()
	base := n * 3 / 4
	// run lists the ids [lo, hi) in vecspace.ClusterOrder.
	run := func(lo, hi int) []int {
		order := vecspace.ClusterOrder(vecs[lo:hi])
		for i := range order {
			order[i] += lo
		}
		return order
	}
	idOrder := make([]int, n-base)
	for i := range idOrder {
		idOrder[i] = base + i
	}
	type layout struct {
		name string
		blk  *vecspace.Block
		ord  Order
		lane []int // lane of each id
	}
	// stored lays the ids out in lane order (order[lane] is the id).
	stored := func(name string, order []int) layout {
		l := layout{name: name, lane: make([]int, n)}
		lanes := make([]*vecspace.BitVector, n)
		rank := make([]int, n)
		for lane, id := range order {
			lanes[lane], rank[lane], l.lane[id] = vecs[id], id, lane
		}
		l.blk = vecspace.Pack(lanes, blk.P())
		l.ord = Order{Rank: rank, ZoneMin: vecspace.ZoneMinima(nil, 0, rank)}
		return l
	}
	layouts := []layout{
		{"unclustered", blk, Order{}, nil},
		stored("clustered", vecspace.ClusterOrder(vecs)),
		stored("appended", append(run(0, base), idOrder...)),
		stored("appended-resorted", append(run(0, base), run(base, n)...)),
	}
	for _, layout := range layouts {
		for _, pct := range []int{0, 1} {
			b.Run(fmt.Sprintf("%s/dead=%d%%", layout.name, pct), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(pct)))
				bitset, bools := make([]uint64, (n+63)/64), make([]bool, n)
				laneSkip := make([]uint64, (n+63)/64)
				for i := 0; i < n*pct/100; i++ {
					id := rng.Intn(n)
					bitset[id/64] |= 1 << (id % 64)
					bools[id] = true
					lane := id
					if layout.lane != nil {
						lane = layout.lane[id]
					}
					laneSkip[lane/64] |= 1 << (lane % 64)
				}
				lim := Limits{Skip: laneSkip}
				if pct == 0 {
					lim, bools = Limits{}, nil
				}
				s := NewScratch()
				defer s.Release()
				dists, keys := make([]int32, n), make([]entry, 0, 10)
				for _, qv := range queries {
					got, _, err := MappedScan(ctx, layout.blk, qv, lim, layout.ord, 10, s)
					if err != nil {
						b.Fatal(err)
					}
					keys = referenceScan(blk, qv, bools, nil, 10, dists, keys)
					for i, e := range keys {
						if id := int(layout.ord.rank(got[i].ID)); id != e.id {
							b.Fatalf("fused result %d is id %d, reference %d", i, id, e.id)
						}
					}
				}
				var fused, reference time.Duration
				visited := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					qv := queries[i%len(queries)]
					t0 := time.Now()
					MappedScan(ctx, layout.blk, qv, lim, layout.ord, 10, s)
					t1 := time.Now()
					keys = referenceScan(blk, qv, bools, nil, 10, dists, keys)
					fused += t1.Sub(t0)
					reference += time.Since(t1)
					visited += s.visited
				}
				lanes := float64(b.N) * float64(n)
				b.ReportMetric(float64(fused.Nanoseconds())/lanes, "fused-ns/lane")
				b.ReportMetric(float64(reference.Nanoseconds())/lanes, "reference-ns/lane")
				b.ReportMetric(float64(fused)/float64(reference), "fused/reference")
				b.ReportMetric(100*float64(visited)/float64(b.N*len(s.zones)), "zones-visited-%")
			})
		}
	}
}

// TestPredicateAskedOnlyOfSurvivors: the flat scan asks the predicate only
// about lanes the kernel's threshold lets through — each id at most once,
// and on a 4,000-id corpus at K = 10 far fewer times than there are live
// ids — and still returns the reference ranking.
func TestPredicateAskedOnlyOfSurvivors(t *testing.T) {
	rng := rand.New(rand.NewSource(kernelSeed(t)))
	const n, p, k = 4000, 64, 10
	vecs := kernelRandVecs(rng, n, p)
	blk := vecspace.Pack(vecs, p)
	asked := make([]int, n)
	for round := 0; round < 8; round++ {
		clear(asked)
		q := kernelRandVecs(rng, 1, p)[0]
		lim := Limits{Pred: func(id int) bool { asked[id]++; return id%3 != 0 }}
		if round%2 == 1 {
			lim.Skip = randDead(rng, n, 10)
		}
		skipped := func(id int) bool { return lim.Skip != nil && lim.Skip[id/64]&(1<<(id%64)) != 0 }
		got, scored, err := MappedScan(context.Background(), blk, q, lim, Order{}, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		for id, c := range asked {
			if c > 1 {
				t.Fatalf("round %d: predicate asked %d times about id %d", round, c, id)
			}
			if c > 0 && skipped(id) {
				t.Fatalf("round %d: predicate asked about dead id %d", round, id)
			}
			calls += c
		}
		if calls >= n/4 {
			t.Fatalf("round %d: predicate asked %d times on %d ids, want fewer than %d", round, calls, n, n/4)
		}
		if scored > calls {
			t.Fatalf("round %d: %d ids offered to the heap, only %d asked", round, scored, calls)
		}
		ref, _, err := MappedContext(context.Background(), vecs, q, func(id int) bool { return !skipped(id) && id%3 != 0 })
		if err != nil {
			t.Fatal(err)
		}
		assertRankingPrefix(t, "round "+strconv.Itoa(round), got, ref, k)
		t.Logf("round %d: predicate asked %d times, %d ids offered", round, calls, scored)
	}
}

// FuzzMappedScan: the flat MappedScan over any vector set, tombstone
// bitset, predicate, k and tie order returns exactly the first k entries
// of MappedContext's ranking re-sorted by (score, rank), distances
// included. Vectors are p bits each of data; id i is dead when bit i%8 of
// deadBits[i/8] is set; mod > 1 refuses ids divisible by it; perm, when
// non-zero, seeds a random lane→rank permutation (as a clustered shard's
// global ids), and otherwise every id is its own rank. At small p most
// vectors tie, so the heap's root ties lanes in later zones and later
// tiles whose ranks are smaller: the seeds at p ≤ 3 over several zones
// fail if a lane tying the root is not admitted, or if zones are ordered
// or stopped at by their first lane instead of their least rank.
func FuzzMappedScan(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0), uint8(3), uint64(0), uint64(0), uint8(0), int64(0))
	f.Add([]byte{0x5a, 0xa5, 0xff, 0x00, 0x13}, []byte{0x01}, uint8(3), uint8(2), uint64(5), uint64(0), uint8(0), int64(0))
	f.Add(make([]byte, 300), []byte{0xff, 0xff, 0x0f}, uint8(1), uint8(10), uint64(1), uint64(0), uint8(3), int64(0))
	f.Add(make([]byte, 1024), []byte{0, 0xff, 0, 0xff}, uint8(64), uint8(1), uint64(0xf0f0), uint64(3), uint8(2), int64(0))
	// Duplicate-heavy, several zones, ranks permuted.
	dense := make([]byte, 250)
	for i := range dense {
		dense[i] = byte(i*37 + i/7)
	}
	f.Add(dense, []byte{}, uint8(1), uint8(10), uint64(1), uint64(0), uint8(0), int64(1))
	f.Add(dense, []byte{0x10, 0x02}, uint8(2), uint8(25), uint64(2), uint64(0), uint8(3), int64(2))
	f.Add(make([]byte, 250), []byte{}, uint8(0), uint8(40), uint64(0), uint64(0), uint8(0), int64(3))
	f.Add(dense, []byte{0, 0, 0x80}, uint8(2), uint8(7), uint64(5), uint64(0), uint8(5), int64(4))
	f.Fuzz(func(t *testing.T, data, deadBits []byte, pRaw, kRaw uint8, q0, q1 uint64, mod uint8, perm int64) {
		p := int(pRaw)%128 + 1
		n := min(len(data)*8/p, 2000)
		vecs := make([]*vecspace.BitVector, n)
		for i := range vecs {
			v := vecspace.NewBitVector(p)
			for r := 0; r < p; r++ {
				if bit := i*p + r; data[bit/8]&(1<<(bit%8)) != 0 {
					v.Set(r)
				}
			}
			vecs[i] = v
		}
		q := vecspace.NewBitVector(p)
		for r := 0; r < p; r++ {
			if []uint64{q0, q1}[r/64]&(1<<(r%64)) != 0 {
				q.Set(r)
			}
		}
		var lim Limits
		if len(deadBits) > 0 {
			lim.Skip = make([]uint64, (n+63)/64)
			for i := 0; i < n && i/8 < len(deadBits); i++ {
				if deadBits[i/8]&(1<<(i%8)) != 0 {
					lim.Skip[i/64] |= 1 << (i % 64)
				}
			}
		}
		if mod > 1 {
			lim.Pred = func(id int) bool { return id%int(mod) != 0 }
		}
		var ord Order
		if perm != 0 {
			ord.Rank = rand.New(rand.NewSource(perm)).Perm(n)
			ord.ZoneMin = vecspace.ZoneMinima(nil, 0, ord.Rank)
		}
		k := int(kRaw)
		ref, _, err := MappedContext(context.Background(), vecs, q, lim.Admits)
		if err != nil {
			t.Fatal(err)
		}
		ord.sort(ref)
		got, _, err := MappedScan(context.Background(), vecspace.Pack(vecs, p), q, lim, ord, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertRankingPrefix(t, fmt.Sprintf("n=%d p=%d k=%d perm=%d", n, p, k, perm), got, ref, k)
	})
}

// BenchmarkZoneSkip measures zone-map data skipping on the flat scan at
// its design point: clustered data (each zone's vectors draw from one
// narrow dimension band) and a selective query matching one band. With
// zones the scan proves most blocks cannot beat the current top-k floor
// and never touches their tiles; without (WithoutZones) it streams
// everything. Expect >= 2x.
func BenchmarkZoneSkip(b *testing.B) {
	const (
		p     = 256
		zones = 64
		band  = 16
		n     = zones * vecspace.ZoneSpan
	)
	rng := rand.New(rand.NewSource(17))
	vecs := make([]*vecspace.BitVector, n)
	for i := range vecs {
		v := vecspace.NewBitVector(p)
		base := (i / vecspace.ZoneSpan) * band % p
		for j := 0; j < 8; j++ {
			v.Set(base + rng.Intn(band))
		}
		vecs[i] = v
	}
	q := vecspace.NewBitVector(p)
	for j := 0; j < 8; j++ {
		q.Set(rng.Intn(band))
	}
	blk := vecspace.Pack(vecs, p)
	ctx := context.Background()
	s := NewScratch()
	defer s.Release()
	for _, bc := range []struct {
		name string
		blk  *vecspace.Block
	}{
		{"zones", blk},
		{"nozones", blk.WithoutZones()},
	} {
		b.Run(fmt.Sprintf("%s/n=%d", bc.name, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := MappedScan(ctx, bc.blk, q, Limits{}, Order{}, 10, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
