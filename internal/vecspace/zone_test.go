package vecspace

import (
	"math/rand"
	"testing"
)

// zoneRandVecs draws n vectors over p dimensions with per-vector density
// drawn independently, so zones get genuinely different ones ranges —
// the regime zone skipping exists for.
func zoneRandVecs(rng *rand.Rand, n, p int) []*BitVector {
	vecs := make([]*BitVector, n)
	for i := range vecs {
		v := NewBitVector(p)
		density := rng.Float64() * rng.Float64() // skew sparse
		for r := 0; r < p; r++ {
			if rng.Float64() < density {
				v.Set(r)
			}
		}
		vecs[i] = v
	}
	return vecs
}

// TestZoneLowerBoundIsSound: the floor LowerBound proves must never
// exceed the true Hamming distance of any vector in the zone — on
// random blocks, random queries, ragged tails included.
func TestZoneLowerBoundIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 30; round++ {
		n := 1 + rng.Intn(3*ZoneSpan)
		p := 1 + rng.Intn(200)
		vecs := zoneRandVecs(rng, n, p)
		blk := Pack(vecs, p)
		z := blk.Zones()
		if z == nil || z.Zones() != (n+ZoneSpan-1)/ZoneSpan {
			t.Fatalf("round %d: %d zones for n=%d", round, z.Zones(), n)
		}
		for trial := 0; trial < 8; trial++ {
			q := zoneRandVecs(rng, 1, p)[0]
			qOnes, qw := q.Ones(), q.Words()
			for zi := 0; zi < z.Zones(); zi++ {
				bound := z.LowerBound(qOnes, qw, zi)
				lo, hi := zi*ZoneSpan, (zi+1)*ZoneSpan
				if hi > n {
					hi = n
				}
				for id := lo; id < hi; id++ {
					if d := q.HammingDistance(vecs[id]); d < bound {
						t.Fatalf("round %d zone %d: bound %d exceeds true distance %d of id %d (n=%d p=%d)",
							round, zi, bound, d, id, n, p)
					}
				}
			}
		}
	}
}

// TestZoneMapMaintainedByAppend: a zone map maintained incrementally
// through an Append chain must equal a from-scratch derivation over the
// same vectors — min, max, and summaries, including the zone the chain
// boundary falls inside.
func TestZoneMapMaintainedByAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 20; round++ {
		p := 1 + rng.Intn(150)
		total := 1 + rng.Intn(3*ZoneSpan)
		vecs := zoneRandVecs(rng, total, p)
		// Random chain: pack a prefix, then append random-size batches.
		cut := rng.Intn(total + 1)
		blk := Pack(vecs[:cut], p)
		for cut < total {
			step := 1 + rng.Intn(total-cut)
			blk = blk.Append(vecs[cut : cut+step])
			cut += step
		}
		fresh := Pack(vecs, p)
		got, want := blk.Zones(), fresh.Zones()
		if got.Zones() != want.Zones() {
			t.Fatalf("round %d: chained %d zones, fresh %d", round, got.Zones(), want.Zones())
		}
		for zi := 0; zi < want.Zones(); zi++ {
			if got.min[zi] != want.min[zi] || got.max[zi] != want.max[zi] {
				t.Fatalf("round %d zone %d: chained [%d,%d], fresh [%d,%d]",
					round, zi, got.min[zi], got.max[zi], want.min[zi], want.max[zi])
			}
		}
		for w := range want.sums {
			if got.sums[w] != want.sums[w] {
				t.Fatalf("round %d summary word %d: chained %x, fresh %x", round, w, got.sums[w], want.sums[w])
			}
		}
	}
}
