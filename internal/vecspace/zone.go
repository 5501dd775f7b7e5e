package vecspace

import (
	"cmp"
	"math/bits"
	"slices"
)

// ZoneSpan is the number of consecutive ids a zone summarizes. It is a
// multiple of the tile width (DefaultBlockWidth), so a zone is always a
// whole number of tiles and a zone-at-a-time scan can hand the
// kernel tile-aligned ranges. 256 ids keeps the metadata tiny (two
// int32s plus one bitmap per zone) while each skipped zone saves 256
// XOR+popcount rows.
const ZoneSpan = 256

// ZoneMap is per-zone skip metadata derived from the packed vectors: for
// each run of ZoneSpan consecutive ids, the minimum and maximum ones
// count of its vectors and the bitwise OR of their words (the
// dimension-presence summary). From those three facts LowerBound proves
// a floor on the Hamming distance between a query and *every* vector in
// the zone, so a bounded top-k scan can visit zones best first and skip
// every zone whose floor its current worst already beats, without
// touching a tile (topk.MappedScan, which also breaks ties).
//
// The map is derived, never authoritative: it is always built from the
// tiles (deriveZones) and never stored. Like the Block it annotates, a
// ZoneMap is immutable to readers.
type ZoneMap struct {
	words int     // words per summary = (p+63)/64
	min   []int32 // per-zone minimum ones count
	max   []int32 // per-zone maximum ones count
	sums  []uint64
}

// Zones returns the number of zones covered.
func (z *ZoneMap) Zones() int {
	if z == nil {
		return 0
	}
	return len(z.min)
}

// LowerBound returns a proven floor on the Hamming distance between the
// query (qOnes set bits, words qw) and every vector in zone zi.
//
// For any vector g in the zone, hamming(q,g) = |q| + |g| − 2|q∧g|, and
// |q∧g| <= min(|q|, |g|, c) where c = |q ∧ summary| because g's set bits
// are a subset of the zone summary. So hamming >= f(|g|) with
// f(o) = |q| + o − 2·min(|q|, o, c), a function decreasing up to
// m = min(|q|, c) and increasing after it; its minimum over the zone's
// ones range [minOnes, maxOnes] is attained at o* = clamp(m, minOnes,
// maxOnes). The bound is exact in the sense that some bit pattern
// consistent with the metadata attains it.
func (z *ZoneMap) LowerBound(qOnes int, qw []uint64, zi int) int {
	c := 0
	sum := z.sums[zi*z.words:]
	for w, q := range qw {
		c += bits.OnesCount64(q & sum[w])
	}
	o := qOnes
	if c < o {
		o = c
	}
	if mn := int(z.min[zi]); o < mn {
		o = mn
	}
	if mx := int(z.max[zi]); o > mx {
		o = mx
	}
	t := qOnes
	if o < t {
		t = o
	}
	if c < t {
		t = c
	}
	return qOnes + o - 2*t
}

// deriveZones computes the ZoneMap of b's tiles. Zones entirely below
// prevN ids are copied from prev (they cannot have changed — ids only
// append); everything from the first zone prevN falls inside is
// recomputed from the tiles, so an Append pays O(appended + ZoneSpan),
// not O(n). prev may be nil (full derivation).
func deriveZones(b *Block, prev *ZoneMap, prevN int) *ZoneMap {
	nz := (b.n + ZoneSpan - 1) / ZoneSpan
	z := &ZoneMap{
		words: b.words,
		min:   make([]int32, nz),
		max:   make([]int32, nz),
		sums:  make([]uint64, nz*b.words),
	}
	shared := 0
	if prev != nil {
		shared = prevN / ZoneSpan // full zones of the previous block
		if shared > nz {
			shared = nz
		}
		copy(z.min, prev.min[:shared])
		copy(z.max, prev.max[:shared])
		copy(z.sums, prev.sums[:shared*b.words])
	}
	for zi := shared; zi < nz; zi++ {
		lo, hi := zi*ZoneSpan, (zi+1)*ZoneSpan
		if hi > b.n {
			hi = b.n
		}
		sum := z.sums[zi*b.words : (zi+1)*b.words]
		mn, mx := int32(-1), int32(0)
		for id := lo; id < hi; id++ {
			tile := b.tiles[id/width]
			j := id % width
			o := int32(0)
			for w := 0; w < b.words; w++ {
				word := tile[w*width+j]
				sum[w] |= word
				o += int32(bits.OnesCount64(word))
			}
			if mn < 0 || o < mn {
				mn = o
			}
			if o > mx {
				mx = o
			}
		}
		if mn < 0 {
			mn = 0
		}
		z.min[zi], z.max[zi] = mn, mx
	}
	return z
}

// ZoneMinima returns the least of ranks over each zone of len(ranks)
// lanes: the second key by which a best-first scan orders zones
// (topk.Order.ZoneMin). prev holds the minima over ranks[:prevN] (nil
// when prevN is 0); the zones wholly below prevN are copied from it and
// only the rest are computed, so extending a block by m lanes costs
// O(m + ZoneSpan) plus one copied int per zone — never a pass over the
// ranks already summarized.
func ZoneMinima(prev []int, prevN int, ranks []int) []int {
	nz := (len(ranks) + ZoneSpan - 1) / ZoneSpan
	out := make([]int, nz)
	shared := min(prevN/ZoneSpan, nz)
	copy(out, prev[:shared])
	for zi := shared; zi < nz; zi++ {
		out[zi] = slices.Min(ranks[zi*ZoneSpan : min((zi+1)*ZoneSpan, len(ranks))])
	}
	return out
}

// ClusterOrder returns the order in which to store vecs so that zones
// summarize similar vectors: the indexes of vecs stably sorted by ones
// count, then by word 0 bit-reversed. Dimensions are stored most
// informative first, so the reversed word puts dimension 0 in the key's
// top bit, and equal keys group vectors sharing their leading
// dimensions. Zones of such vectors have narrow ones ranges and sparse
// OR summaries, so LowerBound rules more of them out.
func ClusterOrder(vecs []*BitVector) []int {
	type lane struct {
		ones int
		head uint64
		i    int
	}
	lanes := make([]lane, len(vecs))
	for i, v := range vecs {
		lanes[i] = lane{ones: v.Ones(), i: i}
		if len(v.bits) > 0 {
			lanes[i].head = bits.Reverse64(v.bits[0])
		}
	}
	slices.SortStableFunc(lanes, func(a, b lane) int {
		if a.ones != b.ones {
			return a.ones - b.ones
		}
		return cmp.Compare(a.head, b.head)
	})
	order := make([]int, len(lanes))
	for j, l := range lanes {
		order[j] = l.i
	}
	return order
}
