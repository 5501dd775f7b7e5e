package vecspace

import "math/bits"

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
// the zone, so a bounded top-k scan whose current worst is already at or
// below the floor can skip the zone without touching a tile.
//
// The map is derived, never authoritative: it can always be rebuilt from
// the tiles (deriveZones), and the on-disk segment format stores it only
// so a mapped open does not have to. Like the Block it annotates, a
// ZoneMap is immutable to readers.
type ZoneMap struct {
	words int     // words per summary = (p+63)/64
	min   []int32 // per-zone minimum ones count
	max   []int32 // per-zone maximum ones count
	sums  []uint64
}

// NewZoneMap wraps already-derived zone metadata (the segment reader's
// path — the slices may alias a mapped file and are never written).
// len(min) and len(max) must agree and len(sums) must be zones*words.
func NewZoneMap(words int, min, max []int32, sums []uint64) *ZoneMap {
	if len(min) != len(max) || len(sums) != len(min)*words {
		panic("vecspace: inconsistent zone map lengths")
	}
	return &ZoneMap{words: words, min: min, max: max, sums: sums}
}

// Zones returns the number of zones covered.
func (z *ZoneMap) Zones() int {
	if z == nil {
		return 0
	}
	return len(z.min)
}

// MinOnes returns zone zi's minimum ones count.
func (z *ZoneMap) MinOnes(zi int) int { return int(z.min[zi]) }

// MaxOnes returns zone zi's maximum ones count.
func (z *ZoneMap) MaxOnes(zi int) int { return int(z.max[zi]) }

// Summary returns zone zi's dimension-presence bitmap (read-only).
func (z *ZoneMap) Summary(zi int) []uint64 {
	return z.sums[zi*z.words : (zi+1)*z.words]
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
