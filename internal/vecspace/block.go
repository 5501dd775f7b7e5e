package vecspace

import (
	"math"
	"math/bits"
	"slices"
)

// Block is the structure-of-arrays form of a database of binary feature
// vectors — the layout the hot mapped scan streams instead of chasing
// one *BitVector pointer per candidate.
//
// Vectors are grouped into tiles of DefaultBlockWidth consecutive ids.
// Inside a tile the packed words are word-major:
//
//	tile[w*Width + j]  =  word w of vector (t*Width + j)
//
// so one query word XORs against Width contiguous graph words per inner
// iteration, and math/bits.OnesCount64 (the POPCNT instruction) counts
// each lane. The last tile is zero-padded past N; kernels clip their
// output to N, so the padding lanes are never observed.
//
// A Block is immutable to readers and copy-on-write: Append returns an
// extended Block reusing every full tile of the receiver (only the
// trailing partial tile is copied), Appends must be serialized by the
// caller and applied only to the newest Block of a chain, and removals
// are not Block events — tombstoned ids keep their lanes and are masked
// by the scan's dead bitset (HammingBelow).
type Block struct {
	n, p  int
	words int // (p+63)/64
	tiles [][]uint64
	// zones is the per-ZoneSpan skip metadata (ones-count min/max plus a
	// dimension-presence bitmap) the bounded top-k scan consults before
	// touching a zone's tiles. Always derived from the tiles — Pack and
	// BlockFromWords derive it, Append maintains it — and never part of
	// any durable record.
	zones *ZoneMap
}

// DefaultBlockWidth is the tile width: 16 graphs per inner kernel
// iteration, one cache line pair per word row (16 lanes × 8 bytes =
// 128 B). It is a constant of the layout, on disk as in memory.
const DefaultBlockWidth = 16

const width = DefaultBlockWidth

// Pack builds the SoA block of vecs. Every vector must have dimension p;
// the block is usable (and Append-able) even when vecs is empty.
func Pack(vecs []*BitVector, p int) *Block {
	b := &Block{p: p, words: (p + 63) / 64}
	b.zones = deriveZones(b, nil, 0)
	return b.Append(vecs)
}

// BlockFromWords builds a Block whose tiles are subslices of data —
// zero-copy adoption of an on-disk tile section (internal/segment maps a
// checkpoint and hands the words straight to the kernel). data holds
// ceil(n/width) tiles of words·width uint64s each, in exactly the layout
// Pack produces, and must never be written afterwards: Append already
// treats full tiles as shared/immutable, and the trailing partial tile
// (the only one Append would touch) is copied to the heap before any
// lane is filled. The zone map is derived from the tiles.
func BlockFromWords(n, p int, data []uint64) *Block {
	words := (p + 63) / 64
	stride := words * width
	nt := (n + width - 1) / width
	if len(data) != nt*stride {
		panic("vecspace: tile data length mismatch")
	}
	b := &Block{n: n, p: p, words: words, tiles: make([][]uint64, nt)}
	for t := 0; t < nt; t++ {
		// Cap-clipped so an append can never scribble past a tile into
		// the next one (mapped tiles are read-only).
		b.tiles[t] = data[t*stride : (t+1)*stride : (t+1)*stride]
	}
	b.zones = deriveZones(b, nil, 0)
	return b
}

// N returns the number of vectors packed.
func (b *Block) N() int { return b.n }

// P returns the dimension p every packed vector has.
func (b *Block) P() int { return b.p }

// Width returns the tile width (vectors per inner kernel iteration).
func (b *Block) Width() int { return width }

// Words returns the number of 64-bit words each packed vector spans.
func (b *Block) Words() int { return b.words }

// Tiles returns the number of tiles.
func (b *Block) Tiles() int { return len(b.tiles) }

// Tile returns tile t's packed words — read-only, for serialization.
func (b *Block) Tile(t int) []uint64 { return b.tiles[t] }

// Zones returns the block's zone map (nil only on a WithoutZones copy).
func (b *Block) Zones() *ZoneMap { return b.zones }

// WithoutZones returns a view of b with no zone map, so benchmarks can
// measure the scan with data skipping ablated. The tiles are shared.
func (b *Block) WithoutZones() *Block {
	c := *b
	c.zones = nil
	return &c
}

// Append returns a Block extended with vecs as ids [N, N+len(vecs)).
// Full tiles of the receiver are shared, the trailing partial tile (if
// any) is copied before being filled, so the receiver stays valid for
// concurrent readers. Callers must serialize Appends and always append
// to the newest Block of a chain.
func (b *Block) Append(vecs []*BitVector) *Block {
	if len(vecs) == 0 {
		return b
	}
	next := &Block{
		n:     b.n + len(vecs),
		p:     b.p,
		words: b.words,
		tiles: append([][]uint64(nil), b.tiles...),
	}
	// Re-copy the trailing partial tile: its free lanes are about to be
	// written, and the receiver's readers must never observe that.
	if rem := b.n % width; rem != 0 {
		last := len(next.tiles) - 1
		next.tiles[last] = append([]uint64(nil), next.tiles[last]...)
	}
	for i, v := range vecs {
		id := b.n + i
		t, j := id/width, id%width
		if t == len(next.tiles) {
			next.tiles = append(next.tiles, make([]uint64, b.words*width))
		}
		tile := next.tiles[t]
		for w, word := range v.bits {
			tile[w*width+j] = word
		}
	}
	// Zone metadata is maintained incrementally like the tiles: zones
	// entirely below the old N are shared facts, only the trailing
	// partial zone and the new ids' zones are recomputed.
	next.zones = deriveZones(next, b.zones, b.n)
	return next
}

// Prefix returns a Block of b's first n vectors, ids [0, n). Every full
// tile below n is shared — a mapped one stays mapped — and the trailing
// partial tile, if any, is copied with its lanes from n on cleared, so
// Appending to the prefix never writes a tile b's readers see. The zones
// wholly below n are shared facts too.
func (b *Block) Prefix(n int) *Block {
	nt := (n + width - 1) / width
	next := &Block{n: n, p: b.p, words: b.words, tiles: slices.Clip(b.tiles[:nt])}
	if rem := n % width; rem != 0 {
		last := slices.Clone(b.tiles[nt-1])
		for w := 0; w < b.words; w++ {
			clear(last[w*width+rem : (w+1)*width])
		}
		next.tiles = append(next.tiles[:nt-1:nt-1], last)
	}
	next.zones = deriveZones(next, b.zones, n)
	return next
}

// Vector unpacks vector id back into its AoS form — the inverse of Pack
// for one id.
func (b *Block) Vector(id int) *BitVector {
	v := NewBitVector(b.p)
	tile := b.tiles[id/width]
	j := id % width
	for w := range v.bits {
		v.bits[w] = tile[w*width+j]
	}
	return v
}

// Unpack rebuilds the full AoS vector slice — Pack's inverse, used by
// tests to prove the round trip is a fixed point.
func (b *Block) Unpack() []*BitVector {
	out := make([]*BitVector, b.n)
	for i := range out {
		out[i] = b.Vector(i)
	}
	return out
}

// HammingInto writes the Hamming distance between q and every packed
// vector into out[0:N]. q must have dimension P and out at least N
// entries. Equivalent to calling q.HammingDistance per vector —
// bit-identical counts — but streaming word-major: one query word
// against Width contiguous lanes per inner iteration.
func (b *Block) HammingInto(q *BitVector, out []int32) {
	for base := 0; base < b.n; base += width {
		acc := counts(q, b.tiles[base/width])
		copy(out[base:min(base+width, b.n)], acc[:])
	}
}

// HammingBelow is the threshold-fused form of the kernel, the flat top-k
// scan's inner loop. It streams ids [lo, hi) a tile at a time and calls
// visit(id, count) only for the lanes whose Hamming count is below thr
// and whose bit in dead is clear, in ascending id order; every other lane
// is dropped without a call. visit returns the threshold for the lanes
// after it (a top-k heap hands back its worst kept count once it is
// full), and HammingBelow returns the last one.
//
// dead is a bitset — id i is bit i%64 of dead[i/64] — covering every id
// in [lo, hi), or nil when no id is dead. lo must be tile-aligned
// (lo % Width == 0); hi is clamped to N, so no padding lane is visited.
func (b *Block) HammingBelow(q *BitVector, lo, hi int, dead []uint64, thr int32,
	visit func(id int, count int32) int32) int32 {
	if lo%width != 0 {
		panic("vecspace: HammingBelow lo must be tile-aligned")
	}
	hi = min(hi, b.n)
	// Once the caller's heap is full almost no tile holds a lane below
	// thr, so each tile is first reduced to its least count, and only a
	// tile under thr pays for the lane mask (survivors). At p <= 64 that
	// pass keeps one running minimum and stores no lane's count.
	if len(q.bits) == 1 {
		qw := q.bits[0]
		for base := lo; base < hi; base += width {
			row := (*[width]uint64)(b.tiles[base/width])
			least := int32(math.MaxInt32)
			for j := 0; j < width; j++ {
				least = min(least, int32(bits.OnesCount64(qw^row[j])))
			}
			if least < thr {
				thr = survivors(counts(q, row[:]), base, hi, dead, thr, visit)
			}
		}
		return thr
	}
	for base := lo; base < hi; base += width {
		if acc := counts(q, b.tiles[base/width]); slices.Min(acc[:]) < thr {
			thr = survivors(acc, base, hi, dead, thr, visit)
		}
	}
	return thr
}

// survivors is HammingBelow's lane mask for the tile of ids base.. whose
// counts are acc: it visits the lanes below hi, live in dead, whose count
// is below thr.
func survivors(acc [width]int32, base, hi int, dead []uint64, thr int32,
	visit func(id int, count int32) int32) int32 {
	// below has bit j set when lane j's count is under thr: the sign of
	// count-thr, which cannot overflow (0 <= count <= p, thr >= 0).
	var below uint32
	for j, c := range acc {
		below |= uint32(c-thr) >> 31 << j
	}
	if dead != nil {
		// A tile is a quarter of a word: lanes base..base+15 are bits
		// base%64.. of word base/64.
		below &^= uint32(uint16(dead[base/64] >> (base % 64)))
	}
	if n := hi - base; n < width {
		below &= 1<<n - 1
	}
	for ; below != 0; below &= below - 1 {
		// The threshold may have tightened since the mask was taken.
		if j := bits.TrailingZeros32(below); acc[j] < thr {
			thr = visit(base+j, acc[j])
		}
	}
	return thr
}

// Keep clears, in the bitset keep, every id whose vector fails the
// dimension predicates: a bit of all clear, no bit of anyOf set (when
// anyOf is non-empty), or a set-bit count outside [minOnes, maxOnes]
// (maxOnes 0: no upper bound). It never sets a bit. keep is laid out as
// HammingBelow's dead bitset and covers the N ids. Every dimension must
// be in [0, P).
//
// The pass skips any tile whose keep bits are already clear. In the
// others the dimension tests stream the words word-major, as the Hamming
// kernel does; the ones count is then taken only of the lanes still kept.
func (b *Block) Keep(keep []uint64, all, anyOf []int, minOnes, maxOnes int) {
	if maxOnes == 0 {
		maxOnes = b.p
	}
	// masks holds the all-mask, then the any-mask, one word per vector word.
	masks := make([]uint64, 2*b.words)
	for _, d := range all {
		masks[d/64] |= 1 << (d % 64)
	}
	for _, d := range anyOf {
		masks[b.words+d/64] |= 1 << (d % 64)
	}
	countOnes := minOnes > 0 || maxOnes < b.p
	for t, tile := range b.tiles {
		base := t * width
		lanes := uint16(keep[base/64] >> (base % 64))
		if lanes == 0 {
			continue
		}
		// Bit j of failed is set once lane j misses a bit of all; bit j of
		// hit once it has a bit of anyOf. Each test is branch-free and runs
		// only over the words its mask touches.
		var failed, hit uint32
		for w := 0; w < b.words; w++ {
			row := (*[width]uint64)(tile[w*width:])
			if am := masks[w]; am != 0 {
				for j := 0; j < width; j++ {
					m := am &^ row[j]
					failed |= uint32((m|-m)>>63) << j
				}
			}
			if ym := masks[b.words+w]; ym != 0 {
				for j := 0; j < width; j++ {
					h := row[j] & ym
					hit |= uint32((h|-h)>>63) << j
				}
			}
		}
		if len(anyOf) > 0 {
			failed |= ^hit
		}
		for live := lanes &^ uint16(failed); countOnes && live != 0; live &= live - 1 {
			j, c := bits.TrailingZeros16(live), 0
			for w := j; w < len(tile); w += width {
				c += bits.OnesCount64(tile[w])
			}
			failed |= uint32((uint64(c-minOnes)|uint64(maxOnes-c))>>63) << j
		}
		keep[base/64] &^= uint64(uint16(failed)) << (base % 64)
	}
}

// counts returns the Hamming counts between q and the Width lanes of one
// packed tile (padding lanes included).
func counts(q *BitVector, tile []uint64) [width]int32 {
	var acc [width]int32
	for w, qw := range q.bits {
		// The array-pointer conversion pins the row length so the
		// inner loop runs without bounds checks.
		row := (*[width]uint64)(tile[w*width:])
		for j := 0; j < width; j++ {
			acc[j] += int32(bits.OnesCount64(qw ^ row[j]))
		}
	}
	return acc
}
