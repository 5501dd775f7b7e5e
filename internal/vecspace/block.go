package vecspace

import "math/bits"

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
// A Block is immutable to readers and shares the same copy-on-write
// lifecycle as posting.Index: Append returns an extended Block reusing
// every full tile of the receiver (only the trailing partial tile is
// copied), Appends must be serialized by the caller and applied only to
// the newest Block of a chain, and removals are not Block events —
// tombstoned ids keep their lanes and are filtered by the scan's
// liveness predicate.
type Block struct {
	n, p  int
	words int // (p+63)/64
	tiles [][]uint64
	// zones is the per-ZoneSpan skip metadata (ones-count min/max plus a
	// dimension-presence bitmap) the bounded top-k scan consults before
	// touching a zone's tiles. Derived from the tiles — Pack and Append
	// maintain it, BlockFromWords may adopt a precomputed one from a
	// segment trailer — and never part of any durable record.
	zones *ZoneMap
}

// DefaultBlockWidth is the tile width: 16 graphs per inner kernel
// iteration, one cache line pair per word row (16 lanes × 8 bytes =
// 128 B). It is a constant of the layout — the segment format records it
// so a reader can refuse a file packed any other way.
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
// lane is filled. zones may be nil, in which case the map is derived
// from the tiles.
func BlockFromWords(n, p int, data []uint64, zones *ZoneMap) *Block {
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
	if zones == nil {
		zones = deriveZones(b, nil, 0)
	}
	b.zones = zones
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

// HammingID returns the Hamming distance between q and packed vector id
// — the gather form of the kernel, used to score the posting planner's
// matched candidates from the same storage the flat scan streams.
func (b *Block) HammingID(q *BitVector, id int) int {
	tile := b.tiles[id/width]
	j := id % width
	c := 0
	for w, qw := range q.bits {
		c += bits.OnesCount64(qw ^ tile[w*width+j])
	}
	return c
}

// HammingInto writes the Hamming distance between q and every packed
// vector into out[0:N]. q must have dimension P and out at least N
// entries. Equivalent to calling q.HammingDistance per vector —
// bit-identical counts — but streaming word-major: one query word
// against Width contiguous lanes per inner iteration.
func (b *Block) HammingInto(q *BitVector, out []int32) {
	b.HammingSlice(q, 0, b.n, out)
}

// HammingSlice is HammingInto restricted to ids [lo, hi), writing
// out[lo:hi]. lo must be tile-aligned (lo % Width == 0); hi is clamped
// to N. It exists so a long scan can interleave cancellation checks
// between chunks without giving up the batched inner loop.
func (b *Block) HammingSlice(q *BitVector, lo, hi int, out []int32) {
	if lo%width != 0 {
		panic("vecspace: HammingSlice lo must be tile-aligned")
	}
	if hi > b.n {
		hi = b.n
	}
	for base := lo; base < hi; base += width {
		tile := b.tiles[base/width]
		var acc [width]int32
		for w, qw := range q.bits {
			// The array-pointer conversion pins the row length so the
			// inner loop runs without bounds checks.
			row := (*[width]uint64)(tile[w*width:])
			for j := 0; j < width; j++ {
				acc[j] += int32(bits.OnesCount64(qw ^ row[j]))
			}
		}
		n := hi - base
		if n > width {
			n = width
		}
		copy(out[base:base+n], acc[:n])
	}
}

// HammingGather computes the Hamming distance between q and each of the
// listed packed vectors, writing out[i] for ids[i] — the batched form of
// per-id HammingID calls for the pruned scan's matched-candidate lists.
// Candidate rows are gathered Width at a time into the contiguous
// scratch tile and then run through the same bounds-check-free inner
// loop as the flat kernel, so a long candidate list pays the gather
// (pure copies) instead of Width separate strided walks with per-access
// bounds checks. Counts are bit-identical to HammingID's.
//
// scratch is the gather tile; if its capacity is below Words()*Width()
// a fresh one is allocated. The (possibly grown) scratch is returned so
// callers can pool it.
func (b *Block) HammingGather(q *BitVector, ids []int32, scratch []uint64, out []int32) []uint64 {
	stride := b.words * width
	if cap(scratch) < stride {
		scratch = make([]uint64, stride)
	}
	g := scratch[:stride]
	for base := 0; base < len(ids); base += width {
		m := len(ids) - base
		if m > width {
			m = width
		}
		for j := 0; j < m; j++ {
			id := int(ids[base+j])
			tile := b.tiles[id/width]
			col := id % width
			for w := 0; w < b.words; w++ {
				g[w*width+j] = tile[w*width+col]
			}
		}
		var acc [width]int32
		for w, qw := range q.bits {
			row := (*[width]uint64)(g[w*width:])
			for j := 0; j < width; j++ {
				acc[j] += int32(bits.OnesCount64(qw ^ row[j]))
			}
		}
		copy(out[base:base+m], acc[:m])
	}
	return scratch
}
