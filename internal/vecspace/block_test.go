package vecspace

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func randVectors(rng *rand.Rand, n, p int) []*BitVector {
	vs := make([]*BitVector, n)
	for i := range vs {
		v := NewBitVector(p)
		for r := 0; r < p; r++ {
			if rng.Intn(3) == 0 {
				v.Set(r)
			}
		}
		vs[i] = v
	}
	return vs
}

func assertSameVectors(t *testing.T, label string, got, want []*BitVector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vectors, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Len() != want[i].Len() {
			t.Fatalf("%s: vector %d dimension %d, want %d", label, i, got[i].Len(), want[i].Len())
		}
		gw, ww := got[i].Words(), want[i].Words()
		for w := range ww {
			if gw[w] != ww[w] {
				t.Fatalf("%s: vector %d word %d = %#x, want %#x", label, i, w, gw[w], ww[w])
			}
		}
	}
}

// TestBlockPackUnpackRoundTrip drives Pack/Unpack through the boundary
// shapes: n on both sides of every tile edge, p on both sides of every
// word edge.
func TestBlockPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 33, 100} {
		for _, p := range []int{0, 1, 63, 64, 65, 128, 200} {
			vecs := randVectors(rng, n, p)
			b := Pack(vecs, p)
			if b.N() != n || b.P() != p || b.Width() != width {
				t.Fatalf("Pack(n=%d,p=%d): N=%d P=%d Width=%d", n, p, b.N(), b.P(), b.Width())
			}
			assertSameVectors(t, "unpack", b.Unpack(), vecs)
			for id := 0; id < n; id++ {
				if got, want := b.Vector(id).Words(), vecs[id].Words(); len(got) > 0 && &got[0] == &want[0] {
					t.Fatalf("Vector(%d) aliases the packed input", id)
				}
			}
		}
	}
}

// TestBlockAppendCopyOnWrite proves the Append contract the snapshot
// lifecycle depends on: the appended block equals a from-scratch pack
// of the full set, the receiver is untouched (readers of the old
// snapshot keep seeing exactly the old vectors), and full tiles are
// shared, not copied.
func TestBlockAppendCopyOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const p = 130
	for _, split := range []int{0, 1, width - 1, width, width + 3, 3 * width} {
		all := randVectors(rng, split+2*width+5, p)
		old := Pack(all[:split], p)
		oldSnapshot := old.Unpack()
		next := old.Append(all[split:])
		assertSameVectors(t, "appended", next.Unpack(), all)
		assertSameVectors(t, "receiver after Append", old.Unpack(), oldSnapshot)
		// Full tiles of the receiver must be shared by reference.
		for tidx := 0; tidx < split/width; tidx++ {
			if &old.tiles[tidx][0] != &next.tiles[tidx][0] {
				t.Fatalf("split=%d: full tile %d was copied, not shared", split, tidx)
			}
		}
		// The trailing partial tile must NOT be shared: Append writes
		// its free lanes.
		if rem := split % width; rem != 0 {
			tidx := split / width
			if &old.tiles[tidx][0] == &next.tiles[tidx][0] {
				t.Fatalf("split=%d: partial tile %d is shared with the receiver", split, tidx)
			}
		}
	}
	// Appending nothing returns the receiver itself.
	b := Pack(randVectors(rng, 10, p), p)
	if b.Append(nil) != b {
		t.Fatal("Append(nil) did not return the receiver")
	}
}

// TestBlockHammingMatchesScalar checks the kernel (the threshold-fused
// HammingBelow included) against the scalar
// HammingDistance on ragged shapes.
func TestBlockHammingMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, width - 1, width, width + 1, 3*width + 5} {
		for _, p := range []int{0, 1, 64, 65, 190} {
			vecs := randVectors(rng, n, p)
			q := randVectors(rng, 1, p)[0]
			b := Pack(vecs, p)
			out := make([]int32, n)
			b.HammingInto(q, out)
			for id, v := range vecs {
				want := int32(q.HammingDistance(v))
				if out[id] != want {
					t.Fatalf("n=%d p=%d: HammingInto[%d] = %d, want %d", n, p, id, out[id], want)
				}
			}
			// HammingBelow over tile-aligned chunks, with a tombstone
			// bitset and a threshold that visit tightens, must visit
			// exactly the ids a scalar walk admits — ascending, with
			// their counts — including a clamped over-length hi.
			for _, oneIn := range []int{0, 2, 5} {
				var dead []uint64
				if oneIn > 0 {
					dead = make([]uint64, (n+63)/64)
					for id := 0; id < n; id++ {
						if rng.Intn(oneIn) == 0 {
							dead[id/64] |= 1 << (id % 64)
						}
					}
				}
				tighten := func(thr, count int32) int32 {
					if thr == math.MaxInt32 {
						return count + 2
					}
					return max(thr-1, count)
				}
				var want, got [][2]int32
				thr := int32(math.MaxInt32)
				for id := range vecs {
					if (dead == nil || dead[id/64]&(1<<(id%64)) == 0) && out[id] < thr {
						want = append(want, [2]int32{int32(id), out[id]})
						thr = tighten(thr, out[id])
					}
				}
				thr = math.MaxInt32
				for lo := 0; lo < n; lo += 2 * width {
					thr = b.HammingBelow(q, lo, lo+2*width, dead, thr, func(id int, count int32) int32 {
						got = append(got, [2]int32{int32(id), count})
						thr = tighten(thr, count)
						return thr
					})
				}
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d p=%d 1/%d dead: HammingBelow visited %v, want %v", n, p, oneIn, got, want)
				}
			}
		}
	}
}

func TestBlockPanics(t *testing.T) {
	assertPanics := func(label string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", label)
			}
		}()
		fn()
	}
	b := Pack(randVectors(rand.New(rand.NewSource(4)), 20, 64), 64)
	assertPanics("unaligned lo", func() {
		b.HammingBelow(NewBitVector(64), 3, 20, nil, math.MaxInt32, func(int, int32) int32 { return 0 })
	})
}

// TestBlockPrefixThenAppend: a prefix of a block with vectors appended to
// it equals a fresh pack of the same vectors, zone map included, shares
// the receiver's full tiles below the cut, and leaves the receiver as it
// was.
func TestBlockPrefixThenAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const p = 70
	all := randVectors(rng, 3*ZoneSpan+20, p)
	more := randVectors(rng, ZoneSpan+7, p)
	for _, k := range []int{0, 1, width - 1, width, ZoneSpan - 3, ZoneSpan, 2*ZoneSpan + 5, len(all)} {
		old := Pack(all, p)
		next := old.Prefix(k).Append(more)
		fresh := Pack(append(append([]*BitVector(nil), all[:k]...), more...), p)
		if next.N() != fresh.N() || !reflect.DeepEqual(next.tiles, fresh.tiles) || !reflect.DeepEqual(next.zones, fresh.zones) {
			t.Fatalf("k=%d: Prefix then Append differs from a fresh pack", k)
		}
		assertSameVectors(t, "receiver after Prefix", old.Unpack(), all)
		for tidx := 0; tidx < k/width; tidx++ {
			if &old.tiles[tidx][0] != &next.tiles[tidx][0] {
				t.Fatalf("k=%d: full tile %d was copied, not shared", k, tidx)
			}
		}
	}
}
