package vecspace

import (
	"math/rand"
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

// TestBlockHammingMatchesScalar checks the kernel (the gather form and
// tile-aligned slices included) against the scalar HammingDistance on
// ragged shapes.
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
				if got := b.HammingID(q, id); int32(got) != want {
					t.Fatalf("n=%d p=%d: HammingID(%d) = %d, want %d", n, p, id, got, want)
				}
			}
			// Chunked slices must agree with the one-shot scan,
			// including a clamped over-length hi.
			chunked := make([]int32, n)
			for lo := 0; lo < n; lo += width {
				b.HammingSlice(q, lo, lo+width, chunked)
			}
			for id := range out {
				if chunked[id] != out[id] {
					t.Fatalf("n=%d p=%d: chunked[%d] = %d, want %d", n, p, id, chunked[id], out[id])
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
	assertPanics("unaligned lo", func() { b.HammingSlice(NewBitVector(64), 3, 20, make([]int32, 20)) })
}
