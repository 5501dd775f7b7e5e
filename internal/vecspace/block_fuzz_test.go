package vecspace

import "testing"

// FuzzBlockRoundTrip fuzzes the SoA pack/unpack round trip: any vector
// set, packed whole and split at any point into a
// Pack + Append chain, must unpack to bit-identical vectors, leave the
// pre-Append block untouched, and produce kernel counts equal to the
// scalar HammingDistance. The seed corpus pins the same edge shapes
// FuzzReadIndex leans on: zero-dimension and word-boundary vectors,
// empty sets, and ns straddling a tile edge.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0))           // p=0, n=0
	f.Add([]byte{0xff, 0x0f}, uint16(0), uint8(3)) // p=0, nonzero n
	f.Add(make([]byte, 17*8), uint16(63), uint8(16))
	f.Add(make([]byte, 17*16), uint16(64), uint8(15))
	f.Add(make([]byte, 16*9), uint16(65), uint8(8))
	f.Add(make([]byte, 15*24), uint16(192), uint8(7)) // max-dimension seed
	f.Add([]byte{0xaa, 0x55, 0xff, 0x00, 0x01}, uint16(3), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, pRaw uint16, splitRaw uint8) {
		p := int(pRaw) % 193
		// Decode a vector set from the byte stream: p bits per vector,
		// capped so huge inputs stay fast. p == 0 still admits vectors —
		// the zero-width edge the issue calls out.
		var n int
		if p == 0 {
			n = len(data) % 40
		} else {
			n = (len(data) * 8) / p
			if n > 64 {
				n = 64
			}
		}
		vecs := make([]*BitVector, n)
		for i := range vecs {
			v := NewBitVector(p)
			for r := 0; r < p; r++ {
				bit := i*p + r
				if data[bit/8]&(1<<(uint(bit)%8)) != 0 {
					v.Set(r)
				}
			}
			vecs[i] = v
		}

		whole := Pack(vecs, p)
		if whole.N() != n || whole.P() != p {
			t.Fatalf("pack: N=%d P=%d, want %d %d", whole.N(), whole.P(), n, p)
		}
		split := 0
		if n > 0 {
			split = int(splitRaw) % (n + 1)
		}
		head := Pack(vecs[:split], p)
		headBefore := head.Unpack()
		chained := head.Append(vecs[split:])

		assertSameVectors(t, "whole", whole.Unpack(), vecs)
		assertSameVectors(t, "chained", chained.Unpack(), vecs)
		assertSameVectors(t, "receiver after Append", head.Unpack(), headBefore)
		// Kernel counts against the scalar reference, query = last vector
		// (or the zero vector when empty).
		q := NewBitVector(p)
		if n > 0 {
			q = vecs[n-1]
		}
		out := make([]int32, n)
		whole.HammingInto(q, out)
		for i, v := range vecs {
			if want := int32(q.HammingDistance(v)); out[i] != want {
				t.Fatalf("kernel: hamming[%d] = %d, want %d", i, out[i], want)
			}
		}
	})
}
