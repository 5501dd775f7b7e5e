package vecspace

import "testing"

// FuzzBlockRoundTrip fuzzes the SoA pack/unpack round trip: any vector
// set, packed at either width and split at any point into a
// Pack + Append chain, must unpack to bit-identical vectors, leave the
// pre-Append block untouched, and produce kernel counts equal to the
// scalar HammingDistance. The seed corpus pins the same edge shapes
// FuzzReadIndex leans on: zero-dimension and word-boundary vectors,
// empty sets, and ns straddling a tile edge.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0), false, uint8(0))          // p=0, n=0
	f.Add([]byte{0xff, 0x0f}, uint16(0), true, uint8(3)) // p=0, nonzero n
	f.Add(make([]byte, 17*8), uint16(63), false, uint8(16))
	f.Add(make([]byte, 17*16), uint16(64), true, uint8(15))
	f.Add(make([]byte, 16*9), uint16(65), false, uint8(8))
	f.Add(make([]byte, 15*24), uint16(192), true, uint8(7)) // max-dimension seed
	f.Add([]byte{0xaa, 0x55, 0xff, 0x00, 0x01}, uint16(3), false, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, pRaw uint16, wide bool, splitRaw uint8) {
		p := int(pRaw) % 193
		width := 8
		if wide {
			width = 16
		}
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

		whole := PackWidth(vecs, p, width)
		if whole.N() != n || whole.P() != p {
			t.Fatalf("pack: N=%d P=%d, want %d %d", whole.N(), whole.P(), n, p)
		}
		split := 0
		if n > 0 {
			split = int(splitRaw) % (n + 1)
		}
		head := PackWidth(vecs[:split], p, width)
		headBefore := head.Unpack()
		chained := head.Append(vecs[split:])

		for label, b := range map[string]*Block{"whole": whole, "chained": chained} {
			got := b.Unpack()
			if len(got) != n {
				t.Fatalf("%s: unpacked %d vectors, want %d", label, len(got), n)
			}
			for i, v := range got {
				if v.Len() != p {
					t.Fatalf("%s: vector %d dimension %d, want %d", label, i, v.Len(), p)
				}
				gw, ww := v.Words(), vecs[i].Words()
				for w := range ww {
					if gw[w] != ww[w] {
						t.Fatalf("%s: vector %d word %d = %#x, want %#x", label, i, w, gw[w], ww[w])
					}
				}
			}
		}
		// Append must not have disturbed the receiver.
		for i, v := range head.Unpack() {
			gw, ww := v.Words(), headBefore[i].Words()
			for w := range ww {
				if gw[w] != ww[w] {
					t.Fatalf("receiver mutated by Append: vector %d word %d", i, w)
				}
			}
		}
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
