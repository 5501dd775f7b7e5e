package segment

import (
	"bytes"
	"testing"
)

// FuzzReader throws arbitrary bytes at the segment decoder: NewReader
// must return an error or a reader — never panic, hang, or allocate
// beyond what the anti-bomb limits of this package and the graph codec
// allow — for every input. An input that NewReader and VerifyBody both
// accept must decode through every accessor and every GraphAt, and
// re-encode through Write to exactly its own bytes: the canonical v5
// encoding is a fixed point. A v4 input, read but never written,
// re-encodes as a v5 file that is then a fixed point. The seed corpus is
// a valid v5 segment (tombstones, two words per vector), systematic
// truncations and bit flips of it, and a v4 shard file.
func FuzzReader(f *testing.F) {
	valid := encodeFixture(f, buildFixture(f, 40, 70, 17))
	f.Add(valid)
	// Truncations at structural boundaries (magic, meta, trailer) and
	// random depths.
	for _, cut := range []int{0, 4, 8, 9, 16, len(valid) / 3, len(valid) / 2, len(valid) - trailerSize, len(valid) - 5, len(valid) - 1} {
		f.Add(bytes.Clone(valid[:cut]))
	}
	// Bit flips across the file: meta, sections, the trailer's offsets
	// and scalars, its two checksums and its magic.
	for _, pos := range []int{8, 12, 24, len(valid) / 2, len(valid) - 76, len(valid) - 20, len(valid) - 14, len(valid) - 1} {
		flipped := bytes.Clone(valid)
		flipped[pos] ^= 0x10
		f.Add(flipped)
	}
	// Degenerate non-segment inputs.
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add([]byte(`{"version":1}`))
	f.Add(v4Shard(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(data, false, nil)
		if err != nil || r.VerifyBody() != nil {
			return
		}
		enc := reencode(t, r)
		if bytes.HasPrefix(data, []byte(magicV4)) {
			if r, err = openVerified(enc); err != nil {
				t.Fatalf("v4 re-encoded as an unreadable segment: %v", err)
			}
			data, enc = enc, reencode(t, r)
		}
		if !bytes.Equal(enc, data) {
			t.Fatal("decode→encode is not a fixed point")
		}
	})
}

// reencode decodes a verified segment through every accessor and returns
// its encoding by Write.
func reencode(t *testing.T, r *Reader) []byte {
	t.Helper()
	blk, err := r.Block()
	if err != nil {
		t.Fatalf("Block of a verified segment: %v", err)
	}
	if _, err := r.Postings(); err != nil {
		t.Fatalf("Postings of a verified segment: %v", err)
	}
	dead, count := r.Dead()
	if count > r.N() {
		t.Fatalf("%d tombstones among %d ids", count, r.N())
	}
	for i := 0; i < r.N(); i++ {
		if _, err := r.GraphAt(i); err != nil {
			t.Fatalf("GraphAt of a verified segment: %v", err)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, Payload{Meta: r.Meta(), Block: blk, Dead: dead, Graph: r.GraphBytes}); err != nil {
		t.Fatalf("re-encoding a verified segment: %v", err)
	}
	return buf.Bytes()
}
