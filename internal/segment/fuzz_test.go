package segment

import (
	"bytes"
	"strings"
	"testing"
)

// retiredMagics are the binary generations before v6.
var retiredMagics = []string{"GDIMIDX2", "GDIMIDX3", "GDIMIDX4", "GDIMIDX5"}

// FuzzReader throws arbitrary bytes at the segment decoder: NewReader
// must return an error or a reader — never panic, hang, or allocate
// beyond what the anti-bomb limits of this package and the graph codec
// allow — for every input. An input that NewReader accepts, checksums
// included, must decode through every accessor and every GraphAt, and
// re-encode through Write to exactly its own bytes: the canonical v6
// encoding is a fixed point. An input that starts with a retired
// generation's magic must be refused as "legacy". The seed corpus is a
// valid v6 segment (tombstones, two words per vector), systematic
// truncations and bit flips of it, and that segment under each retired
// magic.
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
	for _, pos := range []int{8, 12, 24, len(valid) / 2, len(valid) - 200, len(valid) - 84, len(valid) - 44, len(valid) - 20, len(valid) - 14, len(valid) - 1} {
		flipped := bytes.Clone(valid)
		flipped[pos] ^= 0x10
		f.Add(flipped)
	}
	// Degenerate non-segment inputs.
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add([]byte(`{"version":1}`))
	for _, magic := range retiredMagics {
		f.Add(append([]byte(magic), valid[len(Magic):]...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(data, false, nil)
		for _, magic := range retiredMagics {
			if bytes.HasPrefix(data, []byte(magic)) && (err == nil || !strings.Contains(err.Error(), "legacy")) {
				t.Fatalf("input with the retired magic %s: error %v, want a legacy refusal", magic, err)
			}
		}
		if err != nil {
			return
		}
		if !bytes.Equal(reencode(t, r), data) {
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
	if err := Write(&buf, Payload{Meta: r.Meta(), Block: blk, Dead: dead, IDs: r.IDs(), Graph: r.GraphBytes}); err != nil {
		t.Fatalf("re-encoding a verified segment: %v", err)
	}
	return buf.Bytes()
}
