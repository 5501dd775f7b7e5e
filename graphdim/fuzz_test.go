package graphdim

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
)

// FuzzReadIndex throws arbitrary bytes at ReadIndex: the decoder must
// return an error or a usable index — never panic, hang, or allocate
// beyond what the anti-bomb limits of internal/segment and the graph
// codec allow — for every input. The seed corpus is a valid v4 segment
// plus systematic truncations and bit flips of it.
func FuzzReadIndex(f *testing.F) {
	db := dataset.Chemical(dataset.ChemConfig{N: 10, MinVertices: 6, MaxVertices: 9, Seed: 17})
	idx, err := Build(db, Options{Dimensions: 8, Tau: 0.25, MCSBudget: 500})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := idx.Add(db[0]); err != nil {
		f.Fatal(err)
	}
	if err := idx.Remove(1); err != nil {
		f.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// Truncations at structural boundaries (magic, meta, trailer) and
	// random depths.
	for _, cut := range []int{0, 4, 8, 9, 16, len(valid) / 3, len(valid) / 2, len(valid) - 144, len(valid) - 5, len(valid) - 1} {
		f.Add(append([]byte(nil), valid[:cut]...))
	}
	// Bit flips across the file: meta, sections, the trailer's offsets,
	// its two checksums and its magic.
	for _, pos := range []int{8, 12, 24, len(valid) / 2, len(valid) - 140, len(valid) - 20, len(valid) - 14, len(valid) - 1} {
		flipped := append([]byte(nil), valid...)
		flipped[pos] ^= 0x10
		f.Add(flipped)
	}
	// Degenerate non-index inputs.
	f.Add([]byte{})
	f.Add([]byte("GDIMIDX4"))
	f.Add([]byte(`{"version":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A file the decoder accepts must behave like an index: the
		// accessors agree with each other and a save/reload round-trip
		// reproduces the state byte-for-byte (the canonical-encoding
		// property, extended to every decodable input).
		if loaded.Size() != loaded.TotalGraphs()-loaded.Removed() {
			t.Fatalf("Size %d != TotalGraphs %d - Removed %d", loaded.Size(), loaded.TotalGraphs(), loaded.Removed())
		}
		if r := loaded.StaleRatio(); r < 0 || r > 1 {
			t.Fatalf("StaleRatio %v outside [0,1]", r)
		}
		var buf bytes.Buffer
		if _, err := loaded.WriteTo(&buf); err != nil {
			t.Fatalf("re-saving a loaded index: %v", err)
		}
		again, err := ReadIndex(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reloading a re-saved index: %v", err)
		}
		var buf2 bytes.Buffer
		if _, err := again.WriteTo(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("save→load→save is not a fixed point")
		}
	})
}
