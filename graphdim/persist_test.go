package graphdim

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func buildForPersist(t *testing.T) (*Index, []*Graph) {
	t.Helper()
	db := dataset.Chemical(dataset.ChemConfig{N: 30, MinVertices: 8, MaxVertices: 12, Seed: 13})
	idx, err := Build(db, Options{Dimensions: 12, Tau: 0.15, MCSBudget: 1500})
	if err != nil {
		t.Fatal(err)
	}
	return idx, db
}

// sameAnswers requires a and b to rank identically under every engine.
func sameAnswers(t *testing.T, a, b *Index, queries []*Graph) {
	t.Helper()
	for _, engine := range []Engine{EngineMapped, EngineVerified, EngineExact} {
		opt := SearchOptions{K: 8, Engine: engine}
		for qi, q := range queries {
			ra, err := a.Search(context.Background(), q, opt)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.Search(context.Background(), q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ra.Results, rb.Results) {
				t.Fatalf("%v query %d: answers diverged after persistence:\n%v\n%v", engine, qi, ra.Results, rb.Results)
			}
		}
	}
}

func writeIndex(t *testing.T, idx *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := idx.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func TestRoundTripPreservesState(t *testing.T) {
	idx, db := buildForPersist(t)
	extra := dataset.Chemical(dataset.ChemConfig{N: 5, MinVertices: 8, MaxVertices: 12, Seed: 14})
	if _, err := idx.Add(extra...); err != nil {
		t.Fatal(err)
	}
	if err := idx.Remove(2, 7, 31); err != nil {
		t.Fatal(err)
	}

	data := writeIndex(t, idx)
	if !bytes.HasPrefix(data, []byte("GDIMIDX4")) {
		t.Fatalf("WriteTo wrote magic %q, want GDIMIDX4", data[:8])
	}
	loaded, err := ReadIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	if loaded.TotalGraphs() != idx.TotalGraphs() || loaded.Size() != idx.Size() || loaded.Removed() != idx.Removed() {
		t.Fatalf("shape changed: Total/Size/Removed %d/%d/%d vs %d/%d/%d",
			loaded.TotalGraphs(), loaded.Size(), loaded.Removed(),
			idx.TotalGraphs(), idx.Size(), idx.Removed())
	}
	if loaded.StaleRatio() != idx.StaleRatio() {
		t.Fatalf("StaleRatio changed: %v vs %v", loaded.StaleRatio(), idx.StaleRatio())
	}
	if !loaded.IsRemoved(2) || !loaded.IsRemoved(31) || loaded.IsRemoved(3) {
		t.Fatal("tombstones not preserved")
	}
	if !reflect.DeepEqual(loaded.Weights(), idx.Weights()) {
		t.Fatal("weights changed")
	}
	for i, f := range idx.Dimensions() {
		if loaded.Dimensions()[i].String() != f.String() {
			t.Fatalf("dimension %d changed", i)
		}
	}
	// Queries include a post-Add graph, so ids past the build are ranked.
	sameAnswers(t, idx, loaded, append(db[:5:5], extra[0]))

	// A loaded index keeps growing and re-persists.
	if _, err := loaded.Add(extra[1]); err != nil {
		t.Fatal(err)
	}
	again, err := ReadIndex(bytes.NewReader(writeIndex(t, loaded)))
	if err != nil {
		t.Fatal(err)
	}
	if again.TotalGraphs() != idx.TotalGraphs()+1 {
		t.Fatal("load→add→save lost graphs")
	}
}

// TestWriteToDeterministic pins the canonical encoding: same state, same
// bytes. Operators can diff and checksum index files.
func TestWriteToDeterministic(t *testing.T) {
	idx, _ := buildForPersist(t)
	a, b := writeIndex(t, idx), writeIndex(t, idx)
	if !bytes.Equal(a, b) {
		t.Fatal("two WriteTo calls produced different bytes")
	}
	// And a load→save cycle reproduces them too.
	loaded, err := ReadIndex(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, writeIndex(t, loaded)) {
		t.Fatal("load→save changed the encoding")
	}
}

// TestReadIndexRejectsCorruption flips every byte and cuts at every
// length of a valid file: the trailer and body checksums together leave
// no position a reader would accept.
func TestReadIndexRejectsCorruption(t *testing.T) {
	idx, _ := buildForPersist(t)
	valid := writeIndex(t, idx)
	corrupt := make([]byte, len(valid))
	for pos := range valid {
		copy(corrupt, valid)
		corrupt[pos] ^= 0x40
		if _, err := ReadIndex(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("flipped byte %d of %d accepted", pos, len(valid))
		}
	}
	for cut := 0; cut < len(valid); cut++ {
		if _, err := ReadIndex(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(valid))
		}
	}
}

func TestReadIndexRejectsNonIndexInput(t *testing.T) {
	for name, data := range map[string]string{
		"empty":     "",
		"text":      "hello world",
		"bad magic": "GDIMIDX9everything-else",
	} {
		if _, err := ReadIndex(strings.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadIndexNamesLegacyFormats: files of the retired generations are
// intact, so the error names the format and the upgrade path instead of
// calling them corrupt.
func TestReadIndexNamesLegacyFormats(t *testing.T) {
	for name, tc := range map[string]struct{ data, format string }{
		"v2":         {"GDIMIDX2\x00\x10payload", "v2 binary"},
		"v3":         {"GDIMIDX3\x00\x10payload", "v3 binary"},
		"v3 magic":   {"GDIMIDX3", "v3 binary"},
		"v1":         {`{"version":1,"metric":0,"features":[],"db":[]}`, "v1 JSON"},
		"v1 indent":  {"\n {\n \"version\": 1\n}", "v1 JSON"},
		"other json": {`{"version": 2}`, "v1 JSON"},
	} {
		_, err := ReadIndex(strings.NewReader(tc.data))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		msg := err.Error()
		for _, want := range []string{"legacy " + tc.format, "previous release", "checkpoint"} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: error %q does not mention %q", name, msg, want)
			}
		}
		if strings.Contains(msg, "corrupt") {
			t.Errorf("%s: legacy file reported as corrupt: %q", name, msg)
		}
	}
}
