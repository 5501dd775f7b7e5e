package graphdim

import (
	"context"
	"os"
	"path/filepath"
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

// reopenAsCollection persists idx the one way an index persists — as a
// single-shard collection created in a fresh store directory, which
// checkpoints it — and returns that collection as OpenStore serves it in
// mode. With one shard every global id is its local id, so the shard
// answers in idx's id space. The store runs without a write-ahead log:
// later writes persist only through Checkpoint.
func reopenAsCollection(t *testing.T, idx *Index, mode MemoryMode) *Collection {
	t.Helper()
	s, dir := newCheckpointStore(t)
	if _, err := s.CreateFromIndex("c", idx, CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	return reopenCollection(t, dir, mode)
}

// reopenCollection opens the store at dir without a write-ahead log, in
// mode, closed with the test, and returns its collection "c".
func reopenCollection(t *testing.T, dir string, mode MemoryMode) *Collection {
	t.Helper()
	re, err := OpenStore(dir, StoreOptions{Memory: mode, WAL: WALOptions{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(re.Close)
	c, ok := re.Collection("c")
	if !ok {
		t.Fatal("collection lost across the reopen")
	}
	return c
}

// TestRoundTripPreservesState: an index with tombstones and post-Add ids,
// persisted as a collection's one shard and reopened mapped and on the
// heap, keeps its shape, tombstones, weights and dimensions and ranks
// exactly like its source under every engine; the reopened collection
// keeps growing and re-persists.
func TestRoundTripPreservesState(t *testing.T) {
	idx, db := buildForPersist(t)
	extra := dataset.Chemical(dataset.ChemConfig{N: 5, MinVertices: 8, MaxVertices: 12, Seed: 14})
	if _, err := idx.Add(extra...); err != nil {
		t.Fatal(err)
	}
	if err := idx.Remove(2, 7, 31); err != nil {
		t.Fatal(err)
	}

	for name, mode := range map[string]MemoryMode{"map": MemoryAuto, "heap": MemoryHeap} {
		c := reopenAsCollection(t, idx, mode)
		loaded := c.shards[0]
		if (loaded.snap.Load().seg == nil) != (mode == MemoryHeap) {
			t.Fatalf("%s: segment source %v; only a heap open rehydrates the whole shard", name, loaded.snap.Load().seg)
		}
		if loaded.TotalGraphs() != idx.TotalGraphs() || loaded.Size() != idx.Size() || loaded.Removed() != idx.Removed() {
			t.Fatalf("%s: shape changed: Total/Size/Removed %d/%d/%d vs %d/%d/%d", name,
				loaded.TotalGraphs(), loaded.Size(), loaded.Removed(),
				idx.TotalGraphs(), idx.Size(), idx.Removed())
		}
		if loaded.StaleRatio() != idx.StaleRatio() {
			t.Fatalf("%s: StaleRatio changed: %v vs %v", name, loaded.StaleRatio(), idx.StaleRatio())
		}
		if !loaded.IsRemoved(2) || !loaded.IsRemoved(31) || loaded.IsRemoved(3) {
			t.Fatalf("%s: tombstones not preserved", name)
		}
		if !reflect.DeepEqual(loaded.Weights(), idx.Weights()) {
			t.Fatalf("%s: weights changed", name)
		}
		for i, f := range idx.Dimensions() {
			if loaded.Dimensions()[i].String() != f.String() {
				t.Fatalf("%s: dimension %d changed", name, i)
			}
		}
		// Queries include a post-Add graph, so ids past the build are ranked.
		sameAnswers(t, idx, loaded, append(db[:5:5], extra[0]))

		// A reopened collection keeps growing and re-persists.
		if _, err := c.Add(context.Background(), extra[1]); err != nil {
			t.Fatal(err)
		}
		if err := c.store.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if again := reopenCollection(t, c.store.Dir(), mode); again.shards[0].TotalGraphs() != idx.TotalGraphs()+1 {
			t.Fatalf("%s: reopen→add→checkpoint lost graphs", name)
		}
	}
}

// openIndexFile writes data as an index file and opens it the way a store
// opens a shard file, in mode.
func openIndexFile(t *testing.T, data string, mode MemoryMode) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.gdx")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := openSegmentIndex(path, mode, nil)
	return err
}

func TestReadIndexRejectsNonIndexInput(t *testing.T) {
	for name, data := range map[string]string{
		"empty":     "",
		"text":      "hello world",
		"bad magic": "GDIMIDX9everything-else",
	} {
		for _, mode := range []MemoryMode{MemoryAuto, MemoryHeap} {
			if err := openIndexFile(t, data, mode); err == nil {
				t.Errorf("%s (mode %d): accepted", name, mode)
			}
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
		for _, mode := range []MemoryMode{MemoryAuto, MemoryHeap} {
			err := openIndexFile(t, tc.data, mode)
			if err == nil {
				t.Errorf("%s (mode %d): accepted", name, mode)
				continue
			}
			msg := err.Error()
			for _, want := range []string{"legacy " + tc.format, "previous release", "checkpoint"} {
				if !strings.Contains(msg, want) {
					t.Errorf("%s (mode %d): error %q does not mention %q", name, mode, msg, want)
				}
			}
			if strings.Contains(msg, "corrupt") {
				t.Errorf("%s (mode %d): legacy file reported as corrupt: %q", name, mode, msg)
			}
		}
	}
}
