package graphdim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
