package graphdim

import (
	"bytes"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// reopenAsCollection persists idx the one way an index persists — as a
// single-shard collection created in a fresh store directory, which
// checkpoints it — and returns that collection as OpenStore serves it.
// With one shard every global id is its local id, so the shard
// answers in idx's id space.
func reopenAsCollection(t *testing.T, idx *Index) *Collection {
	t.Helper()
	s, dir := newCheckpointStore(t)
	if _, err := s.CreateFromIndex("c", idx, CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	return reopenCollection(t, dir)
}

// reopenCollection opens the store at dir, closed with the test, and
// returns its collection "c".
func reopenCollection(t *testing.T, dir string) *Collection {
	t.Helper()
	re, err := OpenStore(dir, StoreOptions{})
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
// opens a shard file.
func openIndexFile(t *testing.T, data string) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.gdx")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := openSegmentIndex(path, nil)
	return err
}

func TestReadIndexRejectsNonIndexInput(t *testing.T) {
	for name, data := range map[string]string{
		"empty":     "",
		"text":      "hello world",
		"bad magic": "GDIMIDX9everything-else",
	} {
		if err := openIndexFile(t, data); err == nil {
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
		"v4":         {"GDIMIDX4\x00\x10payload", "v4 binary"},
		"v1":         {`{"version":1,"metric":0,"features":[],"db":[]}`, "v1 JSON"},
		"v1 indent":  {"\n {\n \"version\": 1\n}", "v1 JSON"},
		"other json": {`{"version": 2}`, "v1 JSON"},
	} {
		err := openIndexFile(t, tc.data)
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

// TestOpenStoreNamesLegacyV4Store: a store whose shards an older release
// checkpointed as v4 segments is refused with the format's name and the
// upgrade path, not called corrupt.
func TestOpenStoreNamesLegacyV4Store(t *testing.T) {
	s, dir := newCheckpointStore(t)
	idx, _ := equivBuild(t, rand.New(rand.NewSource(9)), 12)
	if _, err := s.CreateFromIndex("c", idx, CollectionOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	shards, err := filepath.Glob(filepath.Join(dir, "c", "shard-*.gdx"))
	if err != nil || len(shards) != 2 {
		t.Fatalf("shard files %v, %v", shards, err)
	}
	for _, path := range shards {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(data, "GDIMIDX4")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err = OpenStore(dir, StoreOptions{})
	if err == nil {
		t.Fatal("a v4 store opened")
	}
	for _, want := range []string{"legacy v4", "previous release", "checkpoint"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "corrupt") {
		t.Errorf("v4 store reported as corrupt: %q", err)
	}
}

// TestOpenStoreNamesLegacyV5Store: a store the previous release wrote —
// v5 shard files, their id tables in store.json, a log tail past the
// checkpoint (testdata/v5store) — is refused naming the shard file, the
// format and the upgrade path, and the refused open leaves every file of
// the store as it was.
func TestOpenStoreNamesLegacyV5Store(t *testing.T) {
	fixture := filepath.Join("testdata", "v5store")
	dir := copyDataDir(t, fixture)
	s, err := OpenStore(dir, StoreOptions{})
	if err == nil {
		s.Close()
		t.Fatal("a v5 store opened")
	}
	for _, want := range []string{filepath.Join(dir, "c", "shard-0000-"), "legacy v5", "previous release", "checkpoint"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "corrupt") {
		t.Errorf("v5 store reported as corrupt: %q", err)
	}
	files := 0
	err = filepath.WalkDir(fixture, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(fixture, path)
		if err != nil {
			return err
		}
		want, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		got, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			t.Errorf("the refused open changed %s", rel)
		}
		files++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two shards, the manifest and at least one log segment.
	if files < 4 {
		t.Fatalf("compared %d files of the fixture", files)
	}
}
