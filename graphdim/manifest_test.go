package graphdim

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestOpenStoreOpensIndentedManifest: a checkpoint writes its manifest
// compact, and a manifest written indented, as earlier releases wrote
// it, opens and answers exactly as its compact rewrite does — the same
// ids and scores on every engine, over a replayed log tail.
func TestOpenStoreOpensIndentedManifest(t *testing.T) {
	ctx := context.Background()
	s, dir := newCheckpointStore(t)
	coll, err := s.Create(ctx, "c", storeTestDB(t, 40, 3), CollectionOptions{Shards: 2, Build: storeTestOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coll.Add(ctx, storeTestDB(t, 6, 11)...); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, manifestName)
	compact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsAny(compact, "\n ") {
		t.Fatalf("checkpoint wrote an indented manifest:\n%s", compact)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, compact, "", " "); err != nil {
		t.Fatal(err)
	}

	queries := storeTestDB(t, 5, 21)
	answers := func(manifest []byte) [][]Result {
		t.Helper()
		re := openUnderManifest(t, dir, manifest)
		defer re.Close()
		return engineAnswers(t, re, 46, queries)
	}
	fromIndented := answers(indented.Bytes())
	fromCompact := answers(compact)
	if !reflect.DeepEqual(fromIndented, fromCompact) {
		t.Fatalf("an indented manifest answers\n%v\nits compact rewrite\n%v", fromIndented, fromCompact)
	}
}

// TestOpenStoreIgnoresPersistedSearchOptions: earlier releases persisted
// per-collection search defaults in a "defaults" block of store.json. A
// search's options now come from its caller alone, so such a manifest
// opens, answers exactly as the same manifest without the block on every
// engine, and the next checkpoint writes no defaults.
func TestOpenStoreIgnoresPersistedSearchOptions(t *testing.T) {
	ctx := context.Background()
	s, dir := newCheckpointStore(t)
	coll, err := s.Create(ctx, "c", storeTestDB(t, 40, 3), CollectionOptions{Shards: 2, Build: storeTestOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coll.Add(ctx, storeTestDB(t, 6, 11)...); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, manifestName)
	current, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := bytes.Replace(current, []byte(`"next_id":`),
		[]byte(`"defaults":{"k":4,"engine":"verified","verify_factor":2},"next_id":`), 1)
	if bytes.Equal(legacy, current) {
		t.Fatalf("no next_id key to put a defaults block beside:\n%s", current)
	}

	queries := storeTestDB(t, 5, 21)
	re := openUnderManifest(t, dir, current)
	want := engineAnswers(t, re, 46, queries)
	re.Close()
	re = openUnderManifest(t, dir, legacy)
	defer re.Close()
	if got := engineAnswers(t, re, 46, queries); !reflect.DeepEqual(got, want) {
		t.Fatalf("a manifest with a defaults block answers\n%v\nwithout it\n%v", got, want)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rewritten, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(rewritten, []byte(`"defaults"`)) {
		t.Fatalf("the next checkpoint kept the defaults block:\n%s", rewritten)
	}
}

// openUnderManifest installs manifest as dir's store.json and opens the
// store, closed with the test.
func openUnderManifest(t *testing.T, dir string, manifest []byte) *Store {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// engineAnswers checks that collection "c" of s holds live graphs and
// returns its top-8 for each query on the mapped, exact and verified
// engines.
func engineAnswers(t *testing.T, s *Store, live int, queries []*Graph) [][]Result {
	t.Helper()
	ctx := context.Background()
	c, _ := s.Collection("c")
	if n := c.Stats().Live; n != live {
		t.Fatalf("reopened %d graphs, want %d", n, live)
	}
	var out [][]Result
	for _, e := range []Engine{EngineMapped, EngineExact, EngineVerified} {
		for _, q := range queries {
			res, err := c.Search(ctx, q, SearchOptions{K: 8, Engine: e, VerifyFactor: 3})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.Results)
		}
	}
	return out
}
