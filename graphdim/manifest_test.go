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
		if err := os.WriteFile(path, manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		defer re.Close()
		c, _ := re.Collection("c")
		if n := c.Stats().Live; n != 46 {
			t.Fatalf("reopened %d graphs, want 46", n)
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
	fromIndented := answers(indented.Bytes())
	fromCompact := answers(compact)
	if !reflect.DeepEqual(fromIndented, fromCompact) {
		t.Fatalf("an indented manifest answers\n%v\nits compact rewrite\n%v", fromIndented, fromCompact)
	}
}
