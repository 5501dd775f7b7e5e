package graphdim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/wal"
)

// TestReplayPublishesOncePerShard: a reopen applies its log tail as one
// batch, so each shard publishes once however many records the tail
// holds — the generation a shard reports after the open is at most 2 —
// and the reopened store answers exactly as the store that wrote the log
// did, on every engine.
func TestReplayPublishesOncePerShard(t *testing.T) {
	ctx := context.Background()
	s, dir := newCheckpointStore(t)
	coll, err := s.Create(ctx, "c", storeTestDB(t, 40, 3), CollectionOptions{Shards: 2, Build: storeTestOptions()})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range storeTestDB(t, 60, 13) {
		if _, err := coll.Add(ctx, g); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			// A build-time id and the id just added.
			if err := coll.Remove(i/10, 40+i); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := coll.Stats()
	if tail := st.WAL.LastSeq - st.WAL.CheckpointSeq; tail < 66 {
		t.Fatalf("the log tail holds %d records, want 66", tail)
	}
	queries := append(storeTestDB(t, 4, 21), storeTestDB(t, 60, 13)[20:22]...)
	want := engineAnswers(t, s, st.Live, queries)
	s.Close() // no checkpoint: the reopen replays all 66 records

	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	c, _ := re.Collection("c")
	for i, g := range c.Stats().Generations {
		if g > 2 {
			t.Errorf("shard %d: generation %d after the reopen, want at most 2", i, g)
		}
	}
	if got := engineAnswers(t, re, st.Live, queries); !reflect.DeepEqual(got, want) {
		t.Fatalf("the reopened store answers\n%v\nthe store that wrote the log\n%v", got, want)
	}
}

// TestReplayChecksRecordsInLogOrder: a batch is applied at once, but each
// record is still checked in log order: an add must start at the next id,
// and a remove must name ids assigned before its own record and not
// removed since. A log whose remove names an id that only a later add
// assigns, repeats an id removed earlier in the tail, or whose add
// assigns an id again, is refused by OpenStore naming the record; a
// follower handed the same records as one batch refuses them too,
// mirrors and publishes none of them, keeps its applied position and
// refuses them again when they are handed to it again.
func TestReplayChecksRecordsInLogOrder(t *testing.T) {
	ctx := context.Background()
	idx, db := equivBuild(t, rand.New(rand.NewSource(4)), 24)
	n := len(db)
	e := dataset.Synthetic(dataset.SynthConfig{N: 4, AvgEdges: 9, Labels: 5, Seed: 6})
	fresh := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		s, err := CreateStore(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.CreateFromIndex("c", idx, CollectionOptions{Shards: 2}); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return dir
	}
	for _, row := range []struct {
		name string
		recs []wal.Record
		want string // the refusal, naming the record
	}{
		{
			name: "remove of an id a later add assigns",
			recs: []wal.Record{
				{Type: wal.TypeAdd, First: n, Graphs: e[:2]},
				{Type: wal.TypeRemove, IDs: []int{n + 2}},
				{Type: wal.TypeAdd, First: n + 2, Graphs: e[2:3]},
			},
			want: fmt.Sprintf("wal record 2: remove on shard %d: id %d not in store", placeID(n+2, 2), n+2),
		},
		{
			name: "repeated remove of a checkpointed id",
			recs: []wal.Record{
				{Type: wal.TypeRemove, IDs: []int{3}},
				{Type: wal.TypeAdd, First: n, Graphs: e[:1]},
				{Type: wal.TypeRemove, IDs: []int{3}},
			},
			want: fmt.Sprintf("wal record 3: remove on shard %d: id 3 already removed", placeID(3, 2)),
		},
		{
			name: "repeated remove of a logged id",
			recs: []wal.Record{
				{Type: wal.TypeAdd, First: n, Graphs: e[:2]},
				{Type: wal.TypeRemove, IDs: []int{n + 1}},
				{Type: wal.TypeRemove, IDs: []int{0, n + 1}},
			},
			want: fmt.Sprintf("wal record 3: remove on shard %d: id %d already removed", placeID(n+1, 2), n+1),
		},
		{
			name: "add at a checkpointed id",
			recs: []wal.Record{
				{Type: wal.TypeAdd, First: 3, Graphs: e[:1]},
			},
			want: fmt.Sprintf("wal record 1: add at id 3, the next id is %d", n),
		},
		{
			name: "add at a logged id",
			recs: []wal.Record{
				{Type: wal.TypeAdd, First: n, Graphs: e[:2]},
				{Type: wal.TypeAdd, First: n + 1, Graphs: e[2:3]},
			},
			want: fmt.Sprintf("wal record 2: add at id %d, the next id is %d", n+1, n+2),
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := fresh(t)
			log, err := wal.Open(filepath.Join(dir, "c", walDirName), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range row.recs {
				if row.recs[i].Seq, err = log.Append(row.recs[i]); err != nil {
					t.Fatalf("append record %d: %v", i+1, err)
				}
			}
			log.Close()
			if s, err := OpenStore(dir, StoreOptions{}); err == nil || !strings.Contains(err.Error(), row.want) {
				if s != nil {
					s.Close()
				}
				t.Fatalf("OpenStore = %v, want a refusal containing %q", err, row.want)
			}

			s, err := OpenStore(fresh(t), StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			c, _ := s.Collection("c")
			rep, err := c.Replica()
			if err != nil {
				t.Fatal(err)
			}
			before, applied, acked := c.Stats(), rep.AppliedSeq(), rep.AckSeq()
			if err := rep.Apply(ctx, row.recs); err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("follower = %v, want a refusal containing %q", err, row.want)
			}
			if got := rep.AppliedSeq(); got != applied {
				t.Fatalf("a refused batch moved the applied position from %d to %d", applied, got)
			}
			if after := c.Stats(); after.NextID != before.NextID || after.Live != before.Live ||
				!reflect.DeepEqual(after.Generations, before.Generations) {
				t.Fatalf("a refused batch published: NextID %d→%d, live %d→%d, generations %v→%v",
					before.NextID, after.NextID, before.Live, after.Live, before.Generations, after.Generations)
			}
			if got := rep.AckSeq(); got != acked {
				t.Fatalf("a refused batch was mirrored: the log's tail moved from %d to %d", acked, got)
			}
			if err := rep.Apply(ctx, row.recs); err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("a refused batch must be refused again, not poison the applier: Apply = %v", err)
			}
		})
	}
}

// v5Answers are the answers of the store in testdata/v5store, as the
// release that wrote it gave them: per query, the mapped top-8, the
// verified top-6 (factor 2) and the exact top-5, as (id, distance). That
// store is two v5 shards under a manifest holding their id tables
// (clustered by the split, with tombstones), and a log tail of three adds
// and three removes past the checkpoint.
var v5Answers = [][][]Result{
	{
		{{40, 0.2773500981126146}, {47, 0.2773500981126146}, {22, 0.3922322702763681}, {25, 0.3922322702763681}, {26, 0.3922322702763681}, {32, 0.3922322702763681}, {42, 0.3922322702763681}, {43, 0.3922322702763681}},
		{{32, 0.7272727272727273}, {0, 0.8181818181818181}, {14, 0.8181818181818181}, {15, 0.8181818181818181}, {26, 0.8181818181818181}, {45, 0.8181818181818181}},
		{{32, 0.7272727272727273}, {38, 0.7272727272727273}, {0, 0.8181818181818181}, {14, 0.8181818181818181}, {15, 0.8181818181818181}},
	},
	{
		{{10, 0.4803844614152614}, {18, 0.4803844614152614}, {28, 0.4803844614152614}, {0, 0.5547001962252291}, {7, 0.5547001962252291}, {13, 0.5547001962252291}, {22, 0.5547001962252291}, {25, 0.5547001962252291}},
		{{37, 0.7}, {29, 0.7272727272727273}, {28, 0.75}, {25, 0.8181818181818181}, {0, 0.875}, {10, 0.875}},
		{{37, 0.7}, {29, 0.7272727272727273}, {28, 0.75}, {16, 0.8181818181818181}, {25, 0.8181818181818181}},
	},
	{
		{{9, 0.2773500981126146}, {25, 0.2773500981126146}, {26, 0.2773500981126146}, {30, 0.2773500981126146}, {35, 0.2773500981126146}, {42, 0.2773500981126146}, {43, 0.2773500981126146}, {4, 0.3922322702763681}},
		{{0, 0.75}, {30, 0.75}, {35, 0.75}, {48, 0.75}, {43, 0.8}, {9, 0.875}},
		{{0, 0.75}, {30, 0.75}, {35, 0.75}, {36, 0.75}, {48, 0.75}},
	},
	{
		{{0, 0.4803844614152614}, {6, 0.4803844614152614}, {7, 0.4803844614152614}, {9, 0.4803844614152614}, {13, 0.4803844614152614}, {20, 0.4803844614152614}, {22, 0.4803844614152614}, {23, 0.4803844614152614}},
		{{0, 0.75}, {30, 0.75}, {35, 0.75}, {36, 0.75}, {48, 0.75}, {7, 0.8181818181818181}},
		{{0, 0.75}, {30, 0.75}, {35, 0.75}, {36, 0.75}, {48, 0.75}},
	},
	{
		{{40, 0.2773500981126146}, {47, 0.2773500981126146}, {25, 0.3922322702763681}, {26, 0.3922322702763681}, {37, 0.3922322702763681}, {42, 0.3922322702763681}, {43, 0.3922322702763681}, {4, 0.4803844614152614}},
		{{10, 0.75}, {39, 0.75}, {40, 0.75}, {47, 0.75}, {18, 0.7777777777777778}, {6, 0.8}},
		{{10, 0.75}, {23, 0.75}, {39, 0.75}, {40, 0.75}, {47, 0.75}},
	},
}

// TestOpenStoreOpensV5Store: a store an earlier release wrote — v5 shard
// files, their id tables in store.json, a log tail — opens and answers
// bit-identically to that release on every engine. Its next checkpoint
// writes v6 shard files and a manifest without id tables, and the store
// reopened from those answers the same. A manifest without tables over
// v5 files, or with tables over v6 files, is refused naming the shard.
func TestOpenStoreOpensV5Store(t *testing.T) {
	dir := copyDataDir(t, filepath.Join("testdata", "v5store"))
	extra := dataset.Synthetic(dataset.SynthConfig{N: 12, AvgEdges: 9, Labels: 5, Seed: 21})
	queries := append(extra[4:5:5], dataset.Synthetic(dataset.SynthConfig{N: 4, AvgEdges: 8, Labels: 5, Seed: 99})...)
	check := func(s *Store, label string) {
		t.Helper()
		c, ok := s.Collection("c")
		if !ok {
			t.Fatalf("%s: no collection c", label)
		}
		if st := c.Stats(); st.NextID != 49 || st.Live != 44 {
			t.Fatalf("%s: next id %d, %d live; the release that wrote it had 49 and 44", label, st.NextID, st.Live)
		}
		for qi, q := range queries {
			for ei, opt := range []SearchOptions{{K: 8}, {K: 6, Engine: EngineVerified, VerifyFactor: 2}, {K: 5, Engine: EngineExact}} {
				res, err := c.Search(context.Background(), q, opt)
				if err != nil {
					t.Fatal(err)
				}
				if want := v5Answers[qi][ei]; !reflect.DeepEqual(res.Results, want) {
					t.Fatalf("%s: query %d, %s: %v, the release that wrote the store answered %v", label, qi, opt.Engine, res.Results, want)
				}
			}
		}
	}

	manPath := filepath.Join(dir, manifestName)
	v5Man, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	// withTables writes v5Man as the manifest with the id tables given.
	withTables := func(tables [][]int) {
		t.Helper()
		var man storeManifest
		if err := json.Unmarshal(v5Man, &man); err != nil {
			t.Fatal(err)
		}
		man.Collections[0].ShardGlobals = tables
		data, err := json.Marshal(man)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	refuses := func(want string) {
		t.Helper()
		if s, err := OpenStore(dir, StoreOptions{}); err == nil || !strings.Contains(err.Error(), want) {
			if s != nil {
				s.Close()
			}
			t.Fatalf("OpenStore = %v, want a refusal containing %q", err, want)
		}
	}
	var v5 storeManifest
	if err := json.Unmarshal(v5Man, &v5); err != nil {
		t.Fatal(err)
	}
	withTables(nil)
	refuses("shard 0: a v5 segment, and no id table for it in the manifest")
	if err := os.WriteFile(manPath, v5Man, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := s.Collection("c")
	if st := c.Stats().WAL; st.LastSeq-st.CheckpointSeq != 4 {
		t.Fatalf("replayed %d records, the fixture's tail holds 4", st.LastSeq-st.CheckpointSeq)
	}
	check(s, "v5 store")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	man, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(man, []byte("shard_globals")) {
		t.Fatalf("the checkpoint wrote id tables into the manifest:\n%s", man)
	}
	files, err := filepath.Glob(filepath.Join(dir, "c", "shard-*.gdx"))
	if err != nil || len(files) != 2 {
		t.Fatalf("shard files after the checkpoint: %v %v", files, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("GDIMIDX6")) {
			t.Fatalf("%s: the checkpoint wrote %q, want a v6 segment", f, data[:min(8, len(data))])
		}
	}
	if s, err = OpenStore(dir, StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	check(s, "after its checkpoint")
	s.Close()

	// The v5 manifest's tables over the checkpoint's v6 files.
	if v5Man, err = os.ReadFile(manPath); err != nil {
		t.Fatal(err)
	}
	withTables(v5.Collections[0].ShardGlobals)
	refuses("shard 0: the manifest holds an id table for a v6 segment")
}
