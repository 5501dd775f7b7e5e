package graphdim

import (
	"context"
	"fmt"
	"math/rand"
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
