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

// TestApplierRefusalsAndRecoveries drives the one log applier through its
// two callers with hand-written logs. Each row is a record sequence
// appended — with wal.Open/Append, behind the store's back — to the log
// of a freshly created two-shard collection of n graphs. Crash replay
// (OpenStore) and a ReplicaApplier fed the same records agree on every
// row: both refuse it with the stated message, or both end in the same
// shard state, with the rankings and NextID of the primary that wrote
// the log. A follower that mirrors part of the log, restarts,
// checkpoints, mirrors the rest and restarts again ends there too,
// wherever the log is cut.
func TestApplierRefusalsAndRecoveries(t *testing.T) {
	rng := rand.New(rand.NewSource(equivSeed(t)))
	idx, db := equivBuild(t, rng, 24)
	n := len(db)
	e := dataset.Synthetic(dataset.SynthConfig{N: 4, AvgEdges: 9, Labels: 5, Seed: 5})
	queries := append([]*Graph{db[0], db[n/2], db[n-1]}, e...)
	ctx := context.Background()

	// fresh creates a durable store holding the collection and closes it;
	// its log is empty and its checkpoint covers sequence 0.
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
	open := func(t *testing.T, dir string) (*Store, *Collection, *ReplicaApplier) {
		t.Helper()
		s, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatalf("OpenStore: %v", err)
		}
		c, _ := s.Collection("c")
		rep, err := c.Replica()
		if err != nil {
			t.Fatal(err)
		}
		return s, c, rep
	}
	// primary rebuilds what the primary that wrote recs held: the graphs
	// of the ids in landed, the removals, its NextID — and nothing at all
	// for the ids it never landed.
	primary := func(t *testing.T, recs []wal.Record, landed, removed []int, next int) *Collection {
		t.Helper()
		c, err := newTestStore(t).CreateFromIndex("c", idx, CollectionOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		graphs := make(map[int]*Graph)
		for _, rec := range recs {
			for i, g := range rec.Graphs {
				graphs[rec.First+i] = g
			}
		}
		for _, id := range landed {
			c.nextID.Store(int64(id))
			if _, err := c.Add(ctx, graphs[id]); err != nil {
				t.Fatal(err)
			}
		}
		c.nextID.Store(int64(next))
		if err := c.Remove(removed...); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// assertMatches holds c to the primary and to the end of the log.
	assertMatches := func(t *testing.T, who string, c, want *Collection, recs []wal.Record) {
		t.Helper()
		assertSameContent(t, who, c, want)
		assertSameSearch(t, who, c, want, queries)
		if got, last := c.AppliedSeq(), recs[len(recs)-1].Seq; got != last {
			t.Fatalf("%s: applied through %d, the log ends at %d", who, got, last)
		}
	}

	rows := []struct {
		name string
		recs []wal.Record
		// refuse is the message both callers refuse the log with ("" =
		// they recover).
		refuse string
		// The primary that wrote the log: the logged ids whose graphs
		// landed on it, the ids it removed, and its NextID.
		landed, removed []int
		next            int
	}{
		{
			name: "remove of an id never assigned",
			recs: []wal.Record{
				{Type: wal.TypeAdd, First: n, Graphs: e[:2]},
				{Type: wal.TypeRemove, IDs: []int{n + 5}},
			},
			refuse: fmt.Sprintf("id %d not in store", n+5),
		},
		{
			name: "unamended adds land in full, before a remove and at the tail",
			recs: []wal.Record{
				{Type: wal.TypeAdd, First: n, Graphs: e[:2]},
				{Type: wal.TypeRemove, IDs: []int{0, n + 1}},
				{Type: wal.TypeAdd, First: n + 2, Graphs: e[2:4]},
			},
			landed:  []int{n, n + 1, n + 2, n + 3},
			removed: []int{0, n + 1},
			next:    n + 4,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// Crash replay: the records are in the log when the store opens.
			dir := fresh(t)
			log, err := wal.Open(filepath.Join(dir, "c", walDirName), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range row.recs {
				seq, err := log.Append(row.recs[i])
				if err != nil {
					t.Fatalf("append record %d: %v", i+1, err)
				}
				row.recs[i].Seq = seq // the sequence a primary would stream it under
			}
			log.Close()
			ps, err := OpenStore(dir, StoreOptions{})
			if row.refuse != "" {
				if err == nil || !strings.Contains(err.Error(), row.refuse) {
					t.Fatalf("OpenStore = %v, want a refusal containing %q", err, row.refuse)
				}
			} else if err != nil {
				t.Fatalf("OpenStore: %v", err)
			} else {
				defer ps.Close()
			}

			// Follower: the same records arrive as a stream.
			fs, fc, rep := open(t, fresh(t))
			defer fs.Close()
			acked := rep.AckSeq()
			err = rep.Apply(ctx, row.recs)
			if row.refuse != "" {
				if err == nil || !strings.Contains(err.Error(), row.refuse) {
					t.Fatalf("follower = %v, want a refusal containing %q", err, row.refuse)
				}
				// The refused batch never reached the follower's log, so
				// its valid prefix still applies.
				if got := rep.AckSeq(); got != acked {
					t.Fatalf("a refused batch moved the mirrored tail from %d to %d", acked, got)
				}
				if err := rep.Apply(ctx, row.recs[:1]); err != nil {
					t.Fatalf("after a refusal the applier must take a valid batch, Apply = %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("follower: %v", err)
			}
			want := primary(t, row.recs, row.landed, row.removed, row.next)
			pc, _ := ps.Collection("c")
			assertMatches(t, "crash replay", pc, want, row.recs)
			assertMatches(t, "follower", fc, want, row.recs)
			for i := range pc.shards {
				p, f := pc.shards[i].snap.Load(), fc.shards[i].snap.Load()
				if !reflect.DeepEqual(p.globals, f.globals) || !reflect.DeepEqual(p.dead, f.dead) {
					t.Fatalf("shard %d: follower holds ids %v (dead %v), crash replay holds %v (dead %v)",
						i, f.globals, f.dead, p.globals, p.dead)
				}
			}

			// A follower that dies between two records, replays the
			// mirrored prefix on restart and checkpoints it, then mirrors
			// the rest and restarts again.
			for k := 1; k < len(row.recs); k++ {
				t.Run(fmt.Sprintf("follower checkpoints after record %d", k), func(t *testing.T) {
					dir := fresh(t)
					s, _, rep := open(t, dir)
					if err := rep.Apply(ctx, row.recs[:k]); err != nil {
						t.Fatal(err)
					}
					s.Close()
					s, _, rep = open(t, dir)
					if err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if err := rep.Apply(ctx, row.recs[k:]); err != nil {
						t.Fatal(err)
					}
					s.Close()
					s, c, _ := open(t, dir)
					defer s.Close()
					assertMatches(t, "restarted follower", c, want, row.recs)
				})
			}
		})
	}

	// A refusal no log can carry — the wal codec will neither write nor
	// decode such a record — so the applier itself is handed it.
	t.Run("records the codec refuses", func(t *testing.T) {
		s, err := OpenStore(fresh(t), StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		c, _ := s.Collection("c")
		unknown := wal.Record{Seq: 3, Type: 99}
		if _, err := c.wal.Append(unknown); err == nil {
			t.Fatalf("wal.Append wrote %+v", unknown)
		}
		want := "graphdim: wal record 3 has unknown type 99"
		if err := c.apply(ctx, unknown); err == nil || err.Error() != want {
			t.Fatalf("apply(unknown type) = %v, want %q", err, want)
		}
		assertSameContent(t, "after the refusal", c, primary(t, nil, nil, nil, n))
	})
}
