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
// appended — with wal.Open/Append, behind the store's back — to the log of
// a freshly created two-shard collection of n graphs: OpenStore (crash
// replay) must refuse it with the stated message or recover exactly the
// stated ids and NextID, and a ReplicaApplier fed the same records must
// refuse alike or end in the very same shard state. The one row where the
// two differ on purpose is the unpaired amendment: log corruption on
// replay, a reconcile on a follower (the add it amends was crash-replayed
// in full in the follower's previous life).
func TestApplierRefusalsAndRecoveries(t *testing.T) {
	rng := rand.New(rand.NewSource(equivSeed(t)))
	idx, db := equivBuild(t, rng, 24)
	n := len(db)
	e := dataset.Synthetic(dataset.SynthConfig{N: 4, AvgEdges: 9, Labels: 5, Seed: 5})
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
	// assertState holds c to: ids below n live unless removed, ids from n
	// live exactly when listed, everything else below next never landed.
	assertState := func(t *testing.T, who string, c *Collection, liveAdded, removed []int, next int) {
		t.Helper()
		if got := c.Stats().NextID; got != next {
			t.Fatalf("%s: NextID = %d, want %d", who, got, next)
		}
		want := make(map[int]string) // "live", "removed"; absent otherwise
		for id := 0; id < n; id++ {
			want[id] = "live"
		}
		for _, id := range liveAdded {
			want[id] = "live"
		}
		for _, id := range removed {
			want[id] = "removed"
		}
		for id := 0; id < next; id++ {
			got := ""
			if _, ok := liveGraph(c, id); ok {
				got = "live"
			} else if _, ok := c.Graph(id); ok {
				got = "removed"
			}
			if got != want[id] {
				t.Fatalf("%s: id %d is %q, want %q", who, id, got, want[id])
			}
		}
	}

	rows := []struct {
		name string
		recs []wal.Record
		// refuse is the message crash replay must refuse the log with ("" =
		// it recovers); followerRefuse likewise for the replica applier.
		refuse, followerRefuse string
		// What a caller that does not refuse must end with.
		liveAdded, removed []int
		next               int
	}{
		{
			name: "unpaired amendment",
			recs: []wal.Record{
				{Type: wal.TypeApplied, First: n - 4, Total: 4, IDs: []int{n - 4, n - 2}},
			},
			refuse:  "wal record 1 amends no matching add batch",
			removed: []int{n - 3, n - 1}, // the follower buries the complement
			next:    n,
		},
		{
			name: "amendment names another first id",
			recs: []wal.Record{
				{Type: wal.TypeAdd, First: n, Graphs: e[:3]},
				{Type: wal.TypeApplied, First: n + 1, Total: 3, IDs: []int{n + 1}},
			},
			refuse:         fmt.Sprintf("wal record 2 amends batch at %d/3, pending is %d/3", n+1, n),
			followerRefuse: fmt.Sprintf("wal record 2 amends batch at %d/3, pending is %d/3", n+1, n),
		},
		{
			name: "amendment names another total",
			recs: []wal.Record{
				{Type: wal.TypeAdd, First: n, Graphs: e[:3]},
				{Type: wal.TypeApplied, First: n, Total: 2, IDs: []int{n}},
			},
			refuse:         fmt.Sprintf("wal record 2 amends batch at %d/2, pending is %d/3", n, n),
			followerRefuse: fmt.Sprintf("wal record 2 amends batch at %d/2, pending is %d/3", n, n),
		},
		{
			name: "voided batch burns its ids and lands nothing",
			recs: []wal.Record{
				{Type: wal.TypeAdd, First: n, Graphs: e[:3]},
				{Type: wal.TypeApplied, First: n, Total: 3},
			},
			next: n + 3,
		},
		{
			name: "partial batch lands exactly the applied ids",
			recs: []wal.Record{
				{Type: wal.TypeAdd, First: n, Graphs: e[:4]},
				{Type: wal.TypeApplied, First: n, Total: 4, IDs: []int{n, n + 2}},
			},
			liveAdded: []int{n, n + 2},
			next:      n + 4,
		},
		{
			name: "unamended adds land in full, before a remove and at the tail",
			recs: []wal.Record{
				{Type: wal.TypeAdd, First: n, Graphs: e[:2]},
				{Type: wal.TypeRemove, IDs: []int{0, n + 1}},
				{Type: wal.TypeAdd, First: n + 2, Graphs: e[2:4]},
			},
			liveAdded: []int{n, n + 2, n + 3},
			removed:   []int{0, n + 1},
			next:      n + 4,
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
			var primary *Collection
			ps, err := OpenStore(dir, StoreOptions{})
			switch {
			case row.refuse != "":
				if err == nil || !strings.Contains(err.Error(), row.refuse) {
					t.Fatalf("OpenStore = %v, want a refusal containing %q", err, row.refuse)
				}
			case err != nil:
				t.Fatalf("OpenStore: %v", err)
			default:
				defer ps.Close()
				primary, _ = ps.Collection("c")
				assertState(t, "crash replay", primary, row.liveAdded, row.removed, row.next)
				if got, want := primary.AppliedSeq(), row.recs[len(row.recs)-1].Seq; got != want {
					t.Fatalf("crash replay settled through %d, the log ends at %d", got, want)
				}
			}

			// Follower: the same records arrive as a stream.
			fs, err := OpenStore(fresh(t), StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			fc, _ := fs.Collection("c")
			rep, err := fc.Replica()
			if err != nil {
				t.Fatal(err)
			}
			err = rep.Apply(ctx, row.recs)
			if err == nil {
				err = rep.Settle(ctx)
			}
			if row.followerRefuse != "" {
				if err == nil || !strings.Contains(err.Error(), row.followerRefuse) {
					t.Fatalf("follower = %v, want a refusal containing %q", err, row.followerRefuse)
				}
				if err := rep.Settle(ctx); err == nil || !strings.Contains(err.Error(), "needs restart") {
					t.Fatalf("a refused record must poison the applier, Settle = %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("follower: %v", err)
			}
			assertState(t, "follower", fc, row.liveAdded, row.removed, row.next)
			if got, want := rep.AppliedSeq(), row.recs[len(row.recs)-1].Seq; got != want {
				t.Fatalf("follower settled through %d, the stream ended at %d", got, want)
			}
			if primary == nil {
				return
			}
			for i := range primary.shards {
				p, f := primary.shards[i].snap.Load(), fc.shards[i].snap.Load()
				if !reflect.DeepEqual(p.globals, f.globals) || !reflect.DeepEqual(p.dead, f.dead) {
					t.Fatalf("shard %d: follower holds ids %v (dead %v), crash replay holds %v (dead %v)",
						i, f.globals, f.dead, p.globals, p.dead)
				}
			}
		})
	}

	// Two refusals no log can carry — the wal codec will neither write nor
	// decode such records — so the applier itself is handed them.
	t.Run("records the codec refuses", func(t *testing.T) {
		s, err := OpenStore(fresh(t), StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		c, _ := s.Collection("c")
		outside := wal.Record{Seq: 2, Type: wal.TypeApplied, First: n, Total: 3, IDs: []int{n + 5}}
		unknown := wal.Record{Seq: 3, Type: 99}
		for _, rec := range []wal.Record{outside, unknown} {
			if _, err := c.wal.Append(rec); err == nil {
				t.Fatalf("wal.Append wrote %+v", rec)
			}
		}
		a := applier{c: c}
		if err := a.apply(ctx, wal.Record{Seq: 1, Type: wal.TypeAdd, First: n, Graphs: e[:3]}); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("graphdim: wal applied id %d outside batch [%d,%d)", n+5, n, n+3)
		if err := a.apply(ctx, outside); err == nil || err.Error() != want {
			t.Fatalf("apply(id outside its batch) = %v, want %q", err, want)
		}
		want = "graphdim: wal record 3 has unknown type 99"
		if err := a.apply(ctx, unknown); err == nil || err.Error() != want {
			t.Fatalf("apply(unknown type) = %v, want %q", err, want)
		}
		assertState(t, "after the refusals", c, nil, nil, n)
	})
}
