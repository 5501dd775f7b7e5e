package graphdim

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vecspace"
	"repro/internal/wal"
)

// frozenSnapshot is a deep copy of what one published snapshot shows a
// reader: its graph, tombstone and id columns and every block vector.
type frozenSnapshot struct {
	db      []*Graph
	dead    []uint64
	globals []int
	vecs    []*vecspace.BitVector
}

func freeze(s *snapshot) frozenSnapshot {
	return frozenSnapshot{slices.Clone(s.db), slices.Clone(s.dead), slices.Clone(s.globals), s.block.Unpack()}
}

// publishLog keeps every snapshot a chain of writes published, beside the
// deep copy taken when it was published.
type publishLog struct {
	kept   []*snapshot
	frozen []frozenSnapshot
	seen   map[*snapshot]bool
}

// check holds every kept snapshot to its copy, then keeps the current
// snapshot of each index in ixs.
func (l *publishLog) check(t *testing.T, step string, ixs ...*Index) {
	t.Helper()
	for i, s := range l.kept {
		now, was := freeze(s), l.frozen[i]
		if !slices.Equal(now.db, was.db) || !slices.Equal(now.dead, was.dead) ||
			!slices.Equal(now.globals, was.globals) || !reflect.DeepEqual(now.vecs, was.vecs) {
			t.Fatalf("after %s: snapshot %d of %d no longer shows what it published", step, i, len(l.kept))
		}
	}
	if l.seen == nil {
		l.seen = make(map[*snapshot]bool)
	}
	for _, ix := range ixs {
		if s := ix.snap.Load(); !l.seen[s] {
			l.seen[s] = true
			l.kept = append(l.kept, s)
			l.frozen = append(l.frozen, freeze(s))
		}
	}
}

// pickGraphs draws one to three graphs from pool.
func pickGraphs(rng *rand.Rand, pool []*Graph) []*Graph {
	gs := make([]*Graph, 1+rng.Intn(3))
	for i := range gs {
		gs[i] = pool[rng.Intn(len(pool))]
	}
	return gs
}

// randomLive returns a random live global id of c.
func randomLive(rng *rand.Rand, c *Collection) (int, bool) {
	var live []int
	for _, sh := range c.shards {
		s := sh.snap.Load()
		for local, g := range s.globals {
			if !s.isDead(local) {
				live = append(live, g)
			}
		}
	}
	if len(live) == 0 {
		return 0, false
	}
	return live[rng.Intn(len(live))], true
}

// TestPublishedSnapshotsNeverChange: db, dead and globals grow into the
// spare capacity of the previous snapshot's arrays, which is safe only if
// no published snapshot ever sees a later write. A random chain of Add
// and Remove runs on an Index, and of Add, Remove and Compact on a 3-shard
// collection held in memory, reopened from its mapped segments and
// through the log applier crash replay and followers drive; after every
// publish, every snapshot the
// chain has published must still equal the deep copy taken when it was
// published.
// The arrays a caller hands over — the db given to Build, the id table
// given to a segment open — are never written either.
func TestPublishedSnapshotsNeverChange(t *testing.T) {
	rng := rand.New(rand.NewSource(equivSeed(t)))
	ctx := context.Background()
	all := dataset.Synthetic(dataset.SynthConfig{N: 40, AvgEdges: 9, Labels: 5, Seed: 3})
	const k = 30
	spare := slices.Clone(all[k:])
	ix, err := Build(all[:k], Options{Dimensions: 16, Tau: 0.2, MaxPatternEdges: 3, MCSBudget: 300, Iterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	pool := dataset.Synthetic(dataset.SynthConfig{N: 24, AvgEdges: 9, Labels: 5, Seed: 4})
	const steps = 30

	t.Run("index", func(t *testing.T) {
		var l publishLog
		l.check(t, "Build", ix)
		// An Index has no Compact: a reclaim renumbers ids, which only a
		// shard's id table hides.
		for step := 0; step < steps; step++ {
			op := "add"
			if rng.Intn(3) == 0 {
				op = "remove"
				s := ix.snap.Load()
				if id := rng.Intn(len(s.db)); !s.isDead(id) {
					if err := ix.removeGlobal([]int{id}); err != nil {
						t.Fatal(err)
					}
				}
			} else if _, err := ix.Add(pickGraphs(rng, pool)...); err != nil {
				t.Fatal(err)
			}
			l.check(t, fmt.Sprintf("step %d (%s)", step, op), ix)
		}
		if !slices.Equal(all[k:], spare) {
			t.Fatal("Index.Add wrote into the spare capacity of the db given to Build")
		}
	})

	// chain drives c through random Add, Remove and Compact calls.
	chain := func(t *testing.T, c *Collection) {
		var l publishLog
		l.check(t, "open", c.shards...)
		for step := 0; step < steps; step++ {
			op := "add"
			switch r := rng.Intn(10); {
			case r < 5:
				if _, err := c.Add(ctx, pickGraphs(rng, pool)...); err != nil {
					t.Fatal(err)
				}
			case r < 8:
				op = "remove"
				if g, ok := randomLive(rng, c); ok {
					if err := c.Remove(g); err != nil {
						t.Fatal(err)
					}
				}
			default:
				op = "compact"
				if _, err := c.Compact(ctx); err != nil {
					t.Fatal(err)
				}
			}
			l.check(t, fmt.Sprintf("step %d (%s)", step, op), c.shards...)
		}
	}
	// mapped creates a durable 3-shard collection, checkpoints it and
	// reopens it served from its mapped segments.
	mapped := func(t *testing.T) *Collection {
		dir := t.TempDir()
		opt := StoreOptions{WAL: WALOptions{noSync: true}}
		s, err := CreateStore(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.CreateFromIndex("c", ix, CollectionOptions{Shards: 3}); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if s, err = OpenStore(dir, opt); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		c, _ := s.Collection("c")
		return c
	}

	t.Run("collection/heap", func(t *testing.T) {
		c, err := newTestStore(t).CreateFromIndex("c", ix, CollectionOptions{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		chain(t, c)
	})
	t.Run("collection/map", func(t *testing.T) {
		chain(t, mapped(t))
	})
	t.Run("collection/replay", func(t *testing.T) {
		c := mapped(t)
		var l publishLog
		l.check(t, "open", c.shards...)
		next := int(c.nextID.Load())
		for seq := uint64(1); seq <= steps; seq++ {
			rec := wal.Record{Seq: seq, Type: wal.TypeAdd, First: next}
			switch r := rng.Intn(10); {
			case r < 6:
				rec.Graphs = pickGraphs(rng, pool)
				next += len(rec.Graphs)
			case r < 9:
				g, ok := randomLive(rng, c)
				if !ok {
					continue
				}
				rec.Type, rec.First, rec.IDs = wal.TypeRemove, 0, []int{g}
			default:
				if _, err := c.Compact(ctx); err != nil {
					t.Fatal(err)
				}
				l.check(t, fmt.Sprintf("record %d (compact)", seq), c.shards...)
				continue
			}
			if err := c.apply(ctx, rec); err != nil {
				t.Fatalf("record %d: %v", seq, err)
			}
			l.check(t, fmt.Sprintf("record %d (type %d)", seq, rec.Type), c.shards...)
		}
	})

	t.Run("segment id table", func(t *testing.T) {
		c, err := newTestStore(t).CreateFromIndex("c", ix, CollectionOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		sh := c.shards[0]
		dir := t.TempDir()
		name, err := sh.writeShardImage(dir, 0, sh.snap.Load())
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		ids := sh.snap.Load().globals
		gs := pool[:4]
		vecs := c.mapBatch(gs)()
		last := ids[len(ids)-1]
		// The table handed to the open has spare capacity marked -1.
		full := append(slices.Clone(ids), -1, -1, -1, -1)
		opened, err := openSegmentIndex(path, full[:len(ids)])
		if err != nil {
			t.Fatal(err)
		}
		opened.publish(shardBatch{graphs: gs, ids: []int{last + 1, last + 2, last + 3, last + 4}}, vecs)
		if spare := full[len(ids):]; !slices.Equal(spare, []int{-1, -1, -1, -1}) {
			t.Fatalf("an add wrote %v into the spare capacity of the id table given to the open", spare)
		}
	})
}
