package graphdim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
)

// PR 6's durability contract, exercised from the store layer: many
// writers racing through the group-committed WAL with fsyncs failing at
// random, then a kill and a torn tail — recovery must surface exactly
// the acknowledged subset, nothing more and nothing less.

// TestCrashRecoveryConcurrentRandomized races G writers against a log
// whose fsync fails with ~30% probability, kills the store, tears the
// newest segment, and checks the recovered collection graph-by-graph
// against what the writers saw acknowledged. Replay a failure with
// GRAPHDIM_EQUIV_SEED=<seed>.
func TestCrashRecoveryConcurrentRandomized(t *testing.T) {
	seed := equivSeed(t)
	rng := rand.New(rand.NewSource(seed))
	idx, db := equivBuild(t, rng, 30)
	ctx := context.Background()

	const rounds = 2
	for round := 0; round < rounds; round++ {
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			dir := t.TempDir()
			// failSync runs under the log's commit lock but from whichever
			// goroutine is the group leader, so its rng needs its own lock.
			errInjected := errors.New("injected fsync failure")
			var failMu sync.Mutex
			frng := rand.New(rand.NewSource(rng.Int63()))
			s, err := CreateStore(dir, StoreOptions{WAL: WALOptions{
				failSync: func() error {
					failMu.Lock()
					defer failMu.Unlock()
					if frng.Float64() < 0.3 {
						return errInjected
					}
					return nil
				},
			}})
			if err != nil {
				t.Fatal(err)
			}
			c, err := s.CreateFromIndex("cc", idx, CollectionOptions{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}

			// Pre-draw every writer's payloads and decisions so the run is
			// replayable from the logged seed even though the interleaving
			// is not.
			const writers, opsPerWriter = 6, 8
			type plan struct {
				batches [][]*Graph
				remove  []bool // after a successful add, drop its first id?
			}
			plans := make([]plan, writers)
			for w := range plans {
				for op := 0; op < opsPerWriter; op++ {
					n := 1 + rng.Intn(3)
					plans[w].batches = append(plans[w].batches,
						dataset.Synthetic(dataset.SynthConfig{N: n, AvgEdges: 9, Labels: 5, Seed: rng.Int63()}))
					plans[w].remove = append(plans[w].remove, rng.Float64() < 0.25)
				}
			}

			// acked maps id -> canonical graph text for every write the
			// store acknowledged; removed holds acked ids later dropped.
			var (
				mu      sync.Mutex
				acked   = map[int]string{}
				removed = map[int]bool{}
			)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(p plan) {
					defer wg.Done()
					for op, batch := range p.batches {
						ids, err := c.Add(ctx, batch...)
						if err != nil {
							continue // not acked: must not survive
						}
						mu.Lock()
						for i, id := range ids {
							acked[id] = batch[i].String()
						}
						mu.Unlock()
						if p.remove[op] {
							if err := c.Remove(ids[0]); err == nil {
								mu.Lock()
								removed[ids[0]] = true
								mu.Unlock()
							}
						}
					}
				}(plans[w])
			}
			wg.Wait()

			// Kill, tear the tail, recover.
			s.Close()
			tearWAL(t, dir, "cc")
			re, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatalf("reopen after kill: %v", err)
			}
			defer re.Close()
			rc, ok := re.Collection("cc")
			if !ok {
				t.Fatal("collection lost")
			}

			// Exhaustive membership sweep. Three disjoint classes: live
			// (seed graphs plus acked-and-kept writes, identical bytes),
			// tombstoned (acked writes later acked-removed — Graph still
			// resolves them, flagged removed), and absent (everything that
			// never got an ack, failed fsync included).
			wantLive := map[int]string{}
			for id, g := range db {
				wantLive[id] = g.String()
			}
			for id, text := range acked {
				if !removed[id] {
					wantLive[id] = text
				}
			}
			st := rc.Stats()
			if st.Live != len(wantLive) {
				t.Fatalf("recovered %d live graphs, want %d (acked %d, removed %d)", st.Live, len(wantLive), len(acked), len(removed))
			}
			for id := 0; id < st.NextID; id++ {
				sst, local := rc.resolve(id)
				switch {
				case removed[id]:
					if local < 0 || !sst.dead[local] {
						t.Fatalf("id %d: acked remove lost across recovery (local=%d)", id, local)
					}
				case wantLive[id] != "":
					if local < 0 || sst.dead[local] {
						t.Fatalf("id %d: acked write lost across recovery (local=%d)", id, local)
					}
					if g, ok := rc.Graph(id); !ok || g.String() != wantLive[id] {
						t.Fatalf("id %d recovered with different content:\n%s\nvs acked\n%s", id, g, wantLive[id])
					}
				default:
					if local >= 0 {
						t.Fatalf("id %d: unacked write resurrected by replay", id)
					}
				}
			}
			// The recovered store still takes writes.
			if _, err := rc.Add(ctx, plans[0].batches[0]...); err != nil {
				t.Fatalf("Add after recovery: %v", err)
			}
		})
	}
}

// TestTornIngestBatchReplaysCommittedPrefix is the store-level half of
// the ingest torn-batch story: batch 1 is acknowledged, batch 2's
// group commit dies at fsync (so it was never acknowledged), the
// process is killed and the log tail torn. Recovery must replay exactly
// the committed prefix — batch 1 — and keep the id sequence consistent
// for the retry.
func TestTornIngestBatchReplaysCommittedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	idx, _ := equivBuild(t, rng, 30)
	ctx := context.Background()
	dir := t.TempDir()

	errBoom := errors.New("disk pulled")
	var failNow atomic.Bool
	s, err := CreateStore(dir, StoreOptions{WAL: WALOptions{
		failSync: func() error {
			if failNow.Load() {
				return errBoom
			}
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.CreateFromIndex("ingest", idx, CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	first := int(c.nextID.Load())

	batch1 := dataset.Synthetic(dataset.SynthConfig{N: 3, AvgEdges: 9, Labels: 5, Seed: 21})
	ids1, err := c.Add(ctx, batch1...)
	if err != nil {
		t.Fatal(err)
	}

	batch2 := dataset.Synthetic(dataset.SynthConfig{N: 3, AvgEdges: 9, Labels: 5, Seed: 22})
	failNow.Store(true)
	if _, err := c.Add(ctx, batch2...); !errors.Is(err, errBoom) {
		t.Fatalf("Add with dead fsync returned %v; want the injected failure", err)
	}
	failNow.Store(false)
	// The failed batch committed nothing, so its ids are not burned.
	if got := int(c.nextID.Load()); got != first+len(batch1) {
		t.Fatalf("nextID %d after failed batch, want %d", got, first+len(batch1))
	}

	// Kill with a torn tail on top: the failed batch's truncated bytes
	// plus garbage must both be ignored by replay.
	s.Close()
	tearWAL(t, dir, "ingest")

	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer re.Close()
	rc, ok := re.Collection("ingest")
	if !ok {
		t.Fatal("collection lost")
	}
	for _, id := range ids1 {
		g, ok := rc.Graph(id)
		if !ok {
			t.Fatalf("acked id %d lost across crash", id)
		}
		if g.String() != batch1[id-first].String() {
			t.Fatalf("id %d recovered with different content", id)
		}
	}
	st := rc.Stats()
	if st.NextID != first+len(batch1) {
		t.Fatalf("recovered NextID %d, want %d (unacked batch must not burn ids)", st.NextID, first+len(batch1))
	}
	// The retry lands on the same ids the torn batch would have used.
	ids2, err := rc.Add(ctx, batch2...)
	if err != nil {
		t.Fatalf("retry after recovery: %v", err)
	}
	if ids2[0] != first+len(batch1) {
		t.Fatalf("retry got id %d, want %d", ids2[0], first+len(batch1))
	}
}
