package graphdim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
)

// The durability suite: WAL-backed stores must recover exactly the
// committed writes after a kill at any instant — no checkpoint needed,
// torn tails dropped, partial applies honoured.

// tearWAL appends garbage to the newest segment of the collection's log,
// simulating a record that was mid-write when the process died.
func tearWAL(t *testing.T, dir, coll string) {
	t.Helper()
	wdir := filepath.Join(dir, coll, walDirName)
	entries, err := os.ReadDir(wdir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, e := range entries {
		if e.Name() > newest {
			newest = e.Name()
		}
	}
	if newest == "" {
		t.Fatalf("no wal segments under %s", wdir)
	}
	f, err := os.OpenFile(filepath.Join(wdir, newest), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x2a, 0x01, 0xc4, 0x00, 0x9d, 0x11}); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// assertSameSearch requires bit-identical rankings from both collections
// for every query: same ids, bitwise-equal distances.
func assertSameSearch(t *testing.T, label string, got, want *Collection, queries []*Graph) {
	t.Helper()
	ctx := context.Background()
	for qi, q := range queries {
		g, err := got.Search(ctx, q, SearchOptions{K: 10})
		if err != nil {
			t.Fatalf("%s: query %d on recovered store: %v", label, qi, err)
		}
		w, err := want.Search(ctx, q, SearchOptions{K: 10})
		if err != nil {
			t.Fatalf("%s: query %d on replica: %v", label, qi, err)
		}
		if !reflect.DeepEqual(g.Results, w.Results) {
			t.Fatalf("%s: query %d diverges after recovery:\nrecovered: %v\nreplica:   %v", label, qi, g.Results, w.Results)
		}
	}
}

// assertSameContent requires identical membership: same NextID, same
// live count, and id-by-id agreement on which ids are live and what
// graphs they hold.
func assertSameContent(t *testing.T, label string, got, want *Collection) {
	t.Helper()
	gs, ws := got.Stats(), want.Stats()
	if gs.NextID != ws.NextID {
		t.Fatalf("%s: NextID %d after recovery, replica has %d", label, gs.NextID, ws.NextID)
	}
	if gs.Live != ws.Live {
		t.Fatalf("%s: %d live graphs after recovery, replica has %d", label, gs.Live, ws.Live)
	}
	for id := 0; id < ws.NextID; id++ {
		// Live ids must agree exactly. A tombstone may or may not still
		// resolve: whether its slot was reclaimed is local history (a
		// Compact the other side never ran, or one a crash reverted).
		gg, gok := liveGraph(got, id)
		wg, wok := liveGraph(want, id)
		if gok != wok {
			t.Fatalf("%s: id %d live=%v after recovery, replica live=%v", label, id, gok, wok)
		}
		if gok && gg.String() != wg.String() {
			t.Fatalf("%s: id %d differs after recovery:\n%s\nvs\n%s", label, id, gg, wg)
		}
	}
}

// liveGraph resolves id only if it is live (assigned, not tombstoned, not
// reclaimed).
func liveGraph(c *Collection, id int) (*Graph, bool) {
	s, local := c.resolve(id)
	if local < 0 || s.dead[local] {
		return nil, false
	}
	g, err := s.graphAt(local)
	return g, err == nil
}

func TestDurableAddSurvivesRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	idx, db := equivBuild(t, rng, 30)
	extra := dataset.Synthetic(dataset.SynthConfig{N: 6, AvgEdges: 9, Labels: 5, Seed: 7})
	ctx := context.Background()
	dir := t.TempDir()

	s, err := CreateStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.CreateFromIndex("main", idx, CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := c.Add(ctx, extra...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(ids[0]); err != nil {
		t.Fatal(err)
	}
	// No checkpoint. Close == kill -9 as far as the directory goes: the
	// writes exist only as fsynced log records.
	s.Close()

	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rc, ok := re.Collection("main")
	if !ok {
		t.Fatal("collection lost across restart")
	}
	if got, want := rc.Size(), len(db)+len(extra)-1; got != want {
		t.Fatalf("recovered %d live graphs, want %d", got, want)
	}
	for i, id := range ids {
		g, ok := rc.Graph(id)
		if !ok {
			t.Fatalf("added id %d lost across restart", id)
		}
		if g.String() != extra[i].String() {
			t.Fatalf("id %d recovered wrong graph", id)
		}
	}
	// The removed id must stay removed: it may never surface in results.
	res, err := rc.Search(ctx, extra[0], SearchOptions{K: len(db) + len(extra)})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Results {
		if r.ID == ids[0] {
			t.Fatalf("tombstoned id %d resurfaced after restart", ids[0])
		}
	}
}

// TestCrashRecoveryRandomized is the crash-recovery property test: a
// scripted random interleaving of adds, removes, and checkpoints runs
// against a durable store and an in-memory replica; the durable store is
// then killed — after any record boundary, and on odd rounds with a torn
// record appended (a write cut mid-record) — reopened, and must serve
// bit-identical Search results to the replica's committed prefix.
// Replay a failure with GRAPHDIM_EQUIV_SEED=<seed>.
func TestCrashRecoveryRandomized(t *testing.T) {
	seed := equivSeed(t)
	rng := rand.New(rand.NewSource(seed))
	idx, db := equivBuild(t, rng, 40)
	pool := dataset.Synthetic(dataset.SynthConfig{N: 80, AvgEdges: 9, Labels: 5, Seed: rng.Int63()})
	ctx := context.Background()

	rounds := 5
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			shards := 1 + rng.Intn(3)
			dir := t.TempDir()
			s, err := CreateStore(dir, StoreOptions{WAL: WALOptions{SegmentBytes: 1 << 12}})
			if err != nil {
				t.Fatal(err)
			}
			c, err := s.CreateFromIndex("c", idx, CollectionOptions{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			replicaStore := NewStore(StoreOptions{})
			defer replicaStore.Close()
			replica, err := replicaStore.CreateFromIndex("c", idx, CollectionOptions{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}

			var alive []int
			next := 0
			nOps := 6 + rng.Intn(10)
			for op := 0; op < nOps; op++ {
				switch k := rng.Intn(6); {
				case k <= 2: // add a batch
					bs := 1 + rng.Intn(3)
					if next+bs > len(pool) {
						continue
					}
					batch := pool[next : next+bs]
					next += bs
					ids, err := c.Add(ctx, batch...)
					if err != nil {
						t.Fatalf("op %d: durable Add: %v", op, err)
					}
					rids, err := replica.Add(ctx, batch...)
					if err != nil {
						t.Fatalf("op %d: replica Add: %v", op, err)
					}
					if !reflect.DeepEqual(ids, rids) {
						t.Fatalf("op %d: id divergence %v vs %v", op, ids, rids)
					}
					alive = append(alive, ids...)
				case k == 3: // remove a live id
					if len(alive) == 0 {
						continue
					}
					i := rng.Intn(len(alive))
					id := alive[i]
					alive = append(alive[:i], alive[i+1:]...)
					if err := c.Remove(id); err != nil {
						t.Fatalf("op %d: durable Remove(%d): %v", op, id, err)
					}
					if err := replica.Remove(id); err != nil {
						t.Fatalf("op %d: replica Remove(%d): %v", op, id, err)
					}
				case k == 4: // checkpoint
					if err := s.Checkpoint(); err != nil {
						t.Fatalf("op %d: Checkpoint: %v", op, err)
					}
				default: // compact — the durable side only: the replica never
					// reclaims, and recovery must not be able to tell
					if _, err := c.Compact(ctx); err != nil {
						t.Fatalf("op %d: Compact: %v", op, err)
					}
				}
			}

			// Kill the process at this record boundary; on odd rounds a
			// torn record (a write that never finished) trails the log.
			s.Close()
			if round%2 == 1 {
				tearWAL(t, dir, "c")
			}

			// Rotate the recovery memory mode so the property holds for
			// mapped serving (checkpointed base faulted from the segment)
			// as well as full heap rehydration.
			mode := [...]MemoryMode{MemoryMap, MemoryHeap, MemoryAuto}[round%3]
			re, err := OpenStore(dir, StoreOptions{Memory: mode})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer re.Close()
			rc, ok := re.Collection("c")
			if !ok {
				t.Fatal("collection lost across crash")
			}
			label := fmt.Sprintf("seed=%d round=%d", seed, round)
			assertSameContent(t, label, rc, replica)
			queries := []*Graph{db[rng.Intn(len(db))], db[rng.Intn(len(db))]}
			if next > 0 {
				queries = append(queries, pool[rng.Intn(next)])
			}
			assertSameSearch(t, label, rc, replica, queries)

			// The recovered store must keep accepting durable writes.
			if next < len(pool) {
				if _, err := rc.Add(ctx, pool[next]); err != nil {
					t.Fatalf("Add after recovery: %v", err)
				}
			}
		})
	}
}

func TestPartialAddLogsExactlyAppliedIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	idx, _ := equivBuild(t, rng, 30)
	ctx := context.Background()
	dir := t.TempDir()
	s, err := CreateStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.CreateFromIndex("p", idx, CollectionOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// A batch big enough to hit at least two shards, and a victim shard
	// that owns some but not all of its ids.
	batch := dataset.Synthetic(dataset.SynthConfig{N: 8, AvgEdges: 9, Labels: 5, Seed: 11})
	first := int(c.nextID.Load())
	byShard := map[int][]int{}
	for i := range batch {
		sh := placeID(first+i, 4)
		byShard[sh] = append(byShard[sh], first+i)
	}
	if len(byShard) < 2 {
		t.Fatalf("batch landed on %d shards; need >= 2", len(byShard))
	}
	victim := -1
	for sh, ids := range byShard {
		if len(ids) < len(batch) {
			victim = sh
			break
		}
	}
	boom := errors.New("injected shard failure")
	c.failShard = func(sh int) error {
		if sh == victim {
			return boom
		}
		return nil
	}
	_, err = c.Add(ctx, batch...)
	var pe *PartialAddError
	if !errors.As(err, &pe) {
		t.Fatalf("Add returned %v; want *PartialAddError", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("PartialAddError does not wrap the cause: %v", err)
	}
	var wantApplied []int
	for sh, ids := range byShard {
		if sh != victim {
			wantApplied = append(wantApplied, ids...)
		}
	}
	sort.Ints(wantApplied)
	if !reflect.DeepEqual(pe.Applied, wantApplied) || pe.Total != len(batch) {
		t.Fatalf("PartialAddError{Applied: %v, Total: %d}, want {%v, %d}", pe.Applied, pe.Total, wantApplied, len(batch))
	}
	// The batch's ids are burned even though part of it failed.
	if got := int(c.nextID.Load()); got != first+len(batch) {
		t.Fatalf("nextID %d after partial add, want %d", got, first+len(batch))
	}

	// Crash and recover: exactly the applied subset comes back — the WAL
	// compensator must stop replay from resurrecting the failed slices.
	s.Close()
	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rc, _ := re.Collection("p")
	for _, id := range wantApplied {
		if _, ok := rc.Graph(id); !ok {
			t.Fatalf("applied id %d lost across crash", id)
		}
	}
	for _, id := range byShard[victim] {
		if _, ok := rc.Graph(id); ok {
			t.Fatalf("failed id %d resurrected by replay", id)
		}
	}
	if got := rc.Stats().NextID; got != first+len(batch) {
		t.Fatalf("recovered NextID %d, want %d (ids stay burned)", got, first+len(batch))
	}
	// And the recovered collection keeps assigning fresh ids.
	ids, err := rc.Add(ctx, batch[0])
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != first+len(batch) {
		t.Fatalf("post-recovery add got id %d, want %d", ids[0], first+len(batch))
	}
}

func TestTotalAddFailureIsVoidedInLog(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	idx, _ := equivBuild(t, rng, 30)
	ctx := context.Background()
	dir := t.TempDir()
	s, err := CreateStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.CreateFromIndex("v", idx, CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch := dataset.Synthetic(dataset.SynthConfig{N: 4, AvgEdges: 9, Labels: 5, Seed: 13})
	first := int(c.nextID.Load())
	boom := errors.New("all shards down")
	c.failShard = func(int) error { return boom }
	if _, err := c.Add(ctx, batch...); !errors.Is(err, boom) {
		t.Fatalf("Add returned %v; want the injected failure", err)
	}
	var pe *PartialAddError
	if errors.As(err, &pe) {
		t.Fatalf("total failure reported as partial: %v", err)
	}
	// Nothing landed, but the batch is in the log, and logged ids are
	// never reassigned (the invariant replication reconciliation leans
	// on): the ids burn...
	if got := int(c.nextID.Load()); got != first+len(batch) {
		t.Fatalf("nextID %d after voided add, want %d", got, first+len(batch))
	}
	// ...and the retry gets fresh ones.
	c.failShard = nil
	ids, err := c.Add(ctx, batch...)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != first+len(batch) {
		t.Fatalf("retry got id %d, want %d", ids[0], first+len(batch))
	}

	// Crash and recover: only the retry's graphs exist, under the same
	// ids — replay must skip the voided record's graphs while still
	// burning its ids.
	s.Close()
	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen after voided add: %v", err)
	}
	defer re.Close()
	rc, _ := re.Collection("v")
	st := rc.Stats()
	if st.NextID != first+2*len(batch) {
		t.Fatalf("recovered NextID %d, want %d", st.NextID, first+2*len(batch))
	}
	for i, id := range ids {
		g, ok := rc.Graph(id)
		if !ok || g.String() != batch[i].String() {
			t.Fatalf("retry id %d not recovered intact", id)
		}
	}
}

func TestCheckpointTruncatesLog(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	idx, _ := equivBuild(t, rng, 30)
	ctx := context.Background()
	dir := t.TempDir()
	// Tiny segments so a handful of adds spans several files.
	s, err := CreateStore(dir, StoreOptions{WAL: WALOptions{SegmentBytes: 256}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := s.CreateFromIndex("t", idx, CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	pool := dataset.Synthetic(dataset.SynthConfig{N: 12, AvgEdges: 9, Labels: 5, Seed: 17})
	for _, g := range pool[:8] {
		if _, err := c.Add(ctx, g); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats().WAL
	if before == nil {
		t.Fatal("durable collection reports no WAL stats")
	}
	if before.Segments < 2 {
		t.Fatalf("expected several segments at 256-byte roll threshold, got %d", before.Segments)
	}
	if before.LastSeq != 8 || before.Appends != 8 {
		t.Fatalf("wal stats before checkpoint: %+v", before)
	}

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.Checkpoints(); got < 1 {
		t.Fatalf("Checkpoints() = %d", got)
	}
	after := c.Stats().WAL
	if after.CheckpointSeq != 8 || after.Segments != 1 || after.Bytes >= before.Bytes {
		t.Fatalf("checkpoint did not truncate the log: %+v (before %+v)", after, before)
	}

	// Post-checkpoint writes land in the fresh tail and survive a crash.
	if _, err := c.Add(ctx, pool[8]); err != nil {
		t.Fatal(err)
	}
	s.Close()
	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rc, _ := re.Collection("t")
	if got, want := rc.Stats().NextID, c.Stats().NextID; got != want {
		t.Fatalf("recovered NextID %d, want %d", got, want)
	}
}

// TestSaveInterrupted injects a write error into Save and requires the
// directory to come back exactly as the previous successful save left
// it: same manifest, same shard files, no debris — and the next save to
// succeed.
func TestSaveInterrupted(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	idx, db := equivBuild(t, rng, 30)
	ctx := context.Background()
	s := NewStore(StoreOptions{})
	defer s.Close()
	c, err := s.CreateFromIndex("main", idx, CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	listing := func() []string {
		var out []string
		filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() {
				out = append(out, p)
			}
			return nil
		})
		sort.Strings(out)
		return out
	}
	before := listing()
	manifestBefore, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}

	// Grow the store, then make the manifest write fail: a directory
	// squatting on the temp-manifest path turns os.WriteFile into EISDIR
	// after the fresh shard files are already on disk.
	extra := dataset.Synthetic(dataset.SynthConfig{N: 3, AvgEdges: 9, Labels: 5, Seed: 19})
	if _, err := c.Add(ctx, extra...); err != nil {
		t.Fatal(err)
	}
	blocker := filepath.Join(dir, manifestName+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(dir); err == nil {
		t.Fatal("interrupted Save reported success")
	}

	// The failed attempt must have cleaned up after itself...
	os.RemoveAll(blocker) // in case the cleanup's os.Remove didn't take it
	if got := listing(); !reflect.DeepEqual(got, before) {
		t.Fatalf("failed save left debris:\nbefore: %v\nafter:  %v", before, got)
	}
	manifestAfter, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil || string(manifestAfter) != string(manifestBefore) {
		t.Fatalf("failed save disturbed the manifest (err %v)", err)
	}
	// ...and the directory must reopen to the pre-failure state.
	re, err := OpenStore(dir, StoreOptions{WAL: WALOptions{Disabled: true}})
	if err != nil {
		t.Fatalf("reopen after interrupted save: %v", err)
	}
	rc, _ := re.Collection("main")
	if rc.Size() != len(db) {
		t.Fatalf("recovered %d graphs, want the checkpointed %d", rc.Size(), len(db))
	}
	re.Close()

	// With the blocker gone the next save lands the grown state, and the
	// sweep retires the superseded generation.
	if err := s.Save(dir); err != nil {
		t.Fatalf("save after recovery: %v", err)
	}
	re2, err := OpenStore(dir, StoreOptions{WAL: WALOptions{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	rc2, _ := re2.Collection("main")
	if rc2.Size() != len(db)+len(extra) {
		t.Fatalf("post-recovery save lost writes: %d graphs, want %d", rc2.Size(), len(db)+len(extra))
	}
}

// TestCrashDebrisIsSwept covers the crash flavour of an interrupted
// save: a stale temp manifest and an unreferenced shard file are left on
// disk, the store must open cleanly past them, and the next save sweeps
// them.
func TestCrashDebrisIsSwept(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	idx, _ := equivBuild(t, rng, 30)
	s := NewStore(StoreOptions{})
	defer s.Close()
	if _, err := s.CreateFromIndex("main", idx, CollectionOptions{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	debrisManifest := filepath.Join(dir, manifestName+".tmp")
	debrisShard := filepath.Join(dir, "main", "shard-0000-crashed.gdx")
	os.WriteFile(debrisManifest, []byte("{half a manifest"), 0o644)
	os.WriteFile(debrisShard, []byte("torn shard bytes"), 0o644)

	re, err := OpenStore(dir, StoreOptions{WAL: WALOptions{Disabled: true}})
	if err != nil {
		t.Fatalf("open over crash debris: %v", err)
	}
	re.Close()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(debrisShard); !os.IsNotExist(err) {
		t.Fatalf("sweep left the orphan shard file (stat err %v)", err)
	}
}

func TestDurableDropDoesNotResurrect(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	idx, _ := equivBuild(t, rng, 30)
	dir := t.TempDir()
	s, err := CreateStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateFromIndex("keep", idx, CollectionOptions{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateFromIndex("gone", idx, CollectionOptions{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	// A foreign directory in the data dir — name matching the collection
	// grammar, contents not ours — must survive every sweep untouched.
	foreign := filepath.Join(dir, "backups")
	if err := os.MkdirAll(foreign, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(foreign, "precious.tar"), []byte("irreplaceable"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Drop("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gone")); !os.IsNotExist(err) {
		t.Fatalf("dropped collection's directory survives (stat err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(foreign, "precious.tar")); err != nil {
		t.Fatalf("sweep touched a foreign directory: %v", err)
	}
	s.Close()
	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.Collection("gone"); ok {
		t.Fatal("dropped collection resurrected by restart")
	}
	if _, ok := re.Collection("keep"); !ok {
		t.Fatal("surviving collection lost")
	}
}

// TestCompactionCoordinatesWithRecovery: Compact writes nothing to the log
// and needs nothing from it. A reclaim lost to a crash (no checkpoint since)
// and a reclaim persisted by a checkpoint both recover to a store that
// ranks bit-identically — mapped, verified and exact — to a single-shard
// replica that saw the same writes and never compacted or crashed.
func TestCompactionCoordinatesWithRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	idx, db := equivBuild(t, rng, 30)
	pool := dataset.Synthetic(dataset.SynthConfig{N: 12, AvgEdges: 9, Labels: 5, Seed: 23})
	ctx := context.Background()
	dir := t.TempDir()
	s, err := CreateStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.CreateFromIndex("c", idx, CollectionOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	replicaStore := NewStore(StoreOptions{})
	defer replicaStore.Close()
	replica, err := replicaStore.CreateFromIndex("c", idx, CollectionOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	same := func(label string, got *Collection) {
		t.Helper()
		if g, w := got.Size(), replica.Size(); g != w {
			t.Fatalf("%s: %d live graphs, want %d", label, g, w)
		}
		if g, w := got.Stats().NextID, replica.Stats().NextID; g != w {
			t.Fatalf("%s: NextID %d, want %d", label, g, w)
		}
		for _, q := range []*Graph{db[3], pool[5], pool[11]} {
			for _, sopt := range []SearchOptions{
				{K: 8},
				{K: 8, Engine: EngineVerified, VerifyFactor: 100},
				{K: 8, Engine: EngineExact},
			} {
				g, err := got.Search(ctx, q, sopt)
				if err != nil {
					t.Fatal(err)
				}
				w, err := replica.Search(ctx, q, sopt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(g.Results, w.Results) {
					t.Fatalf("%s: %s ranking diverges:\ngot:     %v\nreplica: %v", label, sopt.Engine, g.Results, w.Results)
				}
			}
		}
	}
	both := func(c *Collection, f func(*Collection) error) {
		t.Helper()
		for _, x := range []*Collection{c, replica} {
			if err := f(x); err != nil {
				t.Fatal(err)
			}
		}
	}
	add := func(gs []*Graph) func(*Collection) error {
		return func(x *Collection) error { _, err := x.Add(ctx, gs...); return err }
	}

	ids, err := c.Add(ctx, pool[:4]...)
	if err != nil {
		t.Fatal(err)
	}
	if err := add(pool[:4])(replica); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint tail: a remove, a reclaim (in memory only — it must
	// not touch the log), more adds.
	both(c, func(x *Collection) error { return x.Remove(ids[1], 7) })
	appends := c.Stats().WAL.Appends
	if n, err := c.Compact(ctx); err != nil || n == 0 {
		t.Fatalf("Compact repacked %d shards, err %v", n, err)
	}
	if got := c.Stats().WAL.Appends; got != appends {
		t.Fatalf("Compact appended %d wal records", got-appends)
	}
	both(c, add(pool[4:7]))
	same("compacted, before the crash", c)

	s.Close() // crash: no checkpoint since the reclaim — it is simply lost
	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen after compact+crash: %v", err)
	}
	rc, _ := re.Collection("c")
	same("recovered after compact+crash", rc)
	if _, ok := rc.Graph(7); !ok {
		t.Fatal("the crash should have reverted the reclaim: id 7 is a tombstone in the checkpoint image")
	}

	// Second life: this time the reclaim is checkpointed, so the segment
	// files hold only live graphs and the replayed tail lands on them.
	both(rc, func(x *Collection) error { return x.Remove(ids[2], 12) })
	if n, err := rc.Compact(ctx); err != nil || n == 0 {
		t.Fatalf("Compact repacked %d shards, err %v", n, err)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	both(rc, add(pool[7:10]))
	both(rc, func(x *Collection) error { return x.Remove(3) })
	re.Close() // crash again
	for _, mode := range []MemoryMode{MemoryHeap, MemoryMap} {
		re2, err := OpenStore(dir, StoreOptions{Memory: mode})
		if err != nil {
			t.Fatalf("reopen after compact+checkpoint+crash: %v", err)
		}
		rc2, _ := re2.Collection("c")
		same("recovered over a compacted checkpoint", rc2)
		for _, id := range []int{7, 12, ids[1], ids[2]} {
			if _, ok := rc2.Graph(id); ok {
				t.Fatalf("reclaimed id %d resolves after reopening a compacted checkpoint", id)
			}
		}
		// A reclaim of a mapped shard faults its live graphs onto the heap.
		if n, err := rc2.Compact(ctx); err != nil || n == 0 {
			t.Fatalf("Compact (memory mode %d) repacked %d shards, err %v", mode, n, err)
		}
		same("compacted again after reopen", rc2)
		re2.Close()
	}
}

func TestOpenOrCreateStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh")
	s, err := OpenOrCreateStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("create branch: %v", err)
	}
	if s.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", s.Dir(), dir)
	}
	s.Close()
	// Second open takes the open branch.
	s2, err := OpenOrCreateStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("open branch: %v", err)
	}
	s2.Close()
	// CreateStore refuses a directory that already holds a store.
	if _, err := CreateStore(dir, StoreOptions{}); err == nil {
		t.Fatal("CreateStore over an existing store succeeded")
	}
	// A memory store cannot checkpoint.
	m := NewStore(StoreOptions{})
	defer m.Close()
	if err := m.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a memory store succeeded")
	}
}

// TestDisabledOpenRefusesUnreplayedTail: opening a durable directory
// with the WAL disabled must not silently drop acknowledged records the
// checkpoint does not cover.
func TestDisabledOpenRefusesUnreplayedTail(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	idx, _ := equivBuild(t, rng, 30)
	ctx := context.Background()
	dir := t.TempDir()
	s, err := CreateStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.CreateFromIndex("d", idx, CollectionOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	extra := dataset.Synthetic(dataset.SynthConfig{N: 2, AvgEdges: 9, Labels: 5, Seed: 29})
	if _, err := c.Add(ctx, extra...); err != nil {
		t.Fatal(err)
	}
	s.Close() // tail record exists, no checkpoint

	if _, err := OpenStore(dir, StoreOptions{WAL: WALOptions{Disabled: true}}); err == nil {
		t.Fatal("disabled open over an unreplayed tail succeeded")
	}

	// Recover properly, checkpoint, and the disabled open is fine — and
	// its own checkpoints must preserve wal_seq rather than reset it.
	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re.Close()
	rd, err := OpenStore(dir, StoreOptions{WAL: WALOptions{Disabled: true}})
	if err != nil {
		t.Fatalf("disabled open after full checkpoint: %v", err)
	}
	if err := rd.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rd.Close()
	// Re-enabling the WAL replays nothing stale: the store still holds
	// exactly one copy of everything.
	final, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	fc, _ := final.Collection("d")
	if got, want := fc.Size(), 30+len(extra); got != want {
		t.Fatalf("size %d after disabled round-trip, want %d", got, want)
	}
}

// TestExportedStoreReplaysItsOwnLog: a Save to a foreign directory ships
// the snapshot without the source's log, so the copy's manifest must not
// claim the source's log position — writes to the opened copy get a
// fresh log starting at sequence 1 and must survive a crash.
func TestExportedStoreReplaysItsOwnLog(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	idx, db := equivBuild(t, rng, 30)
	ctx := context.Background()
	extra := dataset.Synthetic(dataset.SynthConfig{N: 4, AvgEdges: 9, Labels: 5, Seed: 31})

	src := t.TempDir()
	s, err := CreateStore(src, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.CreateFromIndex("e", idx, CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Push the source log's sequence forward so a copied wal_seq would
	// mask the copy's fresh low-sequence records.
	if _, err := c.Add(ctx, extra[:2]...); err != nil {
		t.Fatal(err)
	}
	export := t.TempDir()
	if err := s.Save(export); err != nil {
		t.Fatal(err)
	}
	s.Close()

	e1, err := OpenStore(export, StoreOptions{})
	if err != nil {
		t.Fatalf("open exported copy: %v", err)
	}
	ec, _ := e1.Collection("e")
	// The export includes the source's committed writes...
	if got, want := ec.Size(), len(db)+2; got != want {
		t.Fatalf("exported copy has %d graphs, want %d", got, want)
	}
	// ...and logs its own writes durably.
	ids, err := ec.Add(ctx, extra[2:]...)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close() // crash, no checkpoint

	e2, err := OpenStore(export, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen exported copy after crash: %v", err)
	}
	defer e2.Close()
	rc, _ := e2.Collection("e")
	for _, id := range ids {
		if _, ok := rc.Graph(id); !ok {
			t.Fatalf("acknowledged write %d to the exported copy lost across crash", id)
		}
	}
}

// TestCheckpointConcurrentWithWrites hammers checkpoints against a
// stream of adds and removes — the checkpoint path captures snapshots
// under the writer lock but encodes them lock-free, and every image it
// installs (any of which a crash could surface) must be loadable and
// consistent with the log tail. Meaningful under -race.
func TestCheckpointConcurrentWithWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	idx, db := equivBuild(t, rng, 30)
	pool := dataset.Synthetic(dataset.SynthConfig{N: 40, AvgEdges: 9, Labels: 5, Seed: 37})
	ctx := context.Background()
	dir := t.TempDir()
	s, err := CreateStore(dir, StoreOptions{WAL: WALOptions{SegmentBytes: 1 << 12}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.CreateFromIndex("w", idx, CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < len(pool); i += 2 {
			if _, err := c.Add(ctx, pool[i:i+2]...); err != nil {
				t.Errorf("concurrent Add: %v", err)
				return
			}
			if i%8 == 0 {
				if err := c.Remove(len(db) + i); err != nil {
					t.Errorf("concurrent Remove: %v", err)
					return
				}
			}
		}
	}()
	for i := 0; i < 8; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d racing writes: %v", i, err)
		}
	}
	<-done
	s.Close() // crash: whatever the last checkpoint missed is in the log

	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen after racing checkpoints: %v", err)
	}
	defer re.Close()
	rc, _ := re.Collection("w")
	removed := (len(pool) + 7) / 8
	if got, want := rc.Size(), len(db)+len(pool)-removed; got != want {
		t.Fatalf("recovered %d live graphs, want %d", got, want)
	}
	for i := range pool {
		id := len(db) + i
		g, ok := rc.Graph(id)
		if !ok || g.String() != pool[i].String() {
			t.Fatalf("acknowledged id %d lost or corrupted across racing checkpoints", id)
		}
	}
}

// TestDataDirSingleOwner: two live stores on one data directory would
// corrupt each other's logs, so the second open must fail — while
// read-only (WAL-disabled) opens stay allowed alongside a live owner.
func TestDataDirSingleOwner(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, StoreOptions{}); err == nil {
		t.Fatal("second owner of the data directory was admitted")
	}
	// A read-only open may inspect the live directory.
	ro, err := OpenStore(dir, StoreOptions{WAL: WALOptions{Disabled: true}})
	if err != nil {
		t.Fatalf("read-only open alongside the owner: %v", err)
	}
	ro.Close()
	// Close releases the lock; the next owner gets in.
	s.Close()
	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("open after the owner closed: %v", err)
	}
	s2.Close()
}
