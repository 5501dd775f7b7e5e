package graphdim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/wal"
)

// The durability suite: WAL-backed stores must recover exactly the
// committed writes after a kill at any instant — no checkpoint needed,
// torn tails dropped, a logged add landed whole.

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
	if local < 0 || s.isDead(local) {
		return nil, false
	}
	g, err := s.graphAt(local)
	return g, err == nil
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
			s, err := CreateStore(dir, StoreOptions{WAL: WALOptions{segmentBytes: 1 << 12}})
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

			re, err := OpenStore(dir, StoreOptions{})
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

// mapping reports whether any goroutine is inside mapBatch.
func mapping() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("graphdim.mapBatch"))
}

// TestLoggedAddLands: the write-ahead append is the commit point of a
// durable Add. A context cancelled once its record has synced stops
// nothing (the mapping never sees it): Add returns the batch's
// ids, the log holds the one add record, the shards publish, and a reopen
// ranks like a store that took the batch uncancelled. A failed append commits nothing: no shard publishes,
// nextID stays, and Add returns only after its mapping ran to the end.
func TestLoggedAddLands(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	idx, db := equivBuild(t, rng, 30)
	dir := t.TempDir()
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errSync := errors.New("injected fsync failure")
	var cancelNow, failNow atomic.Bool
	s, err := CreateStore(dir, StoreOptions{WAL: WALOptions{failSync: func() error {
		if cancelNow.Load() {
			cancel()
		}
		if failNow.Load() {
			return errSync
		}
		return nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.CreateFromIndex("m", idx, CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newTestStore(t).CreateFromIndex("m", idx, CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch := dataset.Synthetic(dataset.SynthConfig{N: 4, AvgEdges: 9, Labels: 5, Seed: 29})
	if _, err := ref.Add(context.Background(), batch...); err != nil {
		t.Fatal(err)
	}
	first := int(c.nextID.Load())
	gens := c.generations()

	ctx := cctx
	cancelNow.Store(true)
	ids, err := c.Add(ctx, batch...)
	cancelNow.Store(false)
	if err != nil {
		t.Fatalf("Add cancelled after its append = %v, want the batch's ids", err)
	}
	if ctx.Err() == nil {
		t.Fatal("the context was never cancelled")
	}
	if want := []int{first, first + 1, first + 2, first + 3}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("Add returned ids %v, want %v", ids, want)
	}
	var recs []wal.Record
	if err := c.wal.Replay(0, func(r wal.Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != wal.TypeAdd || recs[0].First != first || len(recs[0].Graphs) != len(batch) {
		t.Fatalf("log holds %+v, want the one add at %d", recs, first)
	}
	if got := c.generations(); reflect.DeepEqual(got, gens) {
		t.Fatalf("shard generations stayed at %v: the logged batch did not publish", got)
	}
	if got := c.AppliedSeq(); got != recs[0].Seq {
		t.Fatalf("settled through %d, the log ends at %d", got, recs[0].Seq)
	}
	queries := append([]*Graph{db[0], db[7]}, batch...)
	assertSameContent(t, "cancelled add", c, ref)
	assertSameSearch(t, "cancelled add", c, ref, queries)

	// Enough graphs that a mapping left running would still be running
	// when the failed append returns.
	more := dataset.Synthetic(dataset.SynthConfig{N: 64, AvgEdges: 9, Labels: 5, Seed: 30})
	gens = c.generations()
	failNow.Store(true)
	if _, err := c.Add(context.Background(), more...); !errors.Is(err, errSync) {
		t.Fatalf("Add with a failing fsync = %v, want the injected failure", err)
	}
	failNow.Store(false)
	if mapping() {
		t.Fatal("Add returned while its mapping was still running")
	}
	if got := c.generations(); !reflect.DeepEqual(got, gens) {
		t.Fatalf("shard generations %v -> %v: a shard published a batch whose append failed", gens, got)
	}
	if got := int(c.nextID.Load()); got != first+len(batch) {
		t.Fatalf("nextID %d after a failed append, want %d: an unlogged batch takes no ids", got, first+len(batch))
	}

	s.Close()
	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rc, _ := re.Collection("m")
	assertSameContent(t, "reopen", rc, ref)
	assertSameSearch(t, "reopen", rc, ref, queries)
}

func TestCheckpointTruncatesLog(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	idx, _ := equivBuild(t, rng, 30)
	ctx := context.Background()
	dir := t.TempDir()
	// Tiny segments so a handful of adds spans several files.
	s, err := CreateStore(dir, StoreOptions{WAL: WALOptions{segmentBytes: 256}})
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

// TestSaveInterrupted injects a write error into a checkpoint and
// requires the directory to come back exactly as the previous successful
// checkpoint left it: same manifest, same shard files, no debris — with
// the log still holding every acknowledged write — and the next
// checkpoint to succeed.
func TestSaveInterrupted(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	idx, db := equivBuild(t, rng, 30)
	ctx := context.Background()
	s, dir := newCheckpointStore(t)
	c, err := s.CreateFromIndex("main", idx, CollectionOptions{Shards: 2})
	if err != nil {
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
	if err := s.Checkpoint(); err == nil {
		t.Fatal("interrupted checkpoint reported success")
	}

	// The failed attempt must have cleaned up after itself...
	os.RemoveAll(blocker) // in case the cleanup's os.Remove didn't take it
	if got := listing(); !reflect.DeepEqual(got, before) {
		t.Fatalf("failed checkpoint left debris:\nbefore: %v\nafter:  %v", before, got)
	}
	manifestAfter, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil || string(manifestAfter) != string(manifestBefore) {
		t.Fatalf("failed checkpoint disturbed the manifest (err %v)", err)
	}
	// ...and a crash now must recover every acknowledged write: the
	// previous checkpoint plus the log tail. The writer carries on, so
	// the crash is a copy of its directory.
	re, err := OpenStore(copyDataDir(t, dir), StoreOptions{})
	if err != nil {
		t.Fatalf("reopen after interrupted checkpoint: %v", err)
	}
	rc, _ := re.Collection("main")
	if rc.Size() != len(db)+len(extra) {
		t.Fatalf("recovered %d graphs, want the acknowledged %d", rc.Size(), len(db)+len(extra))
	}
	re.Close()

	// With the blocker gone the next checkpoint lands the grown state,
	// and the sweep retires the superseded generation.
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
	s.Close()
	re2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	rc2, _ := re2.Collection("main")
	if rc2.Size() != len(db)+len(extra) {
		t.Fatalf("post-recovery checkpoint lost writes: %d graphs, want %d", rc2.Size(), len(db)+len(extra))
	}
	if w := rc2.Stats().WAL; w.CheckpointSeq != w.LastSeq {
		t.Fatalf("post-recovery checkpoint covers record %d, the log holds %d", w.CheckpointSeq, w.LastSeq)
	}
}

// TestCrashDebrisIsSwept covers the crash flavour of an interrupted
// checkpoint: a stale temp manifest and an unreferenced shard file are
// left on disk, the store must open cleanly past them, and the next
// checkpoint sweeps them.
func TestCrashDebrisIsSwept(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	idx, _ := equivBuild(t, rng, 30)
	s, dir := newCheckpointStore(t)
	if _, err := s.CreateFromIndex("main", idx, CollectionOptions{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	debrisManifest := filepath.Join(dir, manifestName+".tmp")
	debrisShard := filepath.Join(dir, "main", "shard-0000-crashed.gdx")
	os.WriteFile(debrisManifest, []byte("{half a manifest"), 0o644)
	os.WriteFile(debrisShard, []byte("torn shard bytes"), 0o644)

	re, err := OpenStore(copyDataDir(t, dir), StoreOptions{})
	if err != nil {
		t.Fatalf("open over crash debris: %v", err)
	}
	re.Close()
	if err := s.Checkpoint(); err != nil {
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

// TestOpenStoreRefusesUnreadableWALRecord: an intact log record this
// release cannot read — an older release's partial-add amendment (type
// 3) or an unknown type — fails crash replay by naming it. The log
// stays byte for byte as it was, acknowledged add behind the record
// included, so a release that reads it can still recover the store.
func TestOpenStoreRefusesUnreadableWALRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	idx, _ := equivBuild(t, rng, 20)
	extra := dataset.Synthetic(dataset.SynthConfig{N: 2, AvgEdges: 9, Labels: 5, Seed: 31})
	for _, tc := range []struct {
		typ     byte
		payload []byte
		want    string
	}{
		// first 20, a batch of 1, one applied id: 20
		{3, []byte{20, 1, 1, 20}, "record type 3 is a partial-add amendment"},
		{42, []byte{1}, "unknown record type 42"},
	} {
		t.Run(fmt.Sprintf("type %d", tc.typ), func(t *testing.T) {
			dir := t.TempDir()
			s, err := CreateStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			c, err := s.CreateFromIndex("c", idx, CollectionOptions{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			ids, err := c.Add(context.Background(), extra[0])
			if err != nil {
				t.Fatal(err)
			}
			s.Close() // record 1 is in the log, past the checkpoint

			wdir := filepath.Join(dir, "c", walDirName)
			segs, err := filepath.Glob(filepath.Join(wdir, "seg-*.wal"))
			if err != nil || len(segs) != 1 {
				t.Fatalf("wal segments %v, %v", segs, err)
			}
			frame := binary.AppendUvarint(nil, 2)
			frame = append(frame, tc.typ)
			frame = binary.AppendUvarint(frame, uint64(len(tc.payload)))
			frame = append(frame, tc.payload...)
			frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
			next, err := wal.EncodeFrame(wal.Record{Seq: 3, Type: wal.TypeAdd, First: ids[0] + 1, Graphs: extra[1:]})
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(append(frame, next...)); err != nil {
				t.Fatal(err)
			}
			f.Close()
			before, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}

			if s, err := OpenStore(dir, StoreOptions{}); err == nil {
				s.Close()
				t.Fatal("OpenStore opened a log holding an unreadable record")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("OpenStore = %v, want it to say %q", err, tc.want)
			}
			after, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			if sha256.Sum256(after) != sha256.Sum256(before) {
				t.Fatalf("OpenStore changed the log: %d bytes, was %d", len(after), len(before))
			}
		})
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
	s, err := CreateStore(dir, StoreOptions{WAL: WALOptions{segmentBytes: 1 << 12}})
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
// corrupt each other's logs, so every open takes the directory's lock:
// while the owner lives a second open fails naming it, and once the owner
// closes the next one serves every write it acknowledged — checkpointed
// or only logged.
func TestDataDirSingleOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	idx, db := equivBuild(t, rng, 20)
	pool := dataset.Synthetic(dataset.SynthConfig{N: 4, AvgEdges: 9, Labels: 5, Seed: 41})
	ctx := context.Background()
	dir := t.TempDir()
	s, err := CreateStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.CreateFromIndex("c", idx, CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func() (*Store, error){
		"OpenStore":         func() (*Store, error) { return OpenStore(dir, StoreOptions{}) },
		"OpenOrCreateStore": func() (*Store, error) { return OpenOrCreateStore(dir, StoreOptions{}) },
	} {
		if second, err := open(); err == nil {
			second.Close()
			t.Fatalf("%s admitted a second owner of the data directory", name)
		} else if !strings.Contains(err.Error(), "in use by another process") {
			t.Fatalf("%s = %v, want it to name the lock", name, err)
		}
	}

	// Add, Checkpoint, Add, Close: the reopen serves both batches.
	if _, err := c.Add(ctx, pool[:2]...); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(ctx, pool[2:]...); err != nil {
		t.Fatal(err)
	}
	s.Close()
	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("open after the owner closed: %v", err)
	}
	defer re.Close()
	rc, _ := re.Collection("c")
	if got, want := rc.Size(), len(db)+len(pool); got != want {
		t.Fatalf("reopen serves %d graphs, want %d", got, want)
	}
	for i, g := range pool {
		if got, ok := rc.Graph(len(db) + i); !ok || got.String() != g.String() {
			t.Fatalf("acknowledged id %d lost or corrupted across the reopen", len(db)+i)
		}
	}
}
