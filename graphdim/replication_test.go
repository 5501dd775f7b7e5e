package graphdim

import (
	"archive/tar"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/segment"
	"repro/internal/wal"
)

// Replication unit suite: the follower applier and snapshot bootstrap,
// driven in-process by pumping records straight from a primary
// collection's log into a follower's ReplicaApplier — the same flow the
// HTTP tail endpoint and internal/repl tailer drive in production. The
// randomized kill-and-resume property test is in replication_prop_test.go.

// bootstrapFollower snapshots the primary store into a fresh directory
// and opens it, returning the follower store and its collection's
// applier.
func bootstrapFollower(t *testing.T, primary *Store, coll string) (*Store, *Collection, *ReplicaApplier, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := primary.WriteSnapshotTar(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	dir := filepath.Join(t.TempDir(), "follower")
	if err := ExtractSnapshotTar(dir, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("extract: %v", err)
	}
	fs, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	fc, ok := fs.Collection(coll)
	if !ok {
		t.Fatalf("follower has no collection %q", coll)
	}
	rep, err := fc.Replica()
	if err != nil {
		t.Fatal(err)
	}
	return fs, fc, rep, dir
}

// pump streams every applied record the follower is missing from the
// primary collection into the applier — one catch-up round, exactly
// what the tailer does per heartbeat.
func pump(t *testing.T, pc *Collection, rep *ReplicaApplier) int {
	t.Helper()
	ctx := context.Background()
	st, err := pc.StreamWAL(rep.AckSeq())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	upper := pc.AppliedSeq()
	var recs []wal.Record
	for {
		rec, ok, err := st.Next(upper)
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	if err := rep.Apply(ctx, recs); err != nil {
		t.Fatalf("apply: %v", err)
	}
	return len(recs)
}

// TestExtractSnapshotTarIsAllOrNothing: a follower's bootstrap installs
// the manifest last, so an archive cut inside a shard leaves no store
// behind (the next start fetches again instead of failing every open),
// and a shard whose body fails its checksum is refused by name before
// anything could serve it.
func TestExtractSnapshotTarIsAllOrNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	idx, _ := equivBuild(t, rng, 30)
	pdir := t.TempDir()
	ps, err := CreateStore(pdir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if _, err := ps.CreateFromIndex("c", idx, CollectionOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ps.WriteSnapshotTar(&buf); err != nil {
		t.Fatal(err)
	}
	archive := buf.Bytes()
	shards, err := filepath.Glob(filepath.Join(pdir, "c", "shard-0001-*.gdx"))
	if err != nil || len(shards) != 1 {
		t.Fatalf("shard files: %v %v", shards, err)
	}
	shard, err := os.ReadFile(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	// A tar entry's body is stored verbatim, so the shard's bytes sit in
	// the archive as they sit on disk.
	at := bytes.Index(archive, shard)
	if at < 0 {
		t.Fatal("shard bytes not found in the archive")
	}
	noStore := func(t *testing.T, dir string) {
		t.Helper()
		if _, err := os.Stat(filepath.Join(dir, manifestName)); !os.IsNotExist(err) {
			t.Fatalf("a failed extract left %s behind (stat err %v)", manifestName, err)
		}
	}

	t.Run("cut inside a shard", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "follower")
		if err := ExtractSnapshotTar(dir, bytes.NewReader(archive[:at+len(shard)/2])); err == nil {
			t.Fatal("an archive cut inside a shard extracted")
		}
		noStore(t, dir)
		if err := ExtractSnapshotTar(dir, bytes.NewReader(archive)); err != nil {
			t.Fatalf("a full archive into the same directory: %v", err)
		}
		s, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	})

	t.Run("flipped byte in a shard body", func(t *testing.T) {
		bad := bytes.Clone(archive)
		bad[at+len(segment.Magic)+100] ^= 0x01
		dir := filepath.Join(t.TempDir(), "follower")
		err := ExtractSnapshotTar(dir, bytes.NewReader(bad))
		if err == nil {
			t.Fatal("a shard with a corrupt body extracted")
		}
		if name := filepath.Base(shards[0]); !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not name %s", err, name)
		}
		noStore(t, dir)
	})
}

// TestExtractSnapshotTarChecksTheManifest: an archive whose manifest
// names a collection or shard file outside the target directory, or a
// shard file the archive never delivered, is refused by the manifest
// rule before any shard opens, and leaves no store behind — even when a
// valid segment already sits under the missing file's name.
func TestExtractSnapshotTarChecksTheManifest(t *testing.T) {
	idx, _ := equivBuild(t, rand.New(rand.NewSource(77)), 20)
	pdir := t.TempDir()
	ps, err := CreateStore(pdir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if _, err := ps.CreateFromIndex("c", idx, CollectionOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(pdir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var man storeManifest
	if err := json.Unmarshal(valid, &man); err != nil {
		t.Fatal(err)
	}
	// manifestOnly archives man with no shard file beside it.
	manifestOnly := func(man storeManifest) []byte {
		data, err := json.Marshal(man)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tw := tar.NewWriter(&buf)
		if err := tw.WriteHeader(&tar.Header{Name: manifestName, Mode: 0o644, Size: int64(len(data))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	edited := func(edit func(*collectionManifest)) storeManifest {
		m := man
		m.Collections = []collectionManifest{man.Collections[0]}
		m.Collections[0].ShardFiles = slices.Clone(man.Collections[0].ShardFiles)
		edit(&m.Collections[0])
		return m
	}
	for _, tc := range []struct {
		name, want string
		man        storeManifest
		preplace   bool
	}{
		{"collection name escapes", "invalid name", edited(func(cm *collectionManifest) { cm.Name = "../../escape" }), false},
		{"shard file escapes", "invalid file name", edited(func(cm *collectionManifest) { cm.ShardFiles[0] = "../../../../etc/passwd" }), false},
		{"shard file not delivered", "not in the archive", man, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "follower")
			if tc.preplace {
				// Valid segments under the names the manifest gives, left
				// by something other than this archive.
				if err := os.MkdirAll(filepath.Join(dir, "c"), 0o755); err != nil {
					t.Fatal(err)
				}
				for _, f := range man.Collections[0].ShardFiles {
					data, err := os.ReadFile(filepath.Join(pdir, "c", f))
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(dir, "c", f), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			err := ExtractSnapshotTar(dir, bytes.NewReader(manifestOnly(tc.man)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ExtractSnapshotTar = %v, want the manifest refused (%q)", err, tc.want)
			}
			if _, err := os.Stat(filepath.Join(dir, manifestName)); !os.IsNotExist(err) {
				t.Fatalf("a refused extract left %s behind (stat err %v)", manifestName, err)
			}
		})
	}
}

func TestPrimaryRetainsSegmentsForFollowers(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	idx, _ := equivBuild(t, rng, 30)
	ctx := context.Background()
	ps, err := CreateStore(t.TempDir(), StoreOptions{WAL: WALOptions{segmentBytes: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	pc, err := ps.CreateFromIndex("c", idx, CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A follower registered at the current position, then a pile of
	// writes and a checkpoint: every segment after the hold must survive
	// for the follower to stream, even though the checkpoint covers them.
	hold := pc.AppliedSeq()
	pc.WALRetain("f1", hold)
	extra := dataset.Synthetic(dataset.SynthConfig{N: 8, AvgEdges: 8, Labels: 5, Seed: 5})
	for _, g := range extra {
		if _, err := pc.Add(ctx, g); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, err := pc.StreamWAL(hold)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := 0
	for {
		_, ok, err := st.Next(pc.AppliedSeq())
		if err != nil {
			t.Fatalf("stream after checkpoint: %v", err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != len(extra) {
		t.Fatalf("streamed %d records after checkpoint, want %d", n, len(extra))
	}
	if w := pc.Stats().WAL; w.Retained != 1 || w.RetainSeq != hold {
		t.Fatalf("retention reports %d followers, min acked %d", w.Retained, w.RetainSeq)
	}
	// Releasing the hold lets the next checkpoint reclaim: the stream
	// position then reports truncation.
	pc.WALUnretain("f1")
	if err := ps.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st2, err := pc.StreamWAL(hold)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, ok, err := st2.Next(pc.AppliedSeq()); ok || !errors.Is(err, wal.ErrTruncated) {
		t.Fatalf("released stream: ok=%v err=%v, want ErrTruncated", ok, err)
	}
}

func TestFreshnessCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	idx, _ := equivBuild(t, rng, 30)
	ctx := context.Background()
	ps, err := CreateStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	pc, err := ps.CreateFromIndex("c", idx, CollectionOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	applied, gens := pc.Freshness()
	if len(gens) != 3 {
		t.Fatalf("freshness vector has %d entries for 3 shards", len(gens))
	}
	extra := dataset.Synthetic(dataset.SynthConfig{N: 4, AvgEdges: 8, Labels: 5, Seed: 6})
	if _, err := pc.Add(ctx, extra...); err != nil {
		t.Fatal(err)
	}
	applied2, _ := pc.Freshness()
	if applied2 != applied+1 {
		t.Fatalf("applied moved %d -> %d across one add", applied, applied2)
	}
	if pc.LastWALSeq() != applied2 {
		t.Fatalf("idle primary: LastWALSeq %d != AppliedSeq %d", pc.LastWALSeq(), applied2)
	}
}

// TestFollowerSurvivesARefusedBatch: a batch the applier refuses — an
// add, then a remove of an id never assigned — is checked before it is
// mirrored, so it never reaches the follower's own log. The follower
// still closes and reopens from its directory, and it converges with the
// primary once a valid batch arrives.
func TestFollowerSurvivesARefusedBatch(t *testing.T) {
	idx, _ := equivBuild(t, rand.New(rand.NewSource(73)), 30)
	ctx := context.Background()
	ps, err := CreateStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	pc, err := ps.CreateFromIndex("c", idx, CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	fs, _, rep, fdir := bootstrapFollower(t, ps, "c")
	extra := dataset.Synthetic(dataset.SynthConfig{N: 5, AvgEdges: 9, Labels: 5, Seed: 98})
	if _, err := pc.Add(ctx, extra[:2]...); err != nil {
		t.Fatal(err)
	}
	st, err := pc.StreamWAL(rep.AckSeq())
	if err != nil {
		t.Fatal(err)
	}
	add, ok, err := st.Next(pc.AppliedSeq())
	st.Close()
	if err != nil || !ok {
		t.Fatalf("stream: %v, %v", ok, err)
	}
	never := int(pc.Stats().NextID) + 7
	bad := []wal.Record{add, {Seq: add.Seq + 1, Type: wal.TypeRemove, IDs: []int{never}}}
	acked := rep.AckSeq()
	if err := rep.Apply(ctx, bad); err == nil || !strings.Contains(err.Error(), "not in store") {
		t.Fatalf("Apply = %v, want the remove of id %d refused", err, never)
	}
	if got := rep.AckSeq(); got != acked {
		t.Fatalf("a refused batch was mirrored: the log's tail moved from %d to %d", acked, got)
	}
	fs.Close()

	fs, err = OpenStore(fdir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen after a refused batch: %v", err)
	}
	defer fs.Close()
	fc, _ := fs.Collection("c")
	if rep, err = fc.Replica(); err != nil {
		t.Fatal(err)
	}
	if err := pc.Remove(1); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Add(ctx, extra[2:]...); err != nil {
		t.Fatal(err)
	}
	if n := pump(t, pc, rep); n != 3 {
		t.Fatalf("pump shipped %d records, want the add, the remove and the add since the bootstrap", n)
	}
	queries := dataset.Synthetic(dataset.SynthConfig{N: 8, AvgEdges: 6, Labels: 5, Seed: 8})
	assertSameSearch(t, "follower after a refused batch", fc, pc, queries)
	assertSameContent(t, "follower after a refused batch", fc, pc)
}

// TestFollowerLandsOrRefusesACancelledBatch: a valid batch handed to the
// applier with a context already done is either refused with nothing
// mirrored or lands in full — never mirrored but unapplied. Either way
// the next batch applies, and a restart reopens to the same state.
func TestFollowerLandsOrRefusesACancelledBatch(t *testing.T) {
	idx, _ := equivBuild(t, rand.New(rand.NewSource(76)), 30)
	ctx := context.Background()
	ps, err := CreateStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	pc, err := ps.CreateFromIndex("c", idx, CollectionOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	fs, fc, rep, fdir := bootstrapFollower(t, ps, "c")
	extra := dataset.Synthetic(dataset.SynthConfig{N: 4, AvgEdges: 9, Labels: 5, Seed: 97})
	if _, err := pc.Add(ctx, extra[:2]...); err != nil {
		t.Fatal(err)
	}
	st, err := pc.StreamWAL(rep.AckSeq())
	if err != nil {
		t.Fatal(err)
	}
	add, ok, err := st.Next(pc.AppliedSeq())
	st.Close()
	if err != nil || !ok {
		t.Fatalf("stream: %v, %v", ok, err)
	}
	queries := append(dataset.Synthetic(dataset.SynthConfig{N: 6, AvgEdges: 6, Labels: 5, Seed: 9}), extra...)
	sameRankings := func(label string, got *Collection) {
		t.Helper()
		assertSameContent(t, label, got, pc)
		assertSameSearch(t, label, got, pc, queries)
		opt := SearchOptions{K: 10, Engine: EngineVerified, VerifyFactor: 100}
		for qi, q := range queries {
			g, err := got.Search(ctx, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			w, err := pc.Search(ctx, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g.Results, w.Results) {
				t.Fatalf("%s: verified query %d diverges:\nfollower: %v\nprimary:  %v", label, qi, g.Results, w.Results)
			}
		}
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	acked := rep.AckSeq()
	if err := rep.Apply(cctx, []wal.Record{add}); err != nil {
		if got := rep.AckSeq(); got != acked {
			t.Fatalf("Apply = %v, yet the batch was mirrored: the log's tail moved from %d to %d", err, acked, got)
		}
		if got := rep.AppliedSeq(); got != acked {
			t.Fatalf("Apply = %v, yet the follower applied through %d", err, got)
		}
	} else {
		if rep.AckSeq() != add.Seq || rep.AppliedSeq() != add.Seq {
			t.Fatalf("a landed batch left AckSeq %d and AppliedSeq %d, want both at %d", rep.AckSeq(), rep.AppliedSeq(), add.Seq)
		}
		sameRankings("a cancelled batch that landed", fc)
	}

	if err := pc.Remove(2); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Add(ctx, extra[2:]...); err != nil {
		t.Fatal(err)
	}
	pump(t, pc, rep)
	if got, want := rep.AckSeq(), pc.AppliedSeq(); got != want || rep.AppliedSeq() != want {
		t.Fatalf("follower acks %d and applied %d, the primary applied %d", got, rep.AppliedSeq(), want)
	}
	sameRankings("the next batch", fc)
	fs.Close()

	fs, err = OpenStore(fdir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer fs.Close()
	fc, _ = fs.Collection("c")
	sameRankings("reopened", fc)
}
