package graphdim

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
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

// pump streams every settled record the follower is missing from the
// primary collection into the applier, then settles — one catch-up
// round, exactly what the tailer does per heartbeat.
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
	if len(recs) > 0 {
		if err := rep.Apply(ctx, recs); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	if err := rep.Settle(ctx); err != nil {
		t.Fatalf("settle: %v", err)
	}
	return len(recs)
}

func TestFollowerConvergesAndSurvivesRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	idx, _ := equivBuild(t, rng, 40)
	ctx := context.Background()
	pdir := t.TempDir()
	ps, err := CreateStore(pdir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	pc, err := ps.CreateFromIndex("c", idx, CollectionOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}

	fs, fc, rep, fdir := bootstrapFollower(t, ps, "c")
	if got, want := rep.AckSeq(), pc.AppliedSeq(); got != want {
		t.Fatalf("bootstrapped follower acks %d, primary applied is %d", got, want)
	}

	// A mixed write history: clean adds, removes, a partial add, a
	// fully voided add.
	extra := dataset.Synthetic(dataset.SynthConfig{N: 18, AvgEdges: 9, Labels: 5, Seed: 99})
	ids, err := pc.Add(ctx, extra[:6]...)
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.Remove(ids[1], ids[4]); err != nil {
		t.Fatal(err)
	}
	// Compact the primary only. A reclaim is not a logged event and does
	// not need to be: the follower keeps the tombstones and must rank
	// identically all the same.
	if n, err := pc.Compact(ctx); err != nil || n == 0 {
		t.Fatalf("primary Compact = (%d, %v)", n, err)
	}
	boom := errors.New("shard down")
	pc.failShard = func(sh int) error {
		if sh == 1 {
			return boom
		}
		return nil
	}
	if _, err := pc.Add(ctx, extra[6:12]...); !errors.Is(err, boom) {
		t.Fatalf("partial add returned %v", err)
	}
	pc.failShard = func(int) error { return boom }
	if _, err := pc.Add(ctx, extra[12:15]...); !errors.Is(err, boom) {
		t.Fatalf("voided add returned %v", err)
	}
	pc.failShard = nil
	if _, err := pc.Add(ctx, extra[15:]...); err != nil {
		t.Fatal(err)
	}

	if n := pump(t, pc, rep); n == 0 {
		t.Fatal("pump shipped nothing")
	}
	if got, want := rep.AppliedSeq(), pc.AppliedSeq(); got != want {
		t.Fatalf("follower applied %d, primary %d", got, want)
	}
	queries := dataset.Synthetic(dataset.SynthConfig{N: 12, AvgEdges: 6, Labels: 5, Seed: 7})
	assertSameSearch(t, "caught-up follower of a compacted primary", fc, pc, queries)
	assertSameContent(t, "caught-up follower of a compacted primary", fc, pc)
	if _, ok := pc.Graph(ids[1]); ok {
		t.Fatalf("primary still resolves reclaimed id %d", ids[1])
	}
	if _, ok := fc.Graph(ids[1]); !ok {
		t.Fatalf("follower lost tombstoned id %d without compacting", ids[1])
	}

	// NextID converges too — voided ids burned identically on both
	// sides, so later assignments can never collide.
	if got, want := fc.Stats().NextID, pc.Stats().NextID; got != want {
		t.Fatalf("follower NextID %d, primary %d", got, want)
	}

	// Restart the follower: the mirrored log replays over the local
	// checkpoint and the applier resumes exactly where the mirror ends.
	// Reopen mapped explicitly: a restarted follower serves its
	// checkpointed base straight from the shipped segment files while the
	// mirrored log tail replays on top.
	ack := rep.AckSeq()
	fs.Close()
	fs2, err := OpenStore(fdir, StoreOptions{Memory: MemoryMap})
	if err != nil {
		t.Fatalf("reopen follower: %v", err)
	}
	defer fs2.Close()
	fc2, _ := fs2.Collection("c")
	rep2, err := fc2.Replica()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.AckSeq() != ack {
		t.Fatalf("restarted follower acks %d, want %d", rep2.AckSeq(), ack)
	}
	assertSameSearch(t, "restarted follower", fc2, pc, queries)

	// And it keeps following, through another primary-only compaction.
	if err := pc.Remove(3, ids[0]); err != nil {
		t.Fatal(err)
	}
	if n, err := pc.Compact(ctx); err != nil || n == 0 {
		t.Fatalf("primary Compact = (%d, %v)", n, err)
	}
	if _, err := pc.Add(ctx, queries[:3]...); err != nil {
		t.Fatal(err)
	}
	pump(t, pc, rep2)
	assertSameSearch(t, "follower after restart catch-up", fc2, pc, queries)
	assertSameContent(t, "follower after restart catch-up", fc2, pc)
}

// TestFollowerReconcilesAmendmentAcrossRestart exercises the one replica
// path normal streaming never takes: the follower dies having mirrored
// a TypeAdd but not the amendment that voids or trims it, restarts
// (crash-replay applies the batch in full), and then receives the
// amendment — which must walk the extra graphs back as tombstones.
func TestFollowerReconcilesAmendmentAcrossRestart(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func(sh int) error // primary per-shard failure injection
	}{
		{"partial", func(sh int) error {
			if sh == 0 {
				return errors.New("shard down")
			}
			return nil
		}},
		{"voided", func(sh int) error { return errors.New("all down") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(72))
			idx, _ := equivBuild(t, rng, 30)
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

			extra := dataset.Synthetic(dataset.SynthConfig{N: 6, AvgEdges: 9, Labels: 5, Seed: 3})
			pc.failShard = tc.fail
			if _, err := pc.Add(ctx, extra...); err == nil {
				t.Fatal("injected add failure did not fail")
			}
			pc.failShard = nil

			// Ship ONLY the add record, withholding its amendment — the
			// stream can do this mid-batch — then kill the follower with
			// the pair half-mirrored.
			st, err := pc.StreamWAL(rep.AckSeq())
			if err != nil {
				t.Fatal(err)
			}
			rec, ok, err := st.Next(pc.AppliedSeq())
			st.Close()
			if err != nil || !ok || rec.Type != wal.TypeAdd {
				t.Fatalf("first shipped record: %+v ok=%v err=%v", rec, ok, err)
			}
			if err := rep.Apply(ctx, []wal.Record{rec}); err != nil {
				t.Fatal(err)
			}
			fs.Close()

			fs2, err := OpenStore(fdir, StoreOptions{})
			if err != nil {
				t.Fatalf("reopen follower: %v", err)
			}
			defer fs2.Close()
			fc2, _ := fs2.Collection("c")
			rep2, err := fc2.Replica()
			if err != nil {
				t.Fatal(err)
			}
			// Crash-replay applied the unpaired batch in full; the
			// amendment now arrives and reconciles it.
			pump(t, pc, rep2)
			queries := dataset.Synthetic(dataset.SynthConfig{N: 10, AvgEdges: 6, Labels: 5, Seed: 8})
			assertSameSearch(t, "reconciled follower", fc2, pc, queries)
			if got, want := fc2.Stats().NextID, pc.Stats().NextID; got != want {
				t.Fatalf("follower NextID %d, primary %d", got, want)
			}
		})
	}
}

func TestFollowerPendingWaitsForSettle(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	idx, _ := equivBuild(t, rng, 30)
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
	fs, fc, rep, _ := bootstrapFollower(t, ps, "c")
	defer fs.Close()

	base := rep.AppliedSeq()
	extra := dataset.Synthetic(dataset.SynthConfig{N: 3, AvgEdges: 9, Labels: 5, Seed: 4})
	if _, err := pc.Add(ctx, extra...); err != nil {
		t.Fatal(err)
	}
	st, err := pc.StreamWAL(rep.AckSeq())
	if err != nil {
		t.Fatal(err)
	}
	rec, ok, err := st.Next(pc.AppliedSeq())
	st.Close()
	if err != nil || !ok {
		t.Fatalf("stream: ok=%v err=%v", ok, err)
	}
	if err := rep.Apply(ctx, []wal.Record{rec}); err != nil {
		t.Fatal(err)
	}
	// Mirrored (durable, ackable) but buffered against a possible
	// amendment: not yet applied.
	if rep.AckSeq() != rec.Seq {
		t.Fatalf("AckSeq %d after mirror, want %d", rep.AckSeq(), rec.Seq)
	}
	if rep.AppliedSeq() != base {
		t.Fatalf("AppliedSeq %d while pending, want %d", rep.AppliedSeq(), base)
	}
	if live := fc.Stats().Live; live != pc.Stats().Live-len(extra) {
		t.Fatalf("pending batch already visible: follower live %d", live)
	}
	if err := rep.Settle(ctx); err != nil {
		t.Fatal(err)
	}
	if rep.AppliedSeq() != rec.Seq {
		t.Fatalf("AppliedSeq %d after settle, want %d", rep.AppliedSeq(), rec.Seq)
	}
	queries := dataset.Synthetic(dataset.SynthConfig{N: 8, AvgEdges: 6, Labels: 5, Seed: 9})
	assertSameSearch(t, "settled follower", fc, pc, queries)
}

func TestPrimaryRetainsSegmentsForFollowers(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	idx, _ := equivBuild(t, rng, 30)
	ctx := context.Background()
	ps, err := CreateStore(t.TempDir(), StoreOptions{WAL: WALOptions{SegmentBytes: 1}})
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
	if followers, minAcked, ok := pc.WALRetention(); !ok || followers != 1 || minAcked != hold {
		t.Fatalf("retention reports %d/%d/%v", followers, minAcked, ok)
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
