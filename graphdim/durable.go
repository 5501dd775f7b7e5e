package graphdim

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/vecspace"
	"repro/internal/wal"
)

// Durability. A store opened against a data directory (OpenStore,
// CreateStore, OpenOrCreateStore) is durable: every committed
// Collection.Add and Remove appends a record to a per-collection
// write-ahead log (internal/wal) — fsynced before the shard state
// publishes, so the write is on disk before any caller or reader can
// observe it — and Checkpoint persists a full snapshot (manifest.go)
// plus the log position it covers, truncating replayed segments. Opening
// the directory again loads the last checkpoint and replays the log
// tail, so a process kill at any instant — SIGKILL included — recovers
// exactly the committed writes.
//
// What is logged is deliberately minimal: the graphs and ids of add
// batches and the ids of remove batches. Everything derivable from those
// — binary vectors (the VF2 mapping is deterministic), label lists,
// the query cache, shard generation counters — is rebuilt during replay
// rather than logged, which keeps the log small and the update path
// decoupled from the read-side accelerators. Compact likewise never
// touches the log: reclaiming tombstoned slots changes no logical content
// and no ranking (records address graphs by global id, and every live
// graph keeps its id and its vector), so a store that lost a reclaim to a
// crash answers exactly like one that kept it.

// walDirName is the per-collection log directory under the collection's
// directory in the store's data dir.
const walDirName = "wal"

// lockFileName is the advisory single-owner lock at the root of a data
// directory.
const lockFileName = "LOCK"

// lockDataDir takes an exclusive advisory lock on <dir>/LOCK — two
// processes owning the same data directory would each truncate and
// append the other's live log segments, exactly the acknowledged-write
// loss the WAL exists to prevent. The lock dies with the process (flock
// semantics; see flock_unix.go — non-unix platforms degrade to no
// enforcement), so a kill -9 never strands it. Every open of a data
// directory takes it — CreateStore, OpenStore and OpenOrCreateStore
// alike — so a directory has one owner, and a live store is queried
// through the process that owns it.
func lockDataDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockFileName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("graphdim: locking data directory: %w", err)
	}
	if err := flockExclusive(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("graphdim: data directory %s is in use by another process (flock: %v)", dir, err)
	}
	return f, nil
}

// WALOptions configures the write-ahead log of a durable store (see
// StoreOptions.WAL).
type WALOptions struct {
	// SyncObserver, when non-nil, is called after every completed log
	// fsync with its duration and the records it committed (1 per Add or
	// Remove, the mirrored batch on a follower) — the hook a server uses
	// to feed histograms. It runs with the log locked and must not block.
	SyncObserver func(d time.Duration, records int)

	// The rest are hooks for this package's tests, unexported so the
	// serving surface cannot reach them. segmentBytes caps one log segment
	// file before the log rolls to a fresh one (zero means the wal
	// default, 64 MiB); noSync skips the per-commit fsync; failSync
	// injects fsync failures into every collection's log.
	segmentBytes int64
	noSync       bool
	failSync     func() error
}

func (o WALOptions) options() wal.Options {
	return wal.Options{
		SegmentBytes: o.segmentBytes,
		NoSync:       o.noSync,
		SyncObserver: o.SyncObserver,
		FailSync:     o.failSync,
	}
}

// WALStats reports a collection's write-ahead log counters (see
// CollectionStats.WAL): appends and the fsyncs that committed them, the
// newest and the checkpointed sequence — the gap between them is the tail
// a crash would replay — and the on-disk footprint.
type WALStats = wal.Stats

// Dir returns the data directory this store is attached to, or "" for a
// purely in-memory store (NewStore, never durable).
func (s *Store) Dir() string { return s.dir }

// CreateStore initializes an empty durable store at dir: the directory
// is created, an empty manifest written, and every collection created
// afterwards persists immediately and logs its writes. It fails if dir
// already holds a store.
func CreateStore(dir string, opt StoreOptions) (*Store, error) {
	if err := opt.checkMemory(); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("graphdim: create store: %s already holds a store", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("graphdim: create store: %w", err)
	}
	s := NewStore(opt)
	s.dir = dir
	lock, err := lockDataDir(dir)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.lock = lock
	if err := s.checkpoint(nil); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// OpenOrCreateStore opens the store at dir, or initializes an empty one
// if the directory holds no manifest — the open-or-create entry point a
// serving process wants at startup. Only a missing manifest triggers the
// create branch: a manifest that opens with errors (a missing shard
// file, say) is a damaged store and reports as exactly that.
func OpenOrCreateStore(dir string, opt StoreOptions) (*Store, error) {
	if _, err := os.Stat(filepath.Join(dir, manifestName)); errors.Is(err, fs.ErrNotExist) {
		return CreateStore(dir, opt)
	}
	return OpenStore(dir, opt)
}

// Checkpoint persists the whole store to its data directory, records per
// collection the log position the snapshot covers, and truncates every
// fully replayed log segment; a reopen then replays only the records
// committed since. It fails on a store without a data directory. It may
// run while the store serves reads and writes: writers pause only while
// the shards' snapshots are pinned, and a multi-shard Add is either fully
// in the image or fully absent. Checkpoints of one Store serialize;
// checkpointing one directory from two Store values is not supported.
func (s *Store) Checkpoint() error {
	if s.dir == "" {
		return fmt.Errorf("graphdim: store has no data directory (open it with OpenStore, CreateStore or OpenOrCreateStore)")
	}
	return s.checkpoint(nil)
}

// Checkpoints returns how many checkpoints this store has completed
// since it was opened.
func (s *Store) Checkpoints() int64 { return s.checkpoints.Load() }

// attachWAL opens (or creates) the collection's log under the store's
// data directory, given the log position its checkpoint covers (0 for a
// collection created in this process). No-op on a non-durable store.
func (s *Store) attachWAL(c *Collection, checkpointed uint64) error {
	if s.dir == "" {
		return nil
	}
	o := s.walOpt.options()
	// A fresh log continues the checkpoint's numbering rather than
	// restarting at 1: a follower bootstrapped from a primary snapshot
	// has a manifest position deep in the primary's sequence space and
	// an empty local log, and the records it mirrors must land at their
	// primary-assigned sequences. No-op when segments already exist.
	o.FirstSeq = checkpointed + 1
	l, err := wal.Open(filepath.Join(s.dir, c.name, walDirName), o)
	if err != nil {
		return fmt.Errorf("graphdim: collection %q: %w", c.name, err)
	}
	c.wal = l
	return nil
}

// replayWAL applies the log tail after seq onto the collection's
// just-loaded checkpoint state as one batch, landed the way every write
// lands (apply: check, the mapping, commit). Replay is deterministic —
// the VF2 mapping depends only on the graph and the dimension set — so
// the recovered state is bit-identical to the pre-crash committed state.
func (c *Collection) replayWAL(seq uint64) error {
	var recs []wal.Record
	if err := c.wal.Replay(seq, func(rec wal.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		return err
	}
	if err := c.apply(context.Background(), recs...); err != nil {
		return err
	}
	// Everything in the log is now reflected in shard state, so the
	// applied watermark is the log tail.
	c.applied.Store(c.wal.LastSeq())
	return nil
}

// shardBatch is one shard's share of a batch of logged records: the graphs
// it gains, with their global ids, and the global ids it tombstones.
type shardBatch struct {
	graphs  []*Graph
	ids     []int
	removed []int
}

// apply lands logged records in shard state as one batch — crash
// replay's entry to the one way every write lands — and advances the
// applied watermark to the last of them: check, then the mapping, then
// commit. An invalid log is refused by the record at fault and no shard
// publishes any of it; a context already done refuses the batch before
// its check, as it does Add's and a follower's. Nothing after the check
// can fail.
func (c *Collection) apply(ctx context.Context, recs ...wal.Record) error {
	if len(recs) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	b, err := c.check(recs)
	if err != nil {
		return err
	}
	c.commit(b, c.mapBatch(b.graphs)())
	return nil
}

// logBatch is a checked batch of records: each shard's share, the graphs
// its adds assign the ids [first, next) in id order, and the sequence of
// its last record (0 for a live write not yet logged).
type logBatch struct {
	plan        []shardBatch
	graphs      []*Graph
	first, next int64
	seq         uint64
}

// check plans recs (non-empty) as one batch without mapping a graph or
// touching any state: an add must start at the next id, and a remove must
// name ids assigned before its own record and not removed since, each
// record checked in log order. The caller holds addMu, so the plan stays
// valid until commit.
func (c *Collection) check(recs []wal.Record) (logBatch, error) {
	snaps := make([]*snapshot, len(c.shards))
	for i, sh := range c.shards {
		snaps[i] = sh.snap.Load()
	}
	b := logBatch{plan: make([]shardBatch, len(c.shards)), first: c.nextID.Load(), seq: recs[len(recs)-1].Seq}
	b.next = b.first
	removed := make(map[int]bool)
	for _, rec := range recs {
		switch rec.Type {
		case wal.TypeAdd:
			if int64(rec.First) != b.next {
				return logBatch{}, fmt.Errorf("graphdim: replaying wal record %d: add at id %d, the next id is %d", rec.Seq, rec.First, b.next)
			}
			for i, g := range rec.Graphs {
				id := rec.First + i
				sb := &b.plan[placeID(id, len(c.shards))]
				sb.graphs, sb.ids = append(sb.graphs, g), append(sb.ids, id)
			}
			b.graphs = append(b.graphs, rec.Graphs...)
			b.next += int64(len(rec.Graphs))
		case wal.TypeRemove:
			for _, id := range rec.IDs {
				sh := placeID(id, len(c.shards))
				local := snaps[sh].localOf(id)
				switch {
				case local < 0 && (int64(id) < b.first || int64(id) >= b.next):
					return logBatch{}, refusal(rec.Seq, sh, id, "not in store")
				case removed[id] || local >= 0 && snaps[sh].isDead(local):
					return logBatch{}, refusal(rec.Seq, sh, id, "already removed")
				}
				removed[id] = true
				b.plan[sh].removed = append(b.plan[sh].removed, id)
			}
		default:
			return logBatch{}, fmt.Errorf("graphdim: wal record %d has unknown type %d", rec.Seq, rec.Type)
		}
	}
	return b, nil
}

// refusal is check's error for a remove of id on shard sh: a logged
// record names its sequence and the shard, a live write's record — no log
// holds it yet, so its sequence is 0 — the id and the reason alone.
func refusal(seq uint64, sh, id int, reason string) error {
	if seq == 0 {
		return fmt.Errorf("graphdim: id %d %s", id, reason)
	}
	return fmt.Errorf("graphdim: replaying wal record %d: remove on shard %d: id %d %s", seq, sh, id, reason)
}

// commit lands a checked batch whose added graphs are mapped to vecs, in
// id order: each shard publishes once — its new lanes, then its
// tombstones — and the next id and the applied watermark advance. No VF2
// runs here and nothing can fail.
func (c *Collection) commit(b logBatch, vecs []*vecspace.BitVector) {
	for i, sb := range b.plan {
		if len(sb.ids)+len(sb.removed) == 0 {
			continue
		}
		share := make([]*vecspace.BitVector, len(sb.ids))
		for j, id := range sb.ids {
			share[j] = vecs[int64(id)-b.first]
		}
		c.shards[i].publish(sb, share)
	}
	c.nextID.Store(b.next)
	c.applied.Store(b.seq)
}
