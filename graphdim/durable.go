package graphdim

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/wal"
)

// Durability. A store opened against a data directory (OpenStore,
// CreateStore, OpenOrCreateStore) is durable: every committed
// Collection.Add and Remove appends a record to a per-collection
// write-ahead log (internal/wal) — fsynced before the shard state
// publishes, so the write is on disk before any caller or reader can
// observe it — and Checkpoint persists a full snapshot (the Save format)
// plus the log position it covers, truncating replayed segments. Opening
// the directory again loads the last checkpoint and replays the log
// tail, so a process kill at any instant — SIGKILL included — recovers
// exactly the committed writes.
//
// What is logged is deliberately minimal: the graphs and ids of add
// batches and the ids of remove batches. Everything derivable from those
// — binary vectors (the VF2 mapping is deterministic), posting lists,
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
// enforcement), so a kill -9 never strands it. Read-only opens
// (WALOptions.Disabled) skip the lock: they may inspect a directory a
// live server owns.
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
	// Disabled opens the store without a log: online writes are volatile
	// until the next Save or Checkpoint, as with NewStore.
	Disabled bool
	// SegmentBytes caps one log segment file before the log rolls to a
	// fresh one; zero means the wal default (64 MiB).
	SegmentBytes int64
	// NoSync skips the per-commit fsync: writes survive a clean shutdown
	// but a kill can lose the OS write-back window. For tests and
	// benchmarks.
	NoSync bool
	// SyncObserver, when non-nil, is called after every completed log
	// fsync with its duration and the number of records the group commit
	// covered — the hook a server uses to feed latency histograms. It
	// runs with the log locked and must be fast and non-blocking.
	SyncObserver func(d time.Duration, records int)

	// failSync injects fsync failures into every collection's log — a
	// hook for crash-recovery property tests in this package, deliberately
	// unexported so the serving surface cannot reach it.
	failSync func() error
}

func (o WALOptions) options() wal.Options {
	return wal.Options{
		SegmentBytes: o.SegmentBytes,
		NoSync:       o.NoSync,
		SyncObserver: o.SyncObserver,
		FailSync:     o.failSync,
	}
}

// WALStats reports a collection's write-ahead log counters (see
// CollectionStats.WAL): appends and the fsyncs that committed them, the
// newest and the checkpointed sequence — the gap between them is the tail
// a crash would replay — and the on-disk footprint.
type WALStats = wal.Stats

// PartialAddError reports a Collection.Add that landed on some shards
// but failed on others: the graphs whose global ids are in Applied are
// committed and searchable (and, on a durable store, logged as such),
// the rest of the batch is not, and the batch's ids are burned either
// way. Callers that need all-or-nothing semantics should treat the
// applied ids as an incomplete write and Remove them.
type PartialAddError struct {
	// Applied holds the global ids that committed, ascending.
	Applied []int
	// Total is the size of the attempted batch.
	Total int
	// Err is the first underlying per-shard failure.
	Err error
}

func (e *PartialAddError) Error() string {
	// The message stays bounded for huge batches; the full id list is in
	// Applied for callers that need it.
	ids := "none"
	if n := len(e.Applied); n > 0 && n <= 8 {
		ids = fmt.Sprint(e.Applied)
	} else if n > 8 {
		ids = fmt.Sprintf("[%d ... %d]", e.Applied[0], e.Applied[n-1])
	}
	return fmt.Sprintf("graphdim: add applied %d of %d graphs (ids %s) before failing: %v",
		len(e.Applied), e.Total, ids, e.Err)
}

func (e *PartialAddError) Unwrap() error { return e.Err }

// Dir returns the data directory this store is attached to, or "" for a
// purely in-memory store (NewStore, never durable).
func (s *Store) Dir() string { return s.dir }

// CreateStore initializes an empty durable store at dir: the directory
// is created, an empty manifest written, and every collection created
// afterwards persists immediately and logs its writes. It fails if dir
// already holds a store.
func CreateStore(dir string, opt StoreOptions) (*Store, error) {
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("graphdim: create store: %s already holds a store", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("graphdim: create store: %w", err)
	}
	s := NewStore(opt)
	s.dir = dir
	if !opt.WAL.Disabled {
		lock, err := lockDataDir(dir)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.lock = lock
	}
	if err := s.saveTo(dir, false, nil); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// OpenOrCreateStore opens the store at dir, or initializes an empty one
// if the directory holds no manifest — the open-or-create entry point a
// serving process wants at startup. Only a missing manifest triggers the
// create branch: a manifest that opens with errors (a missing shard
// file, say) is a broken store and reports as exactly that.
func OpenOrCreateStore(dir string, opt StoreOptions) (*Store, error) {
	if _, err := os.Stat(filepath.Join(dir, manifestName)); errors.Is(err, fs.ErrNotExist) {
		return CreateStore(dir, opt)
	}
	return OpenStore(dir, opt)
}

// Checkpoint persists the whole store to its data directory — exactly a
// Save — records per collection the log position the snapshot covers,
// and truncates every fully replayed log segment. After a checkpoint a
// reopen replays only the records committed since. It fails on a store
// without a data directory.
//
// Checkpoints, Saves, and Compact may all run while the store serves
// reads and writes; checkpoints of one store serialize with
// each other and with Save.
func (s *Store) Checkpoint() error {
	if s.dir == "" {
		return fmt.Errorf("graphdim: store has no data directory (open it with OpenStore, CreateStore or OpenOrCreateStore)")
	}
	return s.saveTo(s.dir, true, nil)
}

// Checkpoints returns how many checkpoints this store has completed
// since it was opened.
func (s *Store) Checkpoints() int64 { return s.checkpoints.Load() }

// attachWAL opens (or creates) the collection's log under the store's
// data directory. No-op on a non-durable store or when the WAL is
// disabled.
func (s *Store) attachWAL(c *Collection) error {
	if s.dir == "" || s.walOpt.Disabled {
		return nil
	}
	o := s.walOpt.options()
	// A fresh log continues the checkpoint's numbering rather than
	// restarting at 1: a follower bootstrapped from a primary snapshot
	// has a manifest position deep in the primary's sequence space and
	// an empty local log, and the records it mirrors must land at their
	// primary-assigned sequences. No-op when segments already exist, and
	// for ordinary primaries walBase is 0 on the paths that create logs.
	o.FirstSeq = c.walBase + 1
	l, err := wal.Open(filepath.Join(s.dir, c.name, walDirName), o)
	if err != nil {
		return fmt.Errorf("graphdim: collection %q: %w", c.name, err)
	}
	c.wal = l
	return nil
}

// verifyNoWALTail guards a WAL-disabled open of a durable directory: if
// the collection's log holds acknowledged records beyond the checkpoint
// at seq, opening without replay would silently drop them (and a later
// WAL-enabled open would replay them over a diverged image), so the open
// is refused instead.
func (s *Store) verifyNoWALTail(name string, seq uint64) error {
	// Read-only peek: a disabled open must not truncate torn tails or
	// otherwise write — it may be inspecting a directory another
	// process's live log owns, or a read-only mount.
	last, err := wal.LastSeqIn(filepath.Join(s.dir, name, walDirName))
	if err != nil {
		return fmt.Errorf("graphdim: collection %q: %w", name, err)
	}
	if last > seq {
		return fmt.Errorf("graphdim: collection %q has %d unreplayed wal records beyond the checkpoint; open without WALOptions.Disabled to recover them", name, last-seq)
	}
	return nil
}

// replayWAL applies the log tail after seq onto the collection's
// just-loaded checkpoint state, through the applier a follower also
// drives. Replay is deterministic — the VF2 mapping depends only on the
// graph and the dimension set — so the recovered state is bit-identical
// to the pre-crash committed state.
func (c *Collection) replayWAL(seq uint64) error {
	ctx := context.Background()
	a := applier{c: c}
	if err := c.wal.Replay(seq, func(rec wal.Record) error { return a.apply(ctx, rec) }); err != nil {
		return err
	}
	// A trailing unamended add replays in full, matching crash semantics.
	if err := a.flush(ctx); err != nil {
		return err
	}
	// Everything in the log is now reflected in shard state, so the
	// settled watermark is the log tail.
	c.applied.Store(c.wal.LastSeq())
	return nil
}

// applier is the one state machine that turns log records into shard
// state — for crash replay and for a follower's stream alike. An add
// batch needs one piece of buffering: a TypeAdd record's outcome may be
// amended by the TypeApplied record directly after it (a partial or
// voided batch), so a TypeAdd is held pending until the next record, or
// the caller's flush, shows no amendment is coming. Every record it
// settles advances the collection's applied watermark.
type applier struct {
	c       *Collection
	pending *wal.Record // add batch awaiting a possible amendment
}

// errUnpairedAmendment is apply's refusal of a TypeApplied record with no
// add batch pending. On crash replay that is log corruption; a follower
// that crash-replayed the add in a previous life reconciles instead (see
// ReplicaApplier.reconcileAmended).
var errUnpairedAmendment = errors.New("amends no matching add batch")

// apply advances the state machine by one record.
func (a *applier) apply(ctx context.Context, rec wal.Record) error {
	c := a.c
	switch rec.Type {
	case wal.TypeAdd:
		if err := a.flush(ctx); err != nil {
			return err
		}
		a.pending = &rec // rec is this call's own copy
		return nil
	case wal.TypeApplied:
		add := a.pending
		if add == nil {
			return fmt.Errorf("graphdim: wal record %d %w", rec.Seq, errUnpairedAmendment)
		}
		if add.First != rec.First || len(add.Graphs) != rec.Total {
			return fmt.Errorf("graphdim: wal record %d amends batch at %d/%d, pending is %d/%d",
				rec.Seq, rec.First, rec.Total, add.First, len(add.Graphs))
		}
		for _, id := range rec.IDs {
			if id < add.First || id >= add.First+rec.Total {
				return fmt.Errorf("graphdim: wal applied id %d outside batch [%d,%d)", id, add.First, add.First+rec.Total)
			}
		}
		a.pending = nil
		// An empty id list voids the batch: no graph lands, and its ids
		// burn all the same — replay must reproduce failAdd's rule.
		if len(rec.IDs) > 0 {
			if err := a.land(ctx, add, rec.IDs); err != nil {
				return err
			}
		}
		c.burn(add.First, len(add.Graphs))
	case wal.TypeRemove:
		if err := a.flush(ctx); err != nil {
			return err
		}
		if err := c.applyRemove(rec.IDs); err != nil {
			return fmt.Errorf("graphdim: replaying wal record %d: %w", rec.Seq, err)
		}
	default:
		return fmt.Errorf("graphdim: wal record %d has unknown type %d", rec.Seq, rec.Type)
	}
	c.applied.Store(rec.Seq)
	return nil
}

// flush lands the pending add batch in full: nothing amended it.
func (a *applier) flush(ctx context.Context) error {
	add := a.pending
	if add == nil {
		return nil
	}
	a.pending = nil
	if err := a.land(ctx, add, nil); err != nil {
		return err
	}
	a.c.burn(add.First, len(add.Graphs))
	a.c.applied.Store(add.Seq)
	return nil
}

// land applies a logged add batch — all of it, or the subset only. A
// replayed batch must land completely: a share that fails leaves shard
// state behind the log, which only a restart reconciles.
func (a *applier) land(ctx context.Context, add *wal.Record, only []int) error {
	if _, err := a.c.applyAdd(ctx, add.First, add.Graphs, only); err != nil {
		return fmt.Errorf("graphdim: replaying add batch at id %d: %w", add.First, err)
	}
	return nil
}
