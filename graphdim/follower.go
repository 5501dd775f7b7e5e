package graphdim

import (
	"context"
	"fmt"

	"repro/internal/wal"
)

// ReplicaApplier is the follower half of replication: it receives the
// records a primary streams (internal/repl's Tailer feeds it), mirrors
// them into the collection's own write-ahead log at their
// primary-assigned sequences, and replays them into shard state through
// the very applier crash recovery runs (Collection.check, then
// mapAndCommit) — so a follower's state for any acknowledged prefix is
// bit-identical to a primary that recovered the same log.
//
// A batch is checked before it is mirrored, so the log never holds a
// record its replay would refuse, and mirrored before it is applied: a
// record is fsynced locally before it is applied, AckSeq (what the
// follower tells the primary it can truncate) is the mirrored tail, and
// a restart is just a normal OpenStore — the local checkpoint plus local
// log replay reconstruct exactly the mirrored prefix, wherever the kill
// landed. Each batch applies as one,
// so the applied watermark (AppliedSeq) reaches the mirrored tail when
// Apply returns.
//
// Methods are not safe for concurrent use with each other — one tailer
// goroutine drives the applier — but coexist with searches, checkpoints
// and Compact exactly as a primary's writers do (they hold the
// collection writer lock while touching state).
type ReplicaApplier struct {
	c      *Collection
	broken error // first failure after a mirror; poisons the applier
}

// Replica returns the collection's replication applier. The collection
// must have a write-ahead log, which every durable open has: a durable
// store always logs.
func (c *Collection) Replica() (*ReplicaApplier, error) {
	if c.wal == nil {
		return nil, fmt.Errorf("graphdim: collection %q has no write-ahead log; a follower store must be opened durable", c.name)
	}
	return &ReplicaApplier{c: c}, nil
}

// Apply checks recs, mirrors them into the local log and replays them
// into shard state as one batch. Records must continue the mirrored
// sequence exactly (the stream's resume-after-AckSeq contract). A batch
// the check refuses reaches neither the log nor the shards, so the
// applier stays usable: the tailer may retry, and a restart replays only
// what was mirrored before it. A batch that fails after its mirror (a
// cancelled mapping) poisons the applier: the mirrored log is ahead of
// shard state in a way only a restart (which replays the log from the
// checkpoint) reconciles, so every later call fails fast rather than
// applying records out of order.
func (r *ReplicaApplier) Apply(ctx context.Context, recs []wal.Record) error {
	if len(recs) == 0 {
		return nil
	}
	c := r.c
	c.addMu.Lock()
	defer c.addMu.Unlock()
	if r.broken != nil {
		return fmt.Errorf("graphdim: replica needs restart after earlier failure: %w", r.broken)
	}
	b, err := c.check(recs)
	if err != nil {
		return err
	}
	if err := c.wal.AppendMirror(recs); err != nil {
		// Nothing durable changed and nothing was applied: not poisoned,
		// the tailer may retry the same batch.
		return fmt.Errorf("graphdim: mirroring wal records: %w", err)
	}
	if err := c.mapAndCommit(ctx, b); err != nil {
		r.broken = err
		return err
	}
	return nil
}

// AckSeq is the durable resume position: the mirrored log's tail. Every
// sequence at or below it survives a follower restart, so it is what
// the follower acknowledges to the primary (releasing retention) and
// where a reconnect resumes.
func (r *ReplicaApplier) AckSeq() uint64 { return r.c.wal.LastSeq() }

// AppliedSeq is the collection's applied watermark — the follower's
// freshness position.
func (r *ReplicaApplier) AppliedSeq() uint64 { return r.c.applied.Load() }
