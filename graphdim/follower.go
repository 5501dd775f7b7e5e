package graphdim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/wal"
)

// ReplicaApplier is the follower half of replication: it receives the
// records a primary streams (internal/repl's Tailer feeds it), mirrors
// them into the collection's own write-ahead log at their
// primary-assigned sequences, and replays them into shard state through
// the very applier crash recovery runs (durable.go) — so a follower's
// state for any acknowledged prefix is bit-identical to a primary that
// recovered the same log.
//
// Mirroring comes first: a record is fsynced locally before it is
// applied, AckSeq (what the follower tells the primary it can truncate)
// is the mirrored tail, and a restart is just a normal OpenStore — the
// local checkpoint plus local log replay reconstruct exactly the
// mirrored prefix, wherever the kill landed.
//
// An add batch needs one piece of buffering: a TypeAdd record's outcome
// may be amended by the TypeApplied record directly after it (partial
// or voided batches), so a just-mirrored TypeAdd is held pending rather
// than applied. The primary only streams records whose outcome is
// settled, which guarantees that if an amendment exists it is already
// behind the add in the stream; a heartbeat (the stream caught up)
// therefore proves no amendment is coming, and Settle flushes the
// pending batch in full. The settled watermark (Collection.AppliedSeq)
// trails the mirrored log by exactly that pending batch.
//
// Methods are not safe for concurrent use with each other — one tailer
// goroutine drives the applier — but coexist with searches, checkpoints
// and Compact exactly as a primary's writers do (they hold the
// collection writer lock while touching state).
type ReplicaApplier struct {
	a      applier // its pending batch is mirrored, not yet applied
	broken error   // first apply failure; poisons the applier
}

// Replica returns the collection's replication applier. The collection
// must have a write-ahead log (a durable, WAL-enabled open).
func (c *Collection) Replica() (*ReplicaApplier, error) {
	if c.wal == nil {
		return nil, fmt.Errorf("graphdim: collection %q has no write-ahead log; a follower store must be opened durable", c.name)
	}
	return &ReplicaApplier{a: applier{c: c}}, nil
}

// Apply mirrors recs into the local log and replays them into shard
// state. Records must continue the mirrored sequence exactly (the
// stream's resume-after-AckSeq contract). After a replay failure the
// applier is poisoned: the mirrored log is ahead of shard state in a
// way only a restart (which replays the log from the checkpoint)
// reconciles, so every later call fails fast rather than applying
// records out of order.
func (r *ReplicaApplier) Apply(ctx context.Context, recs []wal.Record) error {
	if len(recs) == 0 {
		return nil
	}
	c := r.a.c
	c.addMu.Lock()
	defer c.addMu.Unlock()
	if r.broken != nil {
		return fmt.Errorf("graphdim: replica needs restart after earlier failure: %w", r.broken)
	}
	if err := c.wal.AppendMirror(recs); err != nil {
		// Nothing durable changed and nothing was applied: not poisoned,
		// the tailer may retry the same batch.
		return fmt.Errorf("graphdim: mirroring wal records: %w", err)
	}
	for _, rec := range recs {
		err := r.a.apply(ctx, rec)
		if errors.Is(err, errUnpairedAmendment) {
			// The add this amends was mirrored in a previous process life
			// and crash-replayed in full at startup; walk that back.
			if err = r.reconcileAmended(&rec); err == nil {
				c.applied.Store(rec.Seq)
			}
		}
		if err != nil {
			r.broken = err
			return err
		}
	}
	return nil
}

// Settle flushes the pending add batch, if any: called when the stream
// reports itself caught up, which proves no amendment for the batch is
// in flight.
func (r *ReplicaApplier) Settle(ctx context.Context) error {
	r.a.c.addMu.Lock()
	defer r.a.c.addMu.Unlock()
	if r.broken != nil {
		return fmt.Errorf("graphdim: replica needs restart after earlier failure: %w", r.broken)
	}
	if err := r.a.flush(ctx); err != nil {
		r.broken = err
		return err
	}
	return nil
}

// AckSeq is the durable resume position: the mirrored log's tail. Every
// sequence at or below it survives a follower restart, so it is what
// the follower acknowledges to the primary (releasing retention) and
// where a reconnect resumes.
func (r *ReplicaApplier) AckSeq() uint64 { return r.a.c.wal.LastSeq() }

// AppliedSeq is the collection's settled watermark — the follower's
// freshness position.
func (r *ReplicaApplier) AppliedSeq() uint64 { return r.a.c.applied.Load() }

// reconcileAmended settles an amendment whose add batch was already
// applied in full by startup crash-replay (the add was the mirrored
// log's unpaired tail when the follower last died). The subset in
// rec.IDs is what actually committed on the primary, so the complement
// of the batch is tombstoned. Search results converge exactly with the
// primary's; the one observable trace is addressability — Graph(id) on
// the complement reports "removed" here and "never existed" there,
// which the never-reassigned-ids invariant (failAdd) keeps harmless.
func (r *ReplicaApplier) reconcileAmended(rec *wal.Record) error {
	keep := make(map[int]bool, len(rec.IDs))
	for _, id := range rec.IDs {
		keep[id] = true
	}
	var bury []int
	for id := rec.First; id < rec.First+rec.Total; id++ {
		if !keep[id] {
			bury = append(bury, id)
		}
	}
	if len(bury) == 0 {
		return nil
	}
	if err := r.a.c.applyRemove(bury); err != nil {
		return fmt.Errorf("graphdim: reconciling amended batch at %d: %w", rec.First, err)
	}
	return nil
}
