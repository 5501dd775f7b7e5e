package graphdim

import (
	"context"
	"fmt"

	"repro/internal/wal"
)

// ReplicaApplier is the follower half of replication: it receives the
// records a primary streams (internal/repl's Tailer feeds it), mirrors
// them into the collection's own write-ahead log at their
// primary-assigned sequences, and lands them in shard state the way every
// writer does — Collection.check, the log write, then commit, with the
// mapping run beside the mirror — so a follower's state for any
// acknowledged prefix is bit-identical to a primary that recovered the
// same log.
//
// A batch is checked before it is mirrored, so the log never holds a
// record its replay would refuse, and mirrored before it is committed: a
// record is fsynced locally before it is applied, AckSeq (what the
// follower tells the primary it can truncate) is the mirrored tail, and
// a restart is just a normal OpenStore — the local checkpoint plus local
// log replay reconstruct exactly the mirrored prefix, wherever the kill
// landed. Nothing after the mirror can fail, so each batch lands as one
// and the applied watermark (AppliedSeq) reaches the mirrored tail when
// Apply returns. A follower that shuts down mid-batch waits for that
// batch's mapping, as a primary's Add does.
//
// Methods are not safe for concurrent use with each other — one tailer
// goroutine drives the applier — but coexist with searches, checkpoints
// and Compact exactly as a primary's writers do (they hold the
// collection writer lock while touching state).
type ReplicaApplier struct {
	c *Collection
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

// Apply checks recs, mirrors them into the local log and lands them in
// shard state as one batch. Records must continue the mirrored sequence
// exactly (the stream's resume-after-AckSeq contract). A context already
// done, a batch the check refuses and a failed mirror all leave the log
// and the shards as they were, so the tailer may retry; once the mirror
// returns, the batch lands in full whatever happens to ctx.
func (r *ReplicaApplier) Apply(ctx context.Context, recs []wal.Record) error {
	if len(recs) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c := r.c
	c.addMu.Lock()
	defer c.addMu.Unlock()
	b, err := c.check(recs)
	if err != nil {
		return err
	}
	mapped := c.mapBatch(b.graphs)
	err = c.wal.AppendMirror(recs)
	vecs := mapped()
	if err != nil {
		return fmt.Errorf("graphdim: mirroring wal records: %w", err)
	}
	c.commit(b, vecs)
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
