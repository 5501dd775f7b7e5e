package graphdim

import (
	"fmt"

	"repro/internal/wal"
)

// Replication accessors — the narrow surface a serving process needs to
// run a collection as a replication primary: stream the settled log
// tail, pin retention while followers catch up, and read the freshness
// coordinates every search response advertises. The follower half
// (mirroring and replaying a primary's stream) is in follower.go; the
// snapshot a follower bootstraps from is in snapshot.go.

// AppliedSeq returns the collection's settled watermark: the highest
// write-ahead-log sequence that is visible in shard state. Zero for
// collections without a log.
func (c *Collection) AppliedSeq() uint64 { return c.applied.Load() }

// Freshness returns the collection's read-consistency coordinates: the
// settled watermark and the per-shard generation vector. The watermark
// is the comparable half — it advances in the primary's total write
// order on every replica, so "replica at least as fresh as X" is
// exactly applied >= X. The generation vector rides along for
// observability; it is process-local (generations restart at zero on
// load and advance on a local Compact), so it is not comparable across
// processes.
func (c *Collection) Freshness() (applied uint64, gens []uint64) {
	return c.applied.Load(), c.generations()
}

// StreamWAL returns an incremental reader over the collection's
// write-ahead log positioned after seq — the feed behind a replication
// tail endpoint. Callers gate delivery at AppliedSeq (pass it as
// Next's upper bound) so no record ships before the primary shows it,
// and wait on WALCommits between polls. Errors on a collection without
// a log.
func (c *Collection) StreamWAL(after uint64) (*wal.Stream, error) {
	if c.wal == nil {
		return nil, fmt.Errorf("graphdim: collection %q has no write-ahead log to stream", c.name)
	}
	return c.wal.StreamFrom(after), nil
}

// WALCommits returns a channel closed after the next log commit — the
// long-poll primitive a streaming endpoint waits on when it has caught
// up. Nil (blocks forever) without a log.
func (c *Collection) WALCommits() <-chan struct{} {
	if c.wal == nil {
		return nil
	}
	return c.wal.Commits()
}

// WALRetain records that the named follower has acknowledged records
// through acked and pins every later record against checkpoint
// truncation: segments holding records a registered follower still
// needs are never deleted, though the checkpoint position itself keeps
// advancing. Acknowledgements never move backwards. Holds are in-memory
// only — a restarted primary forgets them, and a follower that then
// finds its position truncated re-bootstraps from a snapshot. No-op
// without a log.
func (c *Collection) WALRetain(follower string, acked uint64) {
	if c.wal != nil {
		c.wal.Retain(follower, acked)
	}
}

// WALUnretain drops the named follower's retention hold. No-op without
// a log.
func (c *Collection) WALUnretain(follower string) {
	if c.wal != nil {
		c.wal.Unretain(follower)
	}
}

// LastWALSeq returns the newest record's sequence in the collection's
// log (zero without one) — with AppliedSeq, the primary-side lag
// coordinates a replication endpoint reports.
func (c *Collection) LastWALSeq() uint64 {
	if c.wal == nil {
		return 0
	}
	return c.wal.LastSeq()
}
