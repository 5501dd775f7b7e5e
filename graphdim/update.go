package graphdim

import (
	"context"
	"fmt"

	"repro/internal/pool"
	"repro/internal/vecspace"
)

// Add maps new graphs into the existing dimension space and makes them
// searchable. This is the operation the DS-preserved mapping was designed
// to make cheap: placing an unseen graph costs p subgraph-isomorphism
// tests (the same VF2 pass queries pay), not a re-run of mining or DSPM.
// The returned slice holds the id assigned to each graph, aligned with
// gs.
//
// Add never blocks readers: it maps the new graphs, then publishes a new
// snapshot with one atomic swap, so concurrent Search calls keep scanning
// the snapshot they started on. Writers (Add/Remove) are serialized with
// each other. The dimension set stays fixed — as the added fraction
// grows, mapped-space accuracy can drift from what a fresh dimension
// selection would give; watch StaleRatio.
func (ix *Index) Add(gs ...*Graph) ([]int, error) {
	return ix.AddContext(context.Background(), gs...)
}

// AddContext is Add with cancellation: the per-graph VF2 mapping checks
// ctx, and a cancelled call returns (nil, ctx.Err()) without publishing
// anything — an Add is all-or-nothing.
func (ix *Index) AddContext(ctx context.Context, gs ...*Graph) ([]int, error) {
	for i, g := range gs {
		if g == nil {
			return nil, fmt.Errorf("graphdim: nil graph at index %d", i)
		}
	}
	if len(gs) == 0 {
		return nil, nil
	}

	ix.mu.Lock()
	defer ix.mu.Unlock()

	// Map outside any reader-visible state, under the writer lock so two
	// Adds cannot interleave id assignment.
	newVecs := make([]*vecspace.BitVector, len(gs))
	errs := make([]error, len(gs))
	if err := pool.ForContext(ctx, ix.workers, len(gs), func(i int) {
		newVecs[i], errs[i] = ix.mapper.MapContext(ctx, gs[i])
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	cur := ix.snap.Load()
	next := &snapshot{
		db:        append(append(make([]*Graph, 0, len(cur.db)+len(gs)), cur.db...), gs...),
		dead:      append(append(make([]bool, 0, len(cur.dead)+len(gs)), cur.dead...), make([]bool, len(gs))...),
		deadCount: cur.deadCount,
		seg:       cur.seg,
		// Block and posting maintenance is incremental: the new ids are the
		// highest yet, so appending fills the next lanes and keeps every
		// per-dimension list sorted. The linear snapshot chain both
		// Appends require is exactly what ix.mu enforces.
		block:    cur.block.Append(newVecs),
		post:     cur.post.Append(newVecs),
		baseN:    cur.baseN,
		baseDead: cur.baseDead,
	}
	// The label index is lazy: extend it only if a filtered query already
	// paid to build it; otherwise it stays nil and lazy.
	if l := cur.labels.Load(); l != nil {
		next.labels.Store(l.Append(gs))
	}
	ids := make([]int, len(gs))
	for i := range gs {
		ids[i] = len(cur.db) + i
	}
	ix.snap.Store(next)
	ix.gen.Add(1)
	return ids, nil
}

// Remove tombstones the given ids: the graphs stay addressable (Graph,
// historical results) but no engine returns them again. The call is
// all-or-nothing — an out-of-range or already-removed id fails the whole
// batch before anything is tombstoned. Like Add, Remove publishes a new
// snapshot atomically and never blocks readers; a Search already in
// flight may still return a just-removed id.
func (ix *Index) Remove(ids ...int) error {
	if len(ids) == 0 {
		return nil
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()

	cur := ix.snap.Load()
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if id < 0 || id >= len(cur.db) {
			return fmt.Errorf("graphdim: id %d out of range [0,%d)", id, len(cur.db))
		}
		if cur.dead[id] || seen[id] {
			return fmt.Errorf("graphdim: id %d already removed", id)
		}
		seen[id] = true
	}
	// db, the vector block and the posting lists are immutable and shared
	// with the previous snapshot; only the tombstone set is copied.
	// Removal is neither a block nor a posting event — tombstoned ids keep
	// their lanes and listings and every scan (pruned or flat) filters
	// them through the same alive predicate.
	next := &snapshot{
		db:        cur.db,
		dead:      append([]bool(nil), cur.dead...),
		deadCount: cur.deadCount + len(ids),
		seg:       cur.seg,
		block:     cur.block,
		post:      cur.post,
		baseN:     cur.baseN,
		baseDead:  cur.baseDead,
	}
	next.labels.Store(cur.labels.Load())
	for _, id := range ids {
		next.dead[id] = true
		if id < next.baseN {
			next.baseDead++
		}
	}
	ix.snap.Store(next)
	ix.gen.Add(1)
	return nil
}

// StaleRatio reports how far the index has drifted from its dimension
// selection, in [0, 1]: the fraction of id slots that are either live
// graphs the selection never saw (added after Build, or after the
// persisted build this index was loaded from, and not since removed) or
// build-time graphs that are gone (tombstoned). A fresh Build reports 0,
// as does an index whose post-build additions have all been removed
// again — the live database then is exactly the one the dimensions were
// optimized for. Accuracy degrades as the ratio grows; re-Build when it
// crosses an operator-chosen threshold (EXPERIMENTS.md uses 0.3 as a
// starting point) — nothing re-selects on its own, the ratio is the
// operator's signal. In a collection, Compact drops tombstoned slots, so
// after it the gone-build-graphs term is zero and a shard's ratio is its
// live unseen graphs over its live graphs.
func (ix *Index) StaleRatio() float64 {
	s := ix.snap.Load()
	if len(s.db) == 0 {
		return 0
	}
	addedAlive := (len(s.db) - s.baseN) - (s.deadCount - s.baseDead)
	return float64(addedAlive+s.baseDead) / float64(len(s.db))
}

// Removed returns the number of tombstoned ids.
func (ix *Index) Removed() int { return ix.snap.Load().deadCount }
