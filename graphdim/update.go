package graphdim

import (
	"context"
	"fmt"

	"repro/internal/pool"
	"repro/internal/vecspace"
)

// Add maps new graphs into the existing dimension space and makes them
// searchable. This is the operation the DS-preserved mapping was designed
// to make cheap: placing an unseen graph costs at most p
// subgraph-isomorphism tests (the same VF2 pass queries pay, behind the
// same label-count precheck), not a re-run of mining or DSPM.
// The returned slice holds the id assigned to each graph, aligned with
// gs.
//
// Add never blocks readers, and it maps before it takes the writer lock:
// the VF2 mapping runs first, lock-free, and only the publish — a new
// snapshot whose graph, tombstone and id columns grow in amortized
// O(batch), swapped in atomically — is serialized with other writers
// (Add/Remove). Concurrent Search calls keep scanning the snapshot they
// started on, and concurrent Adds map in parallel. The dimension set
// stays fixed — as the added fraction grows, mapped-space accuracy can
// drift from what a fresh dimension selection would give; watch
// StaleRatio.
func (ix *Index) Add(gs ...*Graph) ([]int, error) {
	return ix.AddContext(context.Background(), gs...)
}

// AddContext is Add with cancellation: the per-graph VF2 mapping checks
// ctx, and a cancelled call returns (nil, ctx.Err()) without publishing
// anything — an Add is all-or-nothing. Once the mapping is done the
// publish no longer checks ctx.
func (ix *Index) AddContext(ctx context.Context, gs ...*Graph) ([]int, error) {
	for i, g := range gs {
		if g == nil {
			return nil, fmt.Errorf("graphdim: nil graph at index %d", i)
		}
	}
	if len(gs) == 0 {
		return nil, nil
	}
	vecs, err := mapBatch(ctx, ix.mapper, gs, func(ctx context.Context, n int, fn func(int)) error {
		return pool.ForContext(ctx, ix.workers, n, fn)
	})
	if err != nil {
		return nil, err
	}
	first := ix.add(gs, vecs, nil)
	ids := make([]int, len(gs))
	for i := range ids {
		ids[i] = first + i
	}
	return ids, nil
}

// mapBatch maps gs onto m's dimensions, one graph per task of fan (a
// worker pool, or the store budget), all-or-nothing: a cancelled ctx fails
// the whole batch.
func mapBatch(ctx context.Context, m *vecspace.Mapper, gs []*Graph, fan func(context.Context, int, func(int)) error) ([]*vecspace.BitVector, error) {
	vecs := make([]*vecspace.BitVector, len(gs))
	errs := make([]error, len(gs))
	if err := fan(ctx, len(gs), func(i int) {
		vecs[i], errs[i] = m.MapContext(ctx, gs[i])
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return vecs, nil
}

// add publishes gs, already mapped to vecs, as the next ids — with their
// collection-global ids when ix is a shard, under globals == nil when it
// stands alone — and returns the first id assigned. It is all a write
// does under the writer lock: snapshot.appended, then the swap.
func (ix *Index) add(gs []*Graph, vecs []*vecspace.BitVector, globals []int) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	cur := ix.snap.Load()
	ix.snap.Store(cur.appended(gs, vecs, globals))
	ix.gen.Add(1)
	return len(cur.db)
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
	return ix.removeLocked(ix.snap.Load(), ids)
}

// removeGlobal is Remove by collection-global id — a shard's half of
// Collection.Remove. The translation happens under the writer lock, so no
// reclaim can renumber the shard between the lookup and the publish.
func (ix *Index) removeGlobal(globals []int) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	cur := ix.snap.Load()
	ids := make([]int, len(globals))
	for i, g := range globals {
		if ids[i] = cur.localOf(g); ids[i] < 0 {
			return fmt.Errorf("graphdim: id %d not in store", g)
		}
	}
	return ix.removeLocked(cur, ids)
}

// removeLocked validates ids against cur, the current snapshot, and
// publishes cur.tombstoned(ids); ix.mu is held.
func (ix *Index) removeLocked(cur *snapshot, ids []int) error {
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if id < 0 || id >= len(cur.db) {
			return fmt.Errorf("graphdim: id %d out of range [0,%d)", id, len(cur.db))
		}
		if cur.isDead(id) || seen[id] {
			return fmt.Errorf("graphdim: id %d already removed", id)
		}
		seen[id] = true
	}
	ix.snap.Store(cur.tombstoned(ids))
	ix.gen.Add(1)
	return nil
}

// reclaim drops the tombstoned slots — Collection.Compact's per-shard
// step. It reports whether there was anything to reclaim; on error (a
// mapped graph payload that no longer decodes) the index is left exactly
// as it was. The repack runs under the writer lock (it is a copy, not a
// build), so no write can land between the copy and the publish; readers
// never wait — they keep the snapshot they loaded. Every publish moves
// the generation; the cache fence makes no exception for one that
// happens to preserve rankings.
func (ix *Index) reclaim() (bool, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	cur := ix.snap.Load()
	if cur.deadCount == 0 {
		return false, nil
	}
	next, err := cur.repacked()
	if err != nil {
		return false, err
	}
	ix.snap.Store(next)
	ix.gen.Add(1)
	ix.compactions.Add(1)
	return true, nil
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
