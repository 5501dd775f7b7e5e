package graphdim

import (
	"fmt"

	"repro/internal/pool"
	"repro/internal/vecspace"
)

// Add maps new graphs into the existing dimension space and makes them
// searchable, returning the id assigned to each graph, aligned with gs.
// Placing an unseen graph costs at most p subgraph-isomorphism tests (the
// same VF2 pass queries pay, behind the same label-count precheck), not a
// re-run of mining or DSPM. The mapping runs lock-free across the build's
// workers; only the publish is serialized with other writers, and readers
// keep the snapshot they started on.
//
// Add and Search stay exported because the benchmark harness grows and
// queries a bare Index; applications serve through a Collection
// (Store.CreateFromIndex), whose Add, Remove and StaleRatios grow, shrink
// and watch each shard.
func (ix *Index) Add(gs ...*Graph) ([]int, error) {
	for i, g := range gs {
		if g == nil {
			return nil, fmt.Errorf("graphdim: nil graph at index %d", i)
		}
	}
	if len(gs) == 0 {
		return nil, nil
	}
	vecs := mapBatch(ix.mapper, gs, func(n int, fn func(int)) { pool.For(ix.workers, n, fn) })()
	first := ix.publish(shardBatch{graphs: gs}, vecs)
	ids := make([]int, len(gs))
	for i := range ids {
		ids[i] = first + i
	}
	return ids, nil
}

// mapBatch starts mapping gs onto m's dimensions, one graph per task of
// fan (the build's worker pool, or the store budget), and returns a wait
// that yields their vectors. The mapping depends only on the graph and
// the dimension set, so it takes no context and cannot fail: a writer
// starts it beside its log write and awaits it before commit, and a
// logged batch always has its vectors.
func mapBatch(m *vecspace.Mapper, gs []*Graph, fan func(n int, fn func(int))) func() []*vecspace.BitVector {
	vecs := make([]*vecspace.BitVector, len(gs))
	done := make(chan struct{})
	go func() {
		defer close(done)
		fan(len(gs), func(i int) { vecs[i] = m.Map(gs[i]) })
	}()
	return func() []*vecspace.BitVector {
		<-done
		return vecs
	}
}

// publish lands a shard's share of a checked batch (see Collection.check)
// as one snapshot and one generation, and returns the first lane its
// graphs take: its graphs, mapped to vecs, take the next lanes under their
// global ids (a stand-alone index's Add passes none, and each lane is its
// own id), then its removed ids are tombstoned — ids the batch checked are
// live, some perhaps just appended. A reclaim never drops a live id, so
// each still resolves under the writer lock. It is all a write does under
// the writer lock.
func (ix *Index) publish(sb shardBatch, vecs []*vecspace.BitVector) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	cur := ix.snap.Load()
	next := cur
	if len(sb.graphs) > 0 {
		next = next.appended(sb.graphs, vecs, sb.ids)
	}
	if len(sb.removed) > 0 {
		locals := make([]int, len(sb.removed))
		for i, g := range sb.removed {
			locals[i] = next.localOf(g)
		}
		next = next.tombstoned(locals)
	}
	ix.snap.Store(next)
	ix.gen.Add(1)
	return len(cur.db)
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
