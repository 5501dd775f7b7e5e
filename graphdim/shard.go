package graphdim

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/vecspace"
)

// A collection splits its database across shards by hashing global ids, so
// every shard holds a near-uniform slice of the graphs and Add, Search and
// persistence parallelize per shard. Each shard wraps its own *Index over
// local ids [0, n) plus the strictly ascending table translating local ids
// back to collection-global ids. Every shard of a collection holds the
// collection's one dimension set, for life: nothing builds dimensions for
// a single shard.
//
// Readers are lock-free: they load one shardState and work entirely off
// it. Writers (Add, Remove, the reclaim swap) serialize on shard.mu and
// publish new state atomically, so a Search keeps serving the generation
// it started on even while a reclaim replaces the index underneath.

// placeID maps a global id to its shard. The hash is SplitMix64 — cheap,
// well-mixed, and fixed forever for a given manifest version: the
// placement of every persisted id must survive reload.
func placeID(id, shards int) int {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// shardState is one immutable generation of a shard: the index and the
// local→global id table. globals is strictly ascending — ids are placed
// and appended in increasing global order, and a reclaim preserves the
// order — which keeps per-shard tie-breaking (ascending local id)
// consistent with the collection-level tie-break (ascending global id).
type shardState struct {
	idx *Index
	// globals[local] is the collection-global id of the shard-local id.
	// It may momentarily run longer than the index (an Add publishes the
	// extended table before mapping lands, and rolls back on error);
	// translation is always guarded by the index's own extent.
	globals []int
}

// localOf returns the local id of global id g, or -1.
func (st *shardState) localOf(g int) int {
	i := sort.SearchInts(st.globals, g)
	if i < len(st.globals) && st.globals[i] == g && i < st.idx.TotalGraphs() {
		return i
	}
	return -1
}

type shard struct {
	mu    sync.Mutex // serializes writers: add, remove, the reclaim swap
	state atomic.Pointer[shardState]

	// gen is the shard's generation: a monotonic counter bumped after
	// every committed mutation (add, remove) and every reclaim swap —
	// always after the new state publishes and before the operation
	// returns. That ordering is the query cache's fence: once a write
	// returns to its caller, every later generation read observes the
	// bump, so a cached result keyed on the old generation vector can
	// never be served after the write is committed. (In the window
	// between publish and bump a concurrent reader may still hit the old
	// key — indistinguishable from a search that raced the write, hence
	// linearizable.)
	gen atomic.Uint64

	compactions atomic.Int64 // completed reclaims
}

// generation reads the shard's mutation counter.
func (sh *shard) generation() uint64 { return sh.gen.Load() }

func newShard(st *shardState) *shard {
	sh := &shard{}
	sh.state.Store(st)
	return sh
}

// add appends graphs with the given (ascending) global ids. The extended
// id table is published before the mapping runs so a racing reader can
// never observe an index entry its table does not cover; on error the
// table rolls back under the writer lock.
func (sh *shard) add(ctx context.Context, gs []*Graph, globals []int) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.state.Load()
	next := &shardState{
		idx:     cur.idx,
		globals: append(append(make([]int, 0, len(cur.globals)+len(globals)), cur.globals...), globals...),
	}
	sh.state.Store(next)
	if _, err := cur.idx.AddContext(ctx, gs...); err != nil {
		sh.state.Store(cur)
		return err
	}
	sh.gen.Add(1)
	return nil
}

// remove tombstones the given global ids, all-or-nothing for this shard.
func (sh *shard) remove(globals []int) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.state.Load()
	locals := make([]int, len(globals))
	for i, g := range globals {
		local := st.localOf(g)
		if local < 0 {
			return fmt.Errorf("graphdim: id %d not in store", g)
		}
		locals[i] = local
	}
	if err := st.idx.Remove(locals...); err != nil {
		return err
	}
	sh.gen.Add(1)
	return nil
}

// graph resolves a global id to its graph, alive or tombstoned.
func (sh *shard) graph(g int) (*Graph, bool) {
	st := sh.state.Load()
	local := st.localOf(g)
	if local < 0 {
		return nil, false
	}
	return st.idx.Graph(local), true
}

// reclaim drops the shard's tombstoned slots: the live graphs, their
// existing block vectors and their global ids are repacked into a fresh
// snapshot over the same features, weights and mapper — no VF2, no mining,
// no selection — and published as a new generation. It reports whether
// there was anything to reclaim; on error (a mapped graph payload that no
// longer decodes) the shard is left exactly as it was.
//
// The whole repack runs under the writer lock (it is a copy, not a build),
// so no write can land between the copy and the publish; readers never
// wait — they keep the state they loaded. Every live graph keeps its
// vector and its rank among the shard's ascending global ids, so no
// ranking any engine returns can change: a shard that reclaimed and one
// that did not (a crash-recovered store, a follower) answer identically.
func (sh *shard) reclaim() (bool, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.state.Load()
	snap := cur.idx.snap.Load()
	if snap.deadCount == 0 {
		return false, nil
	}
	live := len(snap.db) - snap.deadCount
	db := make([]*Graph, 0, live)
	vecs := make([]*vecspace.BitVector, 0, live)
	globals := make([]int, 0, live)
	baseN := 0
	for id := range snap.db {
		if snap.dead[id] {
			continue
		}
		g, err := snap.graphAt(id) // faults a mapped payload onto the heap
		if err != nil {
			return false, err
		}
		db = append(db, g)
		vecs = append(vecs, snap.block.Vector(id))
		globals = append(globals, cur.globals[id])
		// Staleness bookkeeping carries over: the surviving graphs the
		// dimension selection saw are still the leading entries.
		if id < snap.baseN {
			baseN++
		}
	}
	next := cur.idx.fork(cur.idx.workers, newSnapshot(db, vecs, len(cur.idx.features), make([]bool, live), baseN))
	sh.state.Store(&shardState{idx: next, globals: globals})
	// Every publish moves the generation; the cache fence makes no
	// exception for a swap that happens to preserve rankings.
	sh.gen.Add(1)
	sh.compactions.Add(1)
	return true, nil
}

// staleRatio exposes the shard index's stale ratio.
func (sh *shard) staleRatio() float64 { return sh.state.Load().idx.StaleRatio() }
