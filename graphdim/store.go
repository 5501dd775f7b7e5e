package graphdim

import (
	"container/heap"
	"context"
	"fmt"
	"os"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pool"
	"repro/internal/wal"
)

// Store manages named collections of sharded indexes — the layer between
// the single-Index library and a serving process. Each collection splits
// its database across N shards by hashing global ids; Add and persistence
// parallelize per shard, Search fans out across shards and merges the
// per-shard top-k heaps into one globally ranked result, and Compact
// reclaims tombstoned slots while readers keep serving. A collection has
// one dimension set, selected once by Create and held by every shard for
// life; re-selection is what it is for an Index — build a new one.
//
// All methods are safe for concurrent use. Cross-shard fan-out draws
// workers from one store-wide pool.Budget, bounding the extra goroutines
// concurrent searches, adds, and saves spend on fan-out at
// StoreOptions.Workers in total; a collection's per-shard index workers
// are divided across its shards at creation so shard-internal fan-out
// does not multiply with the shard count.
type Store struct {
	budget *pool.Budget

	// dir is the data directory of a durable store ("" = in-memory only);
	// walOpt configures the per-collection write-ahead logs under it, and
	// checkpoints counts completed Checkpoint calls. See durable.go.
	// memory is how checkpointed segments are served (StoreOptions.Memory).
	dir         string
	walOpt      WALOptions
	memory      MemoryMode
	checkpoints atomic.Int64
	// lock is the data directory's single-owner flock file, nil for
	// in-memory and read-only (WAL-disabled) stores; released by Close.
	lock *os.File

	mu          sync.RWMutex
	collections map[string]*Collection
	// creating reserves collection names mid-create, between claiming
	// the name (and its on-disk wal directory) and publishing the fully
	// initialized collection — so a duplicate create can never open a
	// second log on a live directory, and a collection is never
	// reachable before its wal field is set.
	creating map[string]bool
	closed   bool
	// saveMu serializes Save calls: a save sweeps files the just-written
	// manifest does not reference, which would delete a concurrent save's
	// in-flight shard files.
	saveMu sync.Mutex
}

// StoreOptions configures NewStore.
type StoreOptions struct {
	// Workers is the shared cross-shard worker budget: the number of extra
	// goroutines the whole store may use at once for shard fan-out
	// (search, add, save/load). Zero or negative means one per CPU. Each
	// shard operation additionally runs on its calling goroutine, so fan-
	// out makes progress even with the budget exhausted.
	Workers int
	// WAL configures the write-ahead log of a durable store (OpenStore,
	// CreateStore, OpenOrCreateStore); NewStore ignores it — a store
	// without a data directory has nowhere to log.
	WAL WALOptions
	// Memory selects how a durable store serves checkpointed shard data:
	// mapped read-only from v4 segment files (the default where the
	// platform supports it — vectors, graph payloads, and posting lists
	// stay in the page cache and fault in on demand, so a collection can
	// exceed RAM) or fully rehydrated onto the heap. See MemoryMode.
	// NewStore ignores it; checkpoints predating the segment format
	// always load via the heap path regardless.
	Memory MemoryMode
}

// MemoryMode selects heap vs mmap serving of checkpointed segments.
type MemoryMode int

const (
	// MemoryAuto maps v4 segment checkpoints read-only where the
	// platform supports mmap (see segment.CanMap) and falls back to the
	// heap elsewhere — the default.
	MemoryAuto MemoryMode = iota
	// MemoryMap requests mapped serving explicitly. On a platform
	// without mmap support it degrades to the heap (the portable
	// fallback), identical answers at heap-resident cost.
	MemoryMap
	// MemoryHeap rehydrates every checkpoint onto the heap — the legacy
	// behavior, and the mode to pick when the data directory lives on a
	// filesystem with poor mmap semantics (some network mounts).
	MemoryHeap
)

// NewStore returns an empty in-memory store. It runs no goroutines of its
// own.
func NewStore(opt StoreOptions) *Store {
	return &Store{
		budget:      pool.NewBudget(opt.Workers),
		walOpt:      opt.WAL,
		memory:      opt.Memory,
		collections: make(map[string]*Collection),
		creating:    make(map[string]bool),
	}
}

// Close closes every collection's write-ahead log and releases the data
// directory. Close does NOT checkpoint — records already fsynced stay on disk for
// the next open to replay, so closing without a checkpoint is exactly a
// crash as far as the data directory is concerned (serving layers
// checkpoint first on a graceful shutdown). The collections stay
// readable; on a durable store, writes after Close fail at the log. It
// is idempotent.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	for _, c := range s.snapshotCollections() {
		if c.wal != nil {
			c.wal.Close()
		}
	}
	if s.lock != nil {
		s.lock.Close() // releases the data directory's flock
	}
}

func (s *Store) snapshotCollections() []*Collection {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Collection, 0, len(s.collections))
	for _, c := range s.collections {
		out = append(out, c)
	}
	return out
}

// collectionName constrains names to URL- and filesystem-safe tokens: the
// name becomes both a /v1 path segment and a directory under Save.
var collectionName = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,127}$`)

// CollectionOptions configures Create and CreateFromIndex.
type CollectionOptions struct {
	// Shards is the number of index shards; zero means 1.
	Shards int
	// Build configures the collection's one dimension selection. Create
	// only: CreateFromIndex takes its dimensions from the index, and
	// nothing after creation re-selects. The one field that outlives
	// creation is Workers, persisted as the bound the shards divide among
	// themselves when the store is reopened. Zero values select the
	// library defaults, as in Build.
	Build Options
	// Cache configures the collection's query-result cache: an LRU over
	// complete Search results keyed by (canonical query, effective
	// options) and fenced by the shard generation vector, so any
	// committed Add/Remove/Compact invalidates affected entries for
	// free. The zero value disables caching. See CacheOptions.
	Cache CacheOptions
	// Defaults overlays zero-valued SearchOptions fields of every Search
	// against the collection: a query leaving K (or VerifyFactor,
	// MaxCandidates, Metric, Engine, Predicate) at its zero value gets the
	// collection's default before validation, and fields the defaults also
	// leave zero keep the library default. Note the overlay cannot
	// distinguish "unset" from an explicit zero, so a collection whose
	// default Engine is not EngineMapped (= 0) routes zero-Engine queries
	// to that default.
	Defaults SearchOptions
}

func (o CollectionOptions) validate() error {
	if o.Shards < 0 {
		return fmt.Errorf("graphdim: Shards must be >= 0 (0 = 1 shard), got %d", o.Shards)
	}
	if o.Shards > maxShards {
		return fmt.Errorf("graphdim: Shards must be <= %d, got %d", maxShards, o.Shards)
	}
	if err := o.Build.Validate(); err != nil {
		return err
	}
	if err := o.Cache.validate(); err != nil {
		return err
	}
	// Defaults are a partial SearchOptions: K may stay zero ("no
	// collection default"), but every set field must be in domain.
	d := o.Defaults
	if d.K < 0 {
		return fmt.Errorf("graphdim: Defaults.K must be >= 0, got %d", d.K)
	}
	if d.K == 0 {
		d.K = 1 // satisfy the full validator for the remaining fields
	}
	return d.Validate()
}

func (o CollectionOptions) shards() int {
	if o.Shards == 0 {
		return 1
	}
	return o.Shards
}

// maxShards bounds the shard count well above any sane deployment: each
// shard is a full index with its own block, postings and worker share.
const maxShards = 1024

// Collection is one named, sharded graph database inside a Store. Global
// ids are assigned densely in insertion order and are stable for the life
// of the collection, across Save/Open and across Compact; the hash
// placement of an id never changes.
type Collection struct {
	store *Store
	name  string
	// workers is CollectionOptions.Build.Workers, the one build option
	// that outlives creation: shardIdxWorkers divides it among the shards
	// at every open.
	workers  int
	defaults SearchOptions
	// shards[i] is the index over the graphs whose global ids place on
	// shard i. Each is one published snapshot (graphs, vectors,
	// tombstones, local→global id table), one writer lock and one
	// generation counter; all hold the collection's one dimension set.
	shards   []*Index
	cacheOpt CacheOptions
	cache    *queryCache // nil when the cache is disabled

	// wal is the collection's write-ahead log on a durable store (nil
	// otherwise): Add and Remove append — and fsync — a record under
	// addMu before any shard publishes, so an acknowledged write is on
	// disk before it is observable. See durable.go.
	wal *wal.Log
	// walBase is the log position the loaded checkpoint covered, carried
	// so saves on a WAL-disabled open preserve it instead of resetting
	// wal_seq below segments still on disk (which a later WAL-enabled
	// open would then wrongly replay).
	walBase uint64

	// Everything above is what a Search loads; the words below are written
	// by every Add and Remove. A cache line of padding keeps a writer from
	// invalidating the line readers take shards and cache from.
	_ [64]byte

	addMu sync.Mutex // serializes writers (Add, Remove) collection-wide
	// nextID is written under addMu; atomic so read-only paths (Stats)
	// never block behind a long Add or Save holding the writer lock.
	nextID atomic.Int64
	// applied is the settled watermark: the highest WAL sequence whose
	// application outcome is final and visible in shard state. On a
	// primary it trails LastSeq only while a writer holds addMu (an add
	// batch between its append and its settle — success, or the
	// amendment failAdd logs). A replication stream ships only records
	// at or below it, so a shipped TypeAdd's amendment, if any, is
	// already in the log behind it. On a follower it is advanced by the
	// replica applier and trails the mirrored log by the buffered
	// pending batch. Written under addMu; atomic for lock-free readers
	// (freshness tokens, checkpoints, stats).
	applied atomic.Uint64

	// failShard, when non-nil, injects a per-shard failure into applyAdd's
	// fan-out — test-only, for exercising partial-apply paths that
	// otherwise need precisely timed cancellation.
	failShard func(shard int) error
}

// Create builds a new collection from db: one dimension selection over the
// full database (so every shard starts in the same mapped space and a
// sharded search is exactly equivalent to an unsharded one), then a split
// across opt.Shards shards by hash placement. The build is the expensive
// offline pipeline of BuildContext and honours ctx.
func (s *Store) Create(ctx context.Context, name string, db []*Graph, opt CollectionOptions) (*Collection, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	// Fail fast on a bad or taken name — the build below is minutes of
	// CPU. A create racing this check to the same name is still caught at
	// the insert inside CreateFromIndex.
	if !collectionName.MatchString(name) {
		return nil, fmt.Errorf("graphdim: invalid collection name %q (want [a-zA-Z0-9][a-zA-Z0-9._-]*, at most 128 chars)", name)
	}
	s.mu.RLock()
	_, taken := s.collections[name]
	s.mu.RUnlock()
	if taken {
		return nil, fmt.Errorf("graphdim: collection %q already exists", name)
	}
	idx, err := BuildContext(ctx, db, opt.Build)
	if err != nil {
		return nil, err
	}
	return s.CreateFromIndex(name, idx, opt)
}

// CreateFromIndex splits an already built (or loaded) index into a sharded
// collection without re-mining or re-running DSPM: every graph keeps its
// id — the global id — and lands on the shard the id hashes to; every
// shard holds the index's dimension set (and shares its compiled mapper)
// for the life of the collection. The source index should not be mutated
// afterwards (graphs are shared, not copied; each shard packs its own
// vector block).
func (s *Store) CreateFromIndex(name string, src *Index, opt CollectionOptions) (*Collection, error) {
	if src == nil {
		return nil, fmt.Errorf("graphdim: nil index")
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if !collectionName.MatchString(name) {
		return nil, fmt.Errorf("graphdim: invalid collection name %q (want [a-zA-Z0-9][a-zA-Z0-9._-]*, at most 128 chars)", name)
	}

	nsh := opt.shards()
	snap := src.snap.Load()
	all := make([]int, len(snap.db))
	for id := range all {
		all[id] = id
	}
	c := &Collection{
		store:    s,
		name:     name,
		workers:  opt.Build.Workers,
		defaults: opt.Defaults,
		shards:   make([]*Index, nsh),
		cacheOpt: opt.Cache,
		cache:    newQueryCache(opt.Cache),
	}
	c.nextID.Store(int64(len(snap.db)))
	// Divide the source index's worker bound across the shards: the
	// cross-shard budget already parallelizes shard-level fan-out, so
	// giving every shard the full bound would run shards × workers
	// goroutines for one Add.
	shardWorkers := src.workers / nsh
	if shardWorkers < 1 {
		shardWorkers = 1
	}
	for i, ids := range partition(all, nsh) {
		part, err := snap.subset(ids) // empty for a shard no id places on
		if err != nil {
			return nil, err
		}
		c.shards[i] = src.fork(shardWorkers, part)
	}

	// Reserve the name before touching its wal directory — a losing
	// duplicate create must never run torn-tail recovery against a live
	// collection's log — and publish the collection only after its wal
	// field is set, so no reader ever observes it half-initialized.
	s.mu.Lock()
	if _, ok := s.collections[name]; ok || s.creating[name] {
		s.mu.Unlock()
		return nil, fmt.Errorf("graphdim: collection %q already exists", name)
	}
	s.creating[name] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.creating, name)
		s.mu.Unlock()
	}()

	// The wal directory is claimed and the create checkpoint installed
	// under one continuous saveMu hold: a concurrent checkpoint's sweep
	// can therefore never observe the fresh (not yet manifested)
	// directory and unlink its live segment.
	s.saveMu.Lock()
	if err := s.attachWAL(c); err != nil {
		s.saveMu.Unlock()
		return nil, err
	}

	// The initial build is never logged (replaying a mining run would be
	// absurd); a durable create persists it right away instead, and the
	// collection becomes reachable only once that checkpoint is
	// installed — so no write can be acknowledged against a collection
	// that would vanish if the checkpoint failed, and a successful
	// create is itself durable. (saveToLocked publishes the collection
	// under its own lock; see its doc comment.) A checkpoint covers the
	// whole store — create and drop are rare admin operations, priced
	// accordingly.
	if s.dir != "" {
		if err := s.saveToLocked(s.dir, true, c); err != nil {
			s.saveMu.Unlock()
			if c.wal != nil {
				c.wal.Close()
			}
			return nil, fmt.Errorf("graphdim: persisting new collection %q: %w", name, err)
		}
		s.saveMu.Unlock()
	} else {
		s.saveMu.Unlock()
		s.mu.Lock()
		s.collections[name] = c
		s.mu.Unlock()
	}
	return c, nil
}

// Collection returns the named collection, if it exists.
func (s *Store) Collection(name string) (*Collection, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.collections[name]
	return c, ok
}

// Collections returns the collection names in lexical order.
func (s *Store) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.collections))
	for name := range s.collections {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Drop removes the named collection from the store. In-flight reads
// against the collection finish normally — the collection object stays
// valid, it just stops being reachable by name. On a durable store the
// drop checkpoints immediately (so a restart does not resurrect the
// collection) and closes its log: late writes to the dropped collection
// fail rather than append to a deleted log.
func (s *Store) Drop(name string) error {
	s.mu.Lock()
	c, ok := s.collections[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("graphdim: collection %q not found", name)
	}
	delete(s.collections, name)
	s.mu.Unlock()
	// Close the log BEFORE the checkpoint whose sweep deletes its
	// segments: a late Add through a retained handle must fail loudly at
	// the closed log, never be acknowledged into an unlinked segment.
	if c.wal != nil {
		c.wal.Close()
	}
	if s.dir != "" {
		if err := s.Checkpoint(); err != nil {
			// Un-drop: a failed checkpoint must not leave memory (gone)
			// and disk (still present, resurrected on restart)
			// disagreeing — unless a racing create took the name in the
			// meantime, in which case the drop stands and the next
			// successful checkpoint settles the directory. The restored
			// collection keeps its closed log, so further writes fail
			// until a restart recovers the store properly — the failing
			// disk behind the failed checkpoint needs attention anyway.
			s.mu.Lock()
			if _, taken := s.collections[name]; !taken {
				s.collections[name] = c
			}
			s.mu.Unlock()
			return fmt.Errorf("graphdim: persisting drop of %q: %w", name, err)
		}
	}
	return nil
}

// Name returns the collection's name.
func (c *Collection) Name() string { return c.name }

// Shards returns the number of shards.
func (c *Collection) Shards() int { return len(c.shards) }

// Defaults returns the collection's default search-option overlay.
func (c *Collection) Defaults() SearchOptions { return c.defaults }

// shardIdxWorkers is the per-shard share of the collection's worker
// bound — the steady-state internal fan-out each shard index gets, so
// that shard-internal parallelism does not multiply with the shard count.
func (c *Collection) shardIdxWorkers() int {
	w := pool.DefaultWorkers(c.workers) / len(c.shards)
	if w < 1 {
		w = 1
	}
	return w
}

// Size returns the number of live (searchable) graphs across all shards.
func (c *Collection) Size() int {
	n := 0
	for _, sh := range c.shards {
		n += sh.Size()
	}
	return n
}

// Graph resolves a global id. Tombstoned graphs remain addressable, as in
// Index.Graph, until Compact reclaims their slots; ids never assigned,
// beyond the store, or reclaimed return false. Reclamation is local to a
// process — a follower, or this store reopened from a checkpoint taken
// before the Compact, may still resolve an id this one no longer does.
// On a memory-mapped store a payload that no longer decodes also returns
// (nil, false); queries that reach it return an error naming it.
func (c *Collection) Graph(id int) (*Graph, bool) {
	s, local := c.resolve(id)
	if local < 0 {
		return nil, false
	}
	g, err := s.graphAt(local)
	return g, err == nil
}

// resolve finds global id in the current snapshot of the shard it places
// on: the snapshot and the id's local id there, -1 when the shard does
// not hold it.
func (c *Collection) resolve(id int) (*snapshot, int) {
	if id < 0 {
		return nil, -1
	}
	s := c.shards[placeID(id, len(c.shards))].snap.Load()
	return s, s.localOf(id)
}

// overlay fills zero-valued fields of opt from the collection defaults —
// see CollectionOptions.Defaults and SearchOptions.NoDefaults.
func (c *Collection) overlay(opt SearchOptions) SearchOptions {
	if opt.NoDefaults {
		return opt
	}
	d := c.defaults
	if opt.K == 0 {
		opt.K = d.K
	}
	if opt.Engine == 0 {
		opt.Engine = d.Engine
	}
	if opt.VerifyFactor == 0 {
		opt.VerifyFactor = d.VerifyFactor
	}
	if opt.MaxCandidates == 0 {
		opt.MaxCandidates = d.MaxCandidates
	}
	if opt.Metric == MetricIndexDefault {
		opt.Metric = d.Metric
	}
	if opt.Predicate == nil {
		opt.Predicate = d.Predicate
	}
	if opt.Filters == nil {
		opt.Filters = d.Filters
	}
	return opt
}

// Search answers one top-k query against the collection: the query is
// mapped onto the dimensions once, the scan fans out to every shard in
// parallel (drawing workers from the store budget), each shard ranks its
// slice of the database, and the per-shard top-k lists merge into one
// globally ranked result with ties broken by ascending global id. Every
// shard holds the collection's one dimension set, so the merged
// mapped/exact result is exactly the one an unsharded Index over the same
// graphs returns — identical ids and identical scores — before and after
// any Compact.
//
// SearchOptions is the same type Index.Search takes; zero-valued fields
// first take the collection's defaults (see CollectionOptions.Defaults).
// The Predicate, like the returned Results, sees global ids. The result's
// Matched bitset is the query's vector over the collection's dimensions —
// the one vector every shard scanned with.
func (c *Collection) Search(ctx context.Context, q *Graph, opt SearchOptions) (*SearchResult, error) {
	start := time.Now()
	if q == nil {
		return nil, errNilQuery
	}
	opt = c.overlay(opt)
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if c.cache != nil {
		if key, ok := cacheKey(q, opt); ok {
			// Read the generation vector before the search: a mutation
			// committing in between leaves the stored entry already
			// stale (see queryCache.cachedSearch).
			gens := c.generations()
			return c.cache.cachedSearch(key, gens, start, func() (*SearchResult, error) {
				return c.searchShards(ctx, q, opt, start)
			})
		}
	}
	return c.searchShards(ctx, q, opt, start)
}

// generations snapshots every shard's mutation counter — the fence
// vector cached results are keyed by.
func (c *Collection) generations() []uint64 {
	gens := make([]uint64, len(c.shards))
	for i, sh := range c.shards {
		gens[i] = sh.Generation()
	}
	return gens
}

// searchShards is the uncached fan-out behind Search: map the query once
// — every shard holds the same dimension set, so shard 0's mapper speaks
// for all — then scan the shards in parallel with the vector in hand.
func (c *Collection) searchShards(ctx context.Context, q *Graph, opt SearchOptions, start time.Time) (*SearchResult, error) {
	qv, err := c.shards[0].mapper.MapContext(ctx, q)
	if err != nil {
		return nil, err
	}

	userPred := opt.Predicate
	outs := make([]shardOut, len(c.shards))
	_ = c.store.budget.ForContext(ctx, len(c.shards), func(i int) {
		// One load: the snapshot scanned is the snapshot whose id table
		// translates what the scan saw.
		snap := c.shards[i].snap.Load()
		sopt := opt
		if userPred != nil {
			// The user predicate runs in global-id space.
			sopt.Predicate = func(local int, g *Graph) bool { return userPred(snap.global(local), g) }
		}
		res, err := c.shards[i].searchMapped(ctx, snap, q, qv, sopt, start)
		if err == nil {
			for j := range res.Results {
				res.Results[j].ID = snap.global(res.Results[j].ID)
			}
		}
		outs[i] = shardOut{res: res, err: err}
	})
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		if outs[i].res == nil { // fan-out cut short by cancellation
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("graphdim: shard %d produced no result", i)
		}
	}

	merged := &SearchResult{
		Results: mergeTopK(outs, opt.K),
		Engine:  opt.Engine,
		Matched: outs[0].res.Matched, // qv
	}
	for i := range outs {
		merged.Candidates += outs[i].res.Candidates
	}
	merged.Elapsed = time.Since(start)
	return merged, nil
}

// SearchBatch answers many queries with the same options. Each query fans
// out across the shards in turn; like Index.SearchBatch the batch fails as
// a unit on the first error in query order.
func (c *Collection) SearchBatch(ctx context.Context, queries []*Graph, opt SearchOptions) ([]*SearchResult, error) {
	out := make([]*SearchResult, len(queries))
	for i, q := range queries {
		res, err := c.Search(ctx, q, opt)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// shardOut is one shard's contribution to a fan-out search: the shard
// result, its Results translated to global ids.
type shardOut struct {
	res *SearchResult
	err error
}

// shardCursor is one entry of the k-way merge heap: a position in a
// shard's (already sorted) ranked list.
type shardCursor struct {
	out *shardOut
	pos int
}

type mergeHeap []shardCursor

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	a, b := h[i].out.res.Results[h[i].pos], h[j].out.res.Results[h[j].pos]
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.ID < b.ID
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(shardCursor)) }
func (h *mergeHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// mergeTopK k-way-merges the per-shard ranked lists — each already sorted
// ascending by (score, global id) — into the global top k with the same
// order, via a heap of shard cursors.
func mergeTopK(outs []shardOut, k int) []Result {
	h := make(mergeHeap, 0, len(outs))
	for i := range outs {
		if len(outs[i].res.Results) > 0 {
			h = append(h, shardCursor{out: &outs[i], pos: 0})
		}
	}
	heap.Init(&h)
	merged := make([]Result, 0, k)
	for len(h) > 0 && len(merged) < k {
		cur := h[0]
		merged = append(merged, cur.out.res.Results[cur.pos])
		if cur.pos+1 < len(cur.out.res.Results) {
			h[0].pos++
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return merged
}

// Add maps new graphs into the collection: each graph gets the next global
// id, lands on the shard its id hashes to, and the per-shard VF2 mapping
// fans out under the store budget. The returned ids align with gs. Writers
// are serialized collection-wide; readers are never blocked (each shard
// publishes copy-on-write state). Each shard applies its slice atomically,
// but a mid-batch error — cancellation included — can leave the slices of
// shards that already finished applied; the call then returns a
// *PartialAddError naming exactly the ids that committed.
//
// On a durable store the batch is appended to the collection's
// write-ahead log — and fsynced — before any shard publishes, so every
// id this method reports as committed (returned ids, or
// PartialAddError.Applied) survives a crash.
func (c *Collection) Add(ctx context.Context, gs ...*Graph) ([]int, error) {
	for i, g := range gs {
		if g == nil {
			return nil, fmt.Errorf("graphdim: nil graph at index %d", i)
		}
	}
	if len(gs) == 0 {
		return nil, nil
	}
	// A context that is already dead commits nothing: bail before the
	// write-ahead append, or an abandoned request would still pay two
	// fsyncs (the batch plus its voiding record) under the writer lock.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.addMu.Lock()
	defer c.addMu.Unlock()
	defer c.settleApplied()

	first := int(c.nextID.Load())
	// Write-ahead: the batch must be durable before any shard state it
	// produces can be observed. A failed append commits nothing.
	if c.wal != nil {
		if _, err := c.wal.Append(wal.Record{Type: wal.TypeAdd, First: first, Graphs: gs}); err != nil {
			return nil, fmt.Errorf("graphdim: wal append: %w", err)
		}
	}
	applied, err := c.applyAdd(ctx, first, gs, nil)
	if err != nil {
		return nil, c.failAdd(first, len(gs), applied, err)
	}
	c.nextID.Add(int64(len(gs)))
	return applied, nil
}

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

// partition splits global ids by the shard they place on: parts[sh] holds
// shard sh's ids in the order given, nil when it receives none.
func partition(ids []int, shards int) [][]int {
	parts := make([][]int, shards)
	for _, id := range ids {
		sh := placeID(id, shards)
		parts[sh] = append(parts[sh], id)
	}
	return parts
}

// applyAdd lands one logged add batch on the shards — the one way an Add,
// crash replay and a follower publish graphs. gs[i] carries global id
// first+i; only, when non-nil, names the ids of the batch to land (what a
// partial apply committed) and the rest is skipped. Each shard maps
// and publishes its share atomically, the shares fan out under the store
// budget, and a failure on one shard — cancellation included — leaves
// the shares of shards that already finished in place: applied reports,
// ascending, exactly the ids that landed, next to the first error.
func (c *Collection) applyAdd(ctx context.Context, first int, gs []*Graph, only []int) (applied []int, err error) {
	ids := only
	if ids == nil {
		ids = make([]int, len(gs))
		for i := range ids {
			ids[i] = first + i
		}
	}
	parts := partition(ids, len(c.shards))
	var touched []int // the shards that receive a share, ascending
	for sh, part := range parts {
		if len(part) > 0 {
			touched = append(touched, sh)
		}
	}
	errs := make([]error, len(touched))
	ran := make([]bool, len(touched))
	_ = c.store.budget.ForContext(ctx, len(touched), func(i int) {
		ran[i] = true
		sh := touched[i]
		if c.failShard != nil {
			if errs[i] = c.failShard(sh); errs[i] != nil {
				return
			}
		}
		share := make([]*Graph, len(parts[sh]))
		for j, id := range parts[sh] {
			share[j] = gs[id-first]
		}
		_, errs[i] = c.shards[sh].add(ctx, share, parts[sh])
	})
	for i, sh := range touched {
		e := errs[i]
		if !ran[i] {
			// The fan-out skips a suffix only on cancellation.
			e = ctx.Err()
		}
		switch {
		case e == nil && ran[i]:
			applied = append(applied, parts[sh]...)
		case e != nil && err == nil:
			err = e
		}
	}
	sort.Ints(applied)
	return applied, err
}

// applyRemove tombstones global ids on the shards they place on — the
// one way a Remove, crash replay and a follower publish removals.
func (c *Collection) applyRemove(ids []int) error {
	for sh, part := range partition(ids, len(c.shards)) {
		if len(part) == 0 {
			continue
		}
		if err := c.shards[sh].removeGlobal(part); err != nil {
			return fmt.Errorf("graphdim: remove on shard %d: %w", sh, err)
		}
	}
	return nil
}

// burn marks the ids of a logged add batch as assigned for good: on a
// durable store a global id, once logged, is never assigned again,
// whether or not its graph landed (see failAdd).
func (c *Collection) burn(first, total int) {
	if next := int64(first + total); next > c.nextID.Load() {
		c.nextID.Store(next)
	}
}

// failAdd settles a failed Add batch: it amends the write-ahead log so
// replay matches what actually committed, and burns the batch's ids.
// Ids burn even when nothing landed and the batch was cleanly voided —
// on a durable store a global id, once logged, is never assigned again.
// The invariant is what lets a replica that crash-replayed an unpaired
// add record reconcile when the voiding amendment arrives (tombstoning
// the batch) without a later assignment ever colliding with the ids it
// buried. Called under addMu.
func (c *Collection) failAdd(first, total int, appliedIDs []int, cause error) error {
	if len(appliedIDs) > 0 {
		// Some shards already published their slice, so the batch's
		// global ids are burned: advancing nextID keeps every published
		// id unique forever, at the price of id gaps for the slices that
		// never landed.
		c.nextID.Add(int64(total))
		if c.wal != nil {
			if _, werr := c.wal.Append(wal.Record{Type: wal.TypeApplied, First: first, Total: total, IDs: appliedIDs}); werr != nil {
				cause = fmt.Errorf("%w (and amending the wal failed — a crash before the next checkpoint recovers the whole batch: %v)", cause, werr)
			}
		}
		return &PartialAddError{Applied: appliedIDs, Total: total, Err: cause}
	}
	// Nothing landed. Void the logged batch so replay skips its graphs —
	// but still burn its ids: the add record is in the log, and logged
	// ids are never reassigned (see the doc comment). An in-memory
	// collection never logged the batch, so its ids genuinely remain
	// free there.
	if c.wal != nil {
		c.nextID.Add(int64(total))
		if _, werr := c.wal.Append(wal.Record{Type: wal.TypeApplied, First: first, Total: total, IDs: nil}); werr != nil {
			return fmt.Errorf("graphdim: add failed (%w) and voiding its wal record failed (%v); batch ids burned", cause, werr)
		}
	}
	return cause
}

// settleApplied advances the settled watermark to the log tail; called
// under addMu as a writer's final act, when every appended record's
// outcome is in the log. No-op without a log.
func (c *Collection) settleApplied() {
	if c.wal != nil {
		c.applied.Store(c.wal.LastSeq())
	}
}

// Remove tombstones the given global ids. Validation and application
// happen per shard under the writer locks; an unknown or already-removed
// id fails the whole call with no shard modified.
func (c *Collection) Remove(ids ...int) error {
	if len(ids) == 0 {
		return nil
	}
	c.addMu.Lock()
	defer c.addMu.Unlock()
	defer c.settleApplied()
	// Validate everything before touching anything: writers are serialized
	// by addMu and a reclaim never drops a live id, so a positive pre-check
	// cannot be invalidated before the apply below.
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if id < 0 || int64(id) >= c.nextID.Load() {
			return fmt.Errorf("graphdim: id %d out of range [0,%d)", id, c.nextID.Load())
		}
		s, local := c.resolve(id)
		if local < 0 {
			return fmt.Errorf("graphdim: id %d not in store", id)
		}
		if s.dead[local] || seen[id] {
			return fmt.Errorf("graphdim: id %d already removed", id)
		}
		seen[id] = true
	}
	// Write-ahead, after validation (a rejected batch must leave no
	// record) and before any shard tombstones: post-validation the apply
	// below cannot fail, so log record and committed state agree.
	if c.wal != nil {
		sorted := append([]int(nil), ids...)
		sort.Ints(sorted)
		if _, err := c.wal.Append(wal.Record{Type: wal.TypeRemove, IDs: sorted}); err != nil {
			return fmt.Errorf("graphdim: wal append: %w", err)
		}
	}
	return c.applyRemove(ids)
}

// StaleRatios returns each shard's StaleRatio, indexed by shard.
func (c *Collection) StaleRatios() []float64 {
	out := make([]float64, len(c.shards))
	for i, sh := range c.shards {
		out[i] = sh.StaleRatio()
	}
	return out
}

// Compact reclaims the tombstoned slots of every shard that has any: the
// shard's live graphs and their existing vectors are repacked into a fresh
// snapshot over the same dimensions. It never re-selects dimensions and
// never changes a ranking — mapped, verified and exact results are
// bit-identical before and after, which is why it needs no log record and
// why crash recovery and followers stay identical whether or not they
// compacted. What it frees is memory, scan width and the next
// checkpoint's segment size; concurrent searches keep serving throughout.
// It returns how many shards were repacked and the first error
// encountered, having still attempted the remaining shards; it checks ctx
// between shards.
func (c *Collection) Compact(ctx context.Context) (int, error) {
	compacted := 0
	var firstErr error
	for i, sh := range c.shards {
		if err := ctx.Err(); err != nil {
			return compacted, err
		}
		ran, err := sh.reclaim()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("graphdim: compacting shard %d: %w", i, err)
		}
		if ran {
			compacted++
		}
	}
	return compacted, firstErr
}

// CacheStats returns the query cache's counters; ok is false when the
// collection was created without a cache.
func (c *Collection) CacheStats() (stats CacheStats, ok bool) {
	if c.cache == nil {
		return CacheStats{}, false
	}
	return c.cache.stats(), true
}

// ShardStats describes one shard for stats endpoints.
type ShardStats struct {
	// Live is the number of searchable graphs; Total counts id slots
	// including tombstones.
	Live  int `json:"live"`
	Total int `json:"total"`
	// StaleRatio is the shard index's StaleRatio.
	StaleRatio float64 `json:"stale_ratio"`
	// Compactions counts the times Compact repacked this shard.
	Compactions int64 `json:"compactions"`
}

// CollectionStats is the Stats snapshot of one collection. The JSON names
// here and on ShardStats, CacheStats and WALStats are the wire names of
// every stats endpoint — declared once, with the fields.
type CollectionStats struct {
	Name   string `json:"name"`
	Live   int    `json:"graphs"`
	NextID int    `json:"next_id"`
	// Dimensions is the size of the collection's dimension set — one
	// number, every shard holds the same set.
	Dimensions int          `json:"dimensions"`
	Shards     []ShardStats `json:"shards"`
	// Generations is the per-shard mutation-counter vector the query
	// cache fences on, aligned with Shards: it moves on every add,
	// remove and compact.
	Generations []uint64 `json:"generations"`
	// Cache holds the query cache's counters, nil when the collection
	// has no cache.
	Cache *CacheStats `json:"cache,omitempty"`
	// WAL holds the write-ahead log's counters, nil when the store is
	// not durable (or the WAL is disabled).
	WAL *WALStats `json:"wal,omitempty"`
}

// Stats returns a point-in-time snapshot of the collection's shards.
func (c *Collection) Stats() CollectionStats {
	cs := CollectionStats{
		Name:       c.name,
		Dimensions: len(c.shards[0].features),
		Shards:     make([]ShardStats, len(c.shards)),
	}
	for i, sh := range c.shards {
		s := ShardStats{
			Live:        sh.Size(),
			Total:       sh.TotalGraphs(),
			StaleRatio:  sh.StaleRatio(),
			Compactions: sh.compactions.Load(),
		}
		cs.Live += s.Live
		cs.Shards[i] = s
	}
	cs.NextID = int(c.nextID.Load())
	cs.Generations = c.generations()
	if st, ok := c.CacheStats(); ok {
		cs.Cache = &st
	}
	if c.wal != nil {
		st := c.wal.Stats()
		cs.WAL = &st
	}
	return cs
}
