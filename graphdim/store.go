package graphdim

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"regexp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pool"
	"repro/internal/vecspace"
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
// concurrent searches, adds, and checkpoints spend on fan-out at
// StoreOptions.Workers in total.
type Store struct {
	budget *pool.Budget

	// dir is the data directory of a durable store ("" = in-memory only);
	// walOpt configures the per-collection write-ahead logs under it, and
	// checkpoints counts completed Checkpoint calls. See durable.go.
	dir         string
	walOpt      WALOptions
	checkpoints atomic.Int64
	// lock is the data directory's single-owner flock file, nil for an
	// in-memory store; released by Close.
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
	// saveMu serializes checkpoints: one sweeps files its just-written
	// manifest does not reference, which would delete a concurrent
	// checkpoint's in-flight shard files.
	saveMu sync.Mutex
}

// StoreOptions configures NewStore.
type StoreOptions struct {
	// Workers is the shared cross-shard worker budget: the number of extra
	// goroutines the whole store may use at once for shard fan-out
	// (search, add, checkpoint/open). Zero or negative means one per CPU. Each
	// shard operation additionally runs on its calling goroutine, so fan-
	// out makes progress even with the budget exhausted.
	Workers int
	// WAL configures the write-ahead log of a durable store (OpenStore,
	// CreateStore, OpenOrCreateStore); NewStore ignores it — a store
	// without a data directory has nowhere to log.
	WAL WALOptions
	// Memory stays only because the benchmark harness sets it; a durable
	// store has one way to open a checkpoint. Each shard segment is mapped
	// read-only where the platform supports mmap (see segment.CanMap) and
	// read into one heap buffer elsewhere, and either way its checksums
	// are verified at open. MemoryAuto, the zero value, is the one value
	// accepted: OpenStore and CreateStore refuse any other by name.
	Memory MemoryMode
}

// MemoryMode is the type of StoreOptions.Memory, kept with it for the
// benchmark harness.
type MemoryMode int

// MemoryAuto is the one MemoryMode (see StoreOptions.Memory).
const MemoryAuto MemoryMode = 0

// checkMemory refuses every StoreOptions.Memory value but MemoryAuto.
func (opt StoreOptions) checkMemory() error {
	if opt.Memory != MemoryAuto {
		return fmt.Errorf("graphdim: StoreOptions.Memory %d is not MemoryAuto, the one mode", opt.Memory)
	}
	return nil
}

// NewStore returns an empty in-memory store. It runs no goroutines of its
// own.
func NewStore(opt StoreOptions) *Store {
	return &Store{
		budget:      pool.NewBudget(opt.Workers),
		walOpt:      opt.WAL,
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
// name becomes both a /v1 path segment and a directory of the data dir.
var collectionName = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,127}$`)

// CollectionOptions configures Create and CreateFromIndex.
type CollectionOptions struct {
	// Shards is the number of index shards; zero means 1.
	Shards int
	// Build configures the collection's one dimension selection. Create
	// only: CreateFromIndex takes its dimensions from the index, nothing
	// after creation re-selects, and none of it persists. Zero values
	// select the library defaults, as in Build.
	Build Options
	// Cache configures the collection's query-result cache: an LRU over
	// complete Search results, keyed by (canonical query, effective
	// options), and complete Query pipeline results, keyed by the parsed
	// plan, fenced by the shard generation vector, so any committed
	// Add/Remove/Compact invalidates affected entries for free. The zero
	// value disables caching. See CacheOptions.
	Cache CacheOptions
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
	return o.Cache.validate()
}

func (o CollectionOptions) shards() int {
	if o.Shards == 0 {
		return 1
	}
	return o.Shards
}

// maxShards bounds the shard count well above any sane deployment: each
// shard is a full index with its own block and label index.
const maxShards = 1024

// Collection is one named, sharded graph database inside a Store. Global
// ids are assigned densely in insertion order and are stable for the life
// of the collection, across Checkpoint/OpenStore and across Compact; the hash
// placement of an id never changes.
type Collection struct {
	store *Store
	name  string
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

	// Everything above is what a Search loads; the words below are written
	// by every Add and Remove. A cache line of padding keeps a writer from
	// invalidating the line readers take shards and cache from.
	_ [64]byte

	addMu sync.Mutex // serializes writers (Add, Remove) collection-wide
	// nextID is written under addMu; atomic so read-only paths (Stats)
	// never block behind a long Add or checkpoint holding the writer lock.
	nextID atomic.Int64
	// applied is the settled watermark: the highest WAL sequence that is
	// visible in shard state, set by commit. On a primary it trails
	// LastSeq only while a writer holds addMu (a write between its append
	// and its commit), and a replication stream ships only records at or
	// below it, so no follower applies a write before the primary shows
	// it. On a follower the replica applier advances it once per batch.
	// Written under addMu; atomic for lock-free readers (freshness tokens,
	// checkpoints, stats).
	applied atomic.Uint64
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
		shards:   make([]*Index, nsh),
		cacheOpt: opt.Cache,
		cache:    newQueryCache(opt.Cache),
	}
	c.nextID.Store(int64(len(snap.db)))
	for i, ids := range partition(all, nsh) {
		part, err := snap.subset(ids, 0) // empty for a shard no id places on
		if err != nil {
			return nil, err
		}
		c.shards[i] = src.fork(part)
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
	if err := s.attachWAL(c, 0); err != nil {
		s.saveMu.Unlock()
		return nil, err
	}

	// The initial build is never logged (replaying a mining run would be
	// absurd); a durable create persists it right away instead, and the
	// collection becomes reachable only once that checkpoint is
	// installed — so no write can be acknowledged against a collection
	// that would vanish if the checkpoint failed, and a successful
	// create is itself durable. (checkpointLocked publishes the collection
	// under its own lock; see its doc comment.) A checkpoint covers the
	// whole store — create and drop are rare admin operations, priced
	// accordingly.
	if s.dir != "" {
		if err := s.checkpointLocked(c); err != nil {
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

// Size returns the number of live (searchable) graphs across all shards.
func (c *Collection) Size() int {
	n := 0
	for _, sh := range c.shards {
		n += sh.snap.Load().live()
	}
	return n
}

// Graph resolves a global id. Tombstoned graphs remain addressable, so
// historical results still resolve, until Compact reclaims their slots;
// ids never assigned, beyond the store, or reclaimed return false. Reclamation is local to a
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

// Search answers one top-k query against the collection: the query is
// mapped onto the dimensions once, the scan fans out to every shard in
// parallel (drawing workers from the store budget), each shard ranks its
// slice of the database, and the per-shard top-k lists merge into one
// globally ranked result with ties settled by ascending global id. Every
// shard holds the collection's one dimension set, so the merged
// mapped/exact result is exactly the one an unsharded Index over the same
// graphs returns — identical ids and identical scores — before and after
// any Compact.
//
// The Predicate, like the returned Results, sees global ids. The
// result's Matched bitset is the query's vector over the collection's
// dimensions — the one vector every shard scanned with.
func (c *Collection) Search(ctx context.Context, q *Graph, opt SearchOptions) (*SearchResult, error) {
	start := time.Now()
	if q == nil {
		return nil, errNilQuery
	}
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
		gens[i] = sh.gen.Load()
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

// SearchBatch answers queries[i] as result i, each query fanning out
// across the shards in turn. Options and nil queries are checked before
// any query runs, and the batch fails as a unit: the first error in query
// order (ctx cancellation included) and no partial results.
func (c *Collection) SearchBatch(ctx context.Context, queries []*Graph, opt SearchOptions) ([]*SearchResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	for i, q := range queries {
		if q == nil {
			return nil, fmt.Errorf("graphdim: nil query at index %d", i)
		}
	}
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

// mergeTopK merges the per-shard ranked lists into the global top k,
// ordered ascending by (score, global id). Each list holds at most k rows,
// so one sort of their concatenation is cheap. The result is never nil.
func mergeTopK(outs []shardOut, k int) []Result {
	n := 0
	for i := range outs {
		n += len(outs[i].res.Results)
	}
	merged := make([]Result, 0, n)
	for i := range outs {
		merged = append(merged, outs[i].res.Results...)
	}
	slices.SortFunc(merged, func(a, b Result) int {
		if c := cmp.Compare(a.Distance, b.Distance); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return merged[:min(k, len(merged))]
}

// Add maps new graphs into the collection: each graph gets the next global
// id and lands on the shard its id hashes to. The batch is mapped once,
// with the collection's one mapper and under the store budget; the shards
// then only publish, the way every writer lands a batch (Collection.check,
// the log write, then commit). The returned ids align with gs. Writers are
// serialized collection-wide; readers are never blocked (each shard
// publishes copy-on-write state).
//
// On a durable store the batch is appended to the collection's
// write-ahead log — and fsynced — before any shard publishes. The append
// is the commit point: a context that is dead before Add starts commits
// nothing, a failed append commits nothing, and once the append returns
// the batch lands in full and Add returns its ids. The mapping starts
// before Add takes the writer lock and ignores cancellation, so a durable
// Add waits for the slower of the mapping and the append, not their sum,
// and nothing can stop a logged batch from landing. Add never returns
// while its mapping is still running.
func (c *Collection) Add(ctx context.Context, gs ...*Graph) ([]int, error) {
	for i, g := range gs {
		if g == nil {
			return nil, fmt.Errorf("graphdim: nil graph at index %d", i)
		}
	}
	if len(gs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mapped := c.mapBatch(gs)
	c.addMu.Lock()
	defer c.addMu.Unlock()
	rec := wal.Record{Type: wal.TypeAdd, First: int(c.nextID.Load()), Graphs: gs}
	b, err := c.admit(rec)
	vecs := mapped()
	if err != nil {
		return nil, err
	}
	c.commit(b, vecs)
	ids := make([]int, len(gs))
	for i := range ids {
		ids[i] = rec.First + i
	}
	return ids, nil
}

// admit checks a live write's record as a batch of its own and, on a
// durable store, appends it to the log — write-ahead, so it is on disk
// before any shard state it produces can be observed. A refused record
// reaches neither the log nor the shards; an appended one then commits in
// full, as nothing after its check can fail. The caller holds addMu.
func (c *Collection) admit(rec wal.Record) (logBatch, error) {
	b, err := c.check([]wal.Record{rec})
	if err != nil {
		return logBatch{}, err
	}
	if c.wal != nil {
		if b.seq, err = c.wal.Append(rec); err != nil {
			return logBatch{}, fmt.Errorf("graphdim: wal append: %w", err)
		}
	}
	return b, nil
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

// mapBatch starts mapping an add batch once, with the collection's one
// mapper (every shard holds the same dimension set), fanning the graphs
// out under the store budget; the returned wait yields the vectors.
func (c *Collection) mapBatch(gs []*Graph) func() []*vecspace.BitVector {
	return mapBatch(c.shards[0].mapper, gs, func(n int, fn func(int)) {
		// A context that never ends: every graph maps, and nothing fails.
		_ = c.store.budget.ForContext(context.Background(), n, fn)
	})
}

// Remove tombstones the given global ids. An unknown or already-removed
// id fails the whole call with nothing logged and no shard modified.
func (c *Collection) Remove(ids ...int) error {
	if len(ids) == 0 {
		return nil
	}
	c.addMu.Lock()
	defer c.addMu.Unlock()
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	b, err := c.admit(wal.Record{Type: wal.TypeRemove, IDs: sorted})
	if err != nil {
		return err
	}
	c.commit(b, nil)
	return nil
}

// StaleRatios reports, per shard, how far the collection has drifted from
// its dimension selection, in [0, 1]: the fraction of a shard's id slots
// that are either live graphs the selection never saw (added after the
// build, and not since removed) or build-time graphs that are gone
// (tombstoned). A fresh collection reports 0, as does one whose added
// graphs have all been removed again — the live database then is exactly
// the one the dimensions were optimized for. Accuracy degrades as the
// ratio grows; build a new collection when it crosses an operator-chosen
// threshold (EXPERIMENTS.md uses 0.3 as a starting point) — nothing
// re-selects on its own, the ratio is the operator's signal. Compact drops
// tombstoned slots, so after it the gone-build-graphs term is zero and a
// shard's ratio is its live unseen graphs over its live graphs.
func (c *Collection) StaleRatios() []float64 {
	out := make([]float64, len(c.shards))
	for i, sh := range c.shards {
		out[i] = sh.snap.Load().staleRatio()
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
	// StaleRatio is the shard's entry of Collection.StaleRatios.
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
	// not durable; a durable store always has a log.
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
		// One load per shard: a row never straddles a concurrent write.
		snap := sh.snap.Load()
		s := ShardStats{
			Live:        snap.live(),
			Total:       len(snap.db),
			StaleRatio:  snap.staleRatio(),
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
