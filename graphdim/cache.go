package graphdim

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/pipeline"
)

// CacheOptions configures a collection's query-result cache (see
// CollectionOptions.Cache): an LRU over complete Search results, keyed
// by the canonical query bytes plus the effective SearchOptions, and
// fenced by the collection's shard generation vector — every shard
// carries a monotonic counter that moves when a mutation or Compact's
// reclaim swap commits, so a cached entry is served only while every shard is
// exactly as it was when the entry was computed. Invalidation is
// therefore free: no mutation ever walks the cache; entries whose
// generation vector no longer matches simply miss (and are dropped on
// touch).
//
// Queries with a Predicate closure bypass the cache (a function cannot
// be canonicalized); declarative Filters serialize to canonical bytes
// and cache normally. All three engines cache; the MCS-based ones gain
// the most, since a hit skips their verification work entirely.
type CacheOptions struct {
	// MaxEntries bounds the number of cached results. Zero disables the
	// cache entirely — the zero value of CacheOptions means "no cache".
	MaxEntries int
	// MaxBytes bounds the cache's approximate memory footprint (keys +
	// results + bookkeeping). Zero means no byte bound: only MaxEntries
	// limits the cache. A single result larger than MaxBytes is not
	// cached at all.
	MaxBytes int64
}

func (o CacheOptions) validate() error {
	if o.MaxEntries < 0 {
		return fmt.Errorf("graphdim: Cache.MaxEntries must be >= 0 (0 = no cache), got %d", o.MaxEntries)
	}
	if o.MaxBytes < 0 {
		return fmt.Errorf("graphdim: Cache.MaxBytes must be >= 0 (0 = no byte bound), got %d", o.MaxBytes)
	}
	return nil
}

func (o CacheOptions) enabled() bool { return o.MaxEntries > 0 }

// CacheStats is a point-in-time snapshot of a collection's query cache.
// The JSON names are the wire names of every stats endpoint.
type CacheStats struct {
	// Entries and Bytes describe the current contents.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Hits and Misses count cache lookups; Misses includes lookups that
	// found a generation-stale entry (also counted in Invalidations).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped by the LRU bounds; Invalidations
	// counts entries dropped because a shard generation moved.
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

// queryCache is the per-collection LRU. All state is guarded by mu —
// lookups are O(1) map hits and the critical sections are tiny compared
// to even a cached search's JSON encoding, so a sharded RWMutex scheme
// would buy nothing.
type queryCache struct {
	maxEntries int
	maxBytes   int64

	mu      sync.Mutex
	lru     *list.List // front = most recently used
	byKey   map[string]*list.Element
	bytes   int64
	hits    int64
	misses  int64
	evicted int64
	staled  int64
}

// cacheEntry is one cached result. res is treated as immutable: hits
// hand out shallow copies of the SearchResult with a fresh Results
// slice, so a caller mutating its result cannot corrupt the cache.
type cacheEntry struct {
	key  string
	gens []uint64
	res  *SearchResult
	size int64
}

func newQueryCache(opt CacheOptions) *queryCache {
	if !opt.enabled() {
		return nil
	}
	return &queryCache{
		maxEntries: opt.MaxEntries,
		maxBytes:   opt.MaxBytes,
		lru:        list.New(),
		byKey:      make(map[string]*list.Element),
	}
}

// cacheKey canonicalizes a query + effective options into the cache
// key: the scalar knobs that change a result (engine, k, verification
// dials, metric, the NoPrune escape hatch — it alters the Candidates
// work counter) followed by the query graph in the deterministic binary
// codec. Two structurally identical Graph values always collide
// (desired); isomorphic graphs built differently may not (a miss, never
// a wrong answer).
func cacheKey(q *Graph, opt SearchOptions) (string, bool) {
	if opt.Predicate != nil {
		return "", false
	}
	// Canonicalize spellings that cannot change the result, so they share
	// one entry: fields an engine ignores are zeroed, and the verified
	// engine's zero factor becomes the 3 it resolves to.
	switch opt.Engine {
	case EngineMapped:
		opt.VerifyFactor, opt.MaxCandidates, opt.Metric = 0, 0, MetricIndexDefault
	case EngineExact:
		opt.VerifyFactor, opt.MaxCandidates = 0, 0
	case EngineVerified:
		if opt.VerifyFactor == 0 {
			opt.VerifyFactor = 3
		}
	}
	var b bytes.Buffer
	var hdr [binary.MaxVarintLen64*4 + 2]byte
	n := 0
	hdr[n] = byte(opt.Engine)
	n++
	n += binary.PutUvarint(hdr[n:], uint64(opt.K))
	n += binary.PutUvarint(hdr[n:], uint64(opt.VerifyFactor))
	n += binary.PutUvarint(hdr[n:], uint64(opt.MaxCandidates))
	hdr[n] = byte(opt.Metric)<<1 | b2u(opt.NoPrune)
	n++
	b.Write(hdr[:n])
	if err := graph.WriteBinary(&b, q); err != nil {
		return "", false
	}
	// Declarative filters canonicalize — unlike a Predicate closure they
	// do not force a bypass. The count prefix (0 when unfiltered) keeps
	// filtered and unfiltered spellings from ever colliding.
	b.Write(pipeline.CanonFilters(opt.Filters, nil))
	return b.String(), true
}

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// get returns a copy of the entry under key if it exists and its
// generation vector still matches gens. A stale entry is removed on the
// spot (the "free" invalidation: nothing scans the cache on mutation).
func (c *queryCache) get(key string, gens []uint64) (*SearchResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	ent := e.Value.(*cacheEntry)
	if !slices.Equal(ent.gens, gens) {
		c.removeLocked(e)
		c.staled++
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(e)
	c.hits++
	res := *ent.res
	res.Results = append([]Result(nil), ent.res.Results...)
	return &res, true
}

// put stores a result computed against the given generation vector,
// evicting from the LRU tail until the bounds hold.
func (c *queryCache) put(key string, gens []uint64, res *SearchResult) {
	stored := *res
	stored.Results = append([]Result(nil), res.Results...)
	ent := &cacheEntry{
		key:  key,
		gens: append([]uint64(nil), gens...),
		res:  &stored,
		// Approximate footprint: the key, the result rows, the fence
		// vector, the Matched bitset, and list/map bookkeeping.
		size: int64(len(key)) + int64(len(stored.Results))*16 +
			int64(len(gens))*8 + int64(len(stored.Matched.words))*8 + 96,
	}
	if c.maxBytes > 0 && ent.size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.byKey[key]; ok {
		c.removeLocked(old)
	}
	c.byKey[key] = c.lru.PushFront(ent)
	c.bytes += ent.size
	for c.lru.Len() > c.maxEntries || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		c.removeLocked(c.lru.Back())
		c.evicted++
	}
}

func (c *queryCache) removeLocked(e *list.Element) {
	ent := c.lru.Remove(e).(*cacheEntry)
	delete(c.byKey, ent.key)
	c.bytes -= ent.size
}

func (c *queryCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:       c.lru.Len(),
		Bytes:         c.bytes,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evicted,
		Invalidations: c.staled,
	}
}

// cachedSearch wraps a search with the lookup/store protocol. The
// generation vector is read before the search runs: if a mutation
// commits in between, the stored vector is already stale and the entry
// ages out on first touch — the race costs a cache miss, never a stale
// answer (see Index.Generation for the ordering argument).
func (c *queryCache) cachedSearch(key string, gens []uint64, start time.Time,
	search func() (*SearchResult, error)) (*SearchResult, error) {
	if res, ok := c.get(key, gens); ok {
		res.Elapsed = time.Since(start)
		return res, nil
	}
	res, err := search()
	if err != nil {
		return nil, err
	}
	c.put(key, gens, res)
	return res, nil
}
