package graphdim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/pipeline"
)

// CacheOptions configures a collection's query-result cache (see
// CollectionOptions.Cache): one LRU over complete results — a
// Collection.Search result, keyed by the canonical query bytes plus the
// effective SearchOptions, and a Collection.Query pipeline result, keyed
// by its parsed plan — fenced by the collection's shard generation
// vector. Every shard carries a monotonic counter that moves when a
// mutation or Compact's reclaim swap commits, so a cached entry is served
// only while every shard is exactly as it was when the entry was
// computed. Invalidation is therefore free: no mutation ever walks the
// cache; entries whose generation vector no longer matches simply miss
// (and are dropped on touch).
//
// Searches with a Predicate closure bypass the cache (a function cannot
// be canonicalized); declarative Filters serialize to canonical bytes
// and cache normally. Every pipeline caches: a search, and a scan —
// count, group_by, limit or a bare filter — alike. All three engines
// cache; the MCS-based ones gain the most, since a hit skips their
// verification work entirely.
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

	mu sync.Mutex
	// lru is the sentinel of the ring of entries: lru.next is the most
	// recently used, lru.prev the eviction candidate. The links live in
	// the entries, so an entry costs no list element of its own.
	lru   cacheEntry
	byKey map[string]*cacheEntry
	// gens is the fence vector of the latest put. Entries stored under an
	// equal vector share it (a stored vector is never written), so a
	// cache filled between two mutations holds one copy.
	gens    []uint64
	bytes   int64
	hits    int64
	misses  int64
	evicted int64
	staled  int64
}

// cacheEntry is one cached result: a *SearchResult or a *pipeEntry.
// val is immutable once stored — put stores a copy and every hit renders
// a fresh one — so no caller can corrupt the cache by mutating what it
// was handed.
type cacheEntry struct {
	prev, next *cacheEntry // the LRU ring
	key        string
	gens       []uint64
	val        any
	size       int64
}

// Key kinds: the first byte of every key, so a Search key and a pipeline
// key never collide.
const (
	keySearch byte = iota
	keyPipeline
)

func newQueryCache(opt CacheOptions) *queryCache {
	if !opt.enabled() {
		return nil
	}
	c := &queryCache{
		maxEntries: opt.MaxEntries,
		maxBytes:   opt.MaxBytes,
		byKey:      make(map[string]*cacheEntry),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// appendDials appends the search dials that change a result, with the
// spellings that cannot change it canonicalized so they share one entry:
// fields an engine ignores are zeroed, and the verified engine's zero
// factor becomes the 3 it resolves to. Search and pipeline keys both
// encode their dials here.
func appendDials(dst []byte, opt SearchOptions) []byte {
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
	dst = append(dst, byte(opt.Engine))
	dst = binary.AppendUvarint(dst, uint64(opt.K))
	dst = binary.AppendUvarint(dst, uint64(opt.VerifyFactor))
	dst = binary.AppendUvarint(dst, uint64(opt.MaxCandidates))
	return append(dst, byte(opt.Metric))
}

// cacheKey canonicalizes a query + effective options into the cache
// key: the scalar knobs that change a result (engine, k, verification
// dials, metric) followed by the query graph in the deterministic binary
// codec. Two structurally identical Graph values always collide
// (desired); isomorphic graphs built differently may not (a miss, never
// a wrong answer).
func cacheKey(q *Graph, opt SearchOptions) (string, bool) {
	if opt.Predicate != nil {
		return "", false
	}
	b := bytes.NewBuffer(appendDials([]byte{keySearch}, opt))
	if err := graph.WriteBinary(b, q); err != nil {
		return "", false
	}
	// Declarative filters canonicalize — unlike a Predicate closure they
	// do not force a bypass. The count prefix (0 when unfiltered) keeps
	// filtered and unfiltered spellings from ever colliding.
	b.Write(pipeline.CanonFilters(opt.Filters, nil))
	return b.String(), true
}

// pipelineKey is the cache key of a planned pipeline, built from the
// plan without building its query graph: the filter chain, then the
// search stage — its dials (opt, canonicalized as cacheKey does) and its
// query as the tagged wire spec, or as the binary codec of Search.G when
// the Go API set it (G wins, as in Search.QueryGraph) — then topk,
// limit, and the terminal count or group_by. Every field is
// length-prefixed or fixed-width, so two plans share a key only when
// they spell the same pipeline.
func pipelineKey(pl *pipeline.Plan, opt SearchOptions) string {
	b := pipeline.CanonFilters(pl.Filters, []byte{keyPipeline})
	switch ps := pl.Search; {
	case ps == nil:
		b = append(b, 0)
	case ps.G != nil:
		buf := bytes.NewBuffer(appendDials(append(b, 1), opt))
		buf.WriteByte('g')
		_ = graph.WriteBinary(buf, ps.G) // a bytes.Buffer never fails
		b = buf.Bytes()
	default:
		b = append(appendDials(append(b, 1), opt), 's')
		b = binary.AppendUvarint(b, uint64(len(ps.Query.Labels)))
		for _, l := range ps.Query.Labels {
			b = binary.AppendVarint(b, int64(l))
		}
		b = binary.AppendUvarint(b, uint64(len(ps.Query.Edges)))
		for _, e := range ps.Query.Edges {
			b = binary.AppendVarint(b, int64(e[0]))
			b = binary.AppendVarint(b, int64(e[1]))
			b = binary.AppendVarint(b, int64(e[2]))
		}
	}
	var topk, limit int
	if pl.TopK != nil {
		topk = pl.TopK.K
	}
	if pl.Limit != nil {
		limit = pl.Limit.N
	}
	b = binary.AppendUvarint(b, uint64(topk))
	b = binary.AppendUvarint(b, uint64(limit))
	switch g := pl.GroupBy; {
	case pl.Count != nil:
		b = append(b, 1)
	case g != nil:
		b = append(b, 2)
		b = binary.AppendUvarint(b, uint64(len(g.Key)))
		b = append(b, g.Key...)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(g.BucketWidth))
		b = binary.AppendUvarint(b, uint64(g.Top))
	default:
		b = append(b, 0)
	}
	return string(b)
}

// pipeEntry is a pipeline result in the compact form the cache keeps:
// rows as flat (id, distance) pairs rather than a *float64 each, the
// count, the groups, and the stats the plan determines — matched,
// candidates, engine and the pushdown/fallback split — without stage
// timings.
type pipeEntry struct {
	rows             []rowEntry // nil when the result has no rows
	groups           []pipeline.Group
	count            int64
	matched          int64
	candidates       int64
	engine           string
	pushed, fallback int32
	hasCount         bool
	distances        bool // the rows carry distances (a search's rows)
}

type rowEntry struct {
	id       int
	distance float64
}

// newPipeEntry copies res into its cached form.
func newPipeEntry(res *pipeline.Result) *pipeEntry {
	st := &res.Stats
	e := &pipeEntry{
		groups:     cloneGroups(res.Groups),
		matched:    st.Matched,
		candidates: st.Candidates,
		engine:     st.Engine,
		pushed:     int32(st.PushedPredicates),
		fallback:   int32(st.FallbackPredicates),
	}
	if res.Count != nil {
		e.count, e.hasCount = *res.Count, true
	}
	if res.Rows != nil {
		e.rows = make([]rowEntry, len(res.Rows))
		for i, r := range res.Rows {
			e.rows[i].id = r.ID
			if r.Distance != nil {
				e.rows[i].distance, e.distances = *r.Distance, true
			}
		}
	}
	return e
}

// result renders a fresh Result the caller owns; its stage timings are
// the caller's to set.
func (e *pipeEntry) result() *pipeline.Result {
	res := &pipeline.Result{
		Groups: cloneGroups(e.groups),
		Stats: pipeline.Stats{
			Matched:            e.matched,
			Candidates:         e.candidates,
			Engine:             e.engine,
			PushedPredicates:   int(e.pushed),
			FallbackPredicates: int(e.fallback),
		},
	}
	if e.hasCount {
		count := e.count
		res.Count = &count
	}
	if e.rows != nil {
		res.Rows = make([]pipeline.ResultRow, len(e.rows))
		var ds []float64
		if e.distances {
			ds = make([]float64, len(e.rows))
		}
		for i, r := range e.rows {
			res.Rows[i].ID = r.id
			if ds != nil {
				ds[i] = r.distance
				res.Rows[i].Distance = &ds[i]
			}
		}
	}
	return res
}

// size approximates the entry's footprint for CacheOptions.MaxBytes.
func (e *pipeEntry) size() int64 {
	n := int64(len(e.rows))*16 + 112
	for _, g := range e.groups {
		n += int64(len(g.Key)) + 80
	}
	return n
}

// cloneGroups deep-copies groups: the values, and the distance spreads
// the groups point at (one backing array for all of them).
func cloneGroups(gs []pipeline.Group) []pipeline.Group {
	if gs == nil {
		return nil
	}
	out := append([]pipeline.Group(nil), gs...)
	var ds []float64
	for i := range out {
		for _, p := range []**float64{&out[i].MinDistance, &out[i].MaxDistance, &out[i].MeanDistance} {
			if *p != nil {
				if ds == nil {
					ds = make([]float64, 0, 3*len(out))
				}
				ds = append(ds, **p)
				*p = &ds[len(ds)-1]
			}
		}
	}
	return out
}

// get returns the value stored under key if it exists and its
// generation vector still matches gens. A stale entry is removed on the
// spot (the "free" invalidation: nothing scans the cache on mutation).
// The value is shared: callers render a copy from it.
func (c *queryCache) get(key string, gens []uint64) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	if !slices.Equal(ent.gens, gens) {
		c.removeLocked(ent)
		c.staled++
		c.misses++
		return nil, false
	}
	c.unlink(ent)
	c.pushFront(ent)
	c.hits++
	return ent.val, true
}

// put stores val, a copy no caller holds, computed against the given
// generation vector, and evicts from the LRU tail until the bounds hold.
// size is val's approximate footprint; the key, the fence vector and the
// list/map bookkeeping are added here.
func (c *queryCache) put(key string, gens []uint64, val any, size int64) {
	ent := &cacheEntry{
		key:  key,
		val:  val,
		size: size + int64(len(key)) + int64(len(gens))*8 + 96,
	}
	if c.maxBytes > 0 && ent.size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !slices.Equal(c.gens, gens) {
		c.gens = slices.Clone(gens)
	}
	ent.gens = c.gens
	if old, ok := c.byKey[key]; ok {
		c.removeLocked(old)
	}
	c.byKey[key] = ent
	c.pushFront(ent)
	c.bytes += ent.size
	for len(c.byKey) > c.maxEntries || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		c.removeLocked(c.lru.prev)
		c.evicted++
	}
}

func (c *queryCache) removeLocked(ent *cacheEntry) {
	c.unlink(ent)
	delete(c.byKey, ent.key)
	c.bytes -= ent.size
}

func (c *queryCache) pushFront(ent *cacheEntry) {
	ent.prev, ent.next = &c.lru, c.lru.next
	ent.next.prev = ent
	c.lru.next = ent
}

func (c *queryCache) unlink(ent *cacheEntry) {
	ent.prev.next, ent.next.prev = ent.next, ent.prev
}

func (c *queryCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:       len(c.byKey),
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
// answer (see the gen field of Index for the ordering argument). Errors are
// never stored.
func (c *queryCache) cachedSearch(key string, gens []uint64, start time.Time,
	search func() (*SearchResult, error)) (*SearchResult, error) {
	if v, ok := c.get(key, gens); ok {
		res := *v.(*SearchResult)
		res.Results = slices.Clone(res.Results)
		res.Elapsed = time.Since(start)
		return &res, nil
	}
	res, err := search()
	if err != nil {
		return nil, err
	}
	stored := *res
	stored.Results = slices.Clone(res.Results)
	// The result rows and the Matched bitset.
	c.put(key, gens, &stored, int64(len(stored.Results))*16+int64(len(stored.Matched.words))*8)
	return res, nil
}

// cachedQuery is cachedSearch's protocol for a pipeline: gens is read
// before run, errors are never stored, and a hit renders a fresh Result
// whose one stage timing is the lookup itself ("cache"), so no stale
// search or scan time is reported again.
func (c *queryCache) cachedQuery(key string, gens []uint64, start time.Time,
	run func() (*pipeline.Result, error)) (*pipeline.Result, error) {
	if v, ok := c.get(key, gens); ok {
		res := v.(*pipeEntry).result()
		ms := msSince(start)
		res.Stats.Stages = []pipeline.StageTiming{{Stage: "cache", ElapsedMS: ms}}
		res.Stats.ElapsedMS = ms
		return res, nil
	}
	res, err := run()
	if err != nil {
		return nil, err
	}
	e := newPipeEntry(res)
	c.put(key, gens, e, e.size())
	return res, nil
}
