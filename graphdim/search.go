package graphdim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/pipeline"
	"repro/internal/pool"
	"repro/internal/topk"
	"repro/internal/vecspace"
)

// Engine selects the query engine behind Search — the paper's retrieve /
// verify split surfaced as a per-query dial.
type Engine int

const (
	// EngineMapped is the paper's online path: map the query onto the
	// dimensions with VF2 feature matching, then scan the vector space by
	// normalized Euclidean distance. Milliseconds per query; accuracy
	// comes from the DS-preserved mapping.
	EngineMapped Engine = iota
	// EngineVerified retrieves VerifyFactor·K candidates in the mapped
	// space and re-ranks just those with the exact (budgeted) MCS
	// dissimilarity — the accuracy/latency dial between the mapped scan
	// and exact search.
	EngineVerified
	// EngineExact ranks the whole database by MCS dissimilarity — orders
	// of magnitude slower; ground truth.
	EngineExact
)

// String implements fmt.Stringer with the names ParseEngine accepts.
func (e Engine) String() string {
	switch e {
	case EngineMapped:
		return "mapped"
	case EngineVerified:
		return "verified"
	case EngineExact:
		return "exact"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// ParseEngine converts an engine name ("mapped", "verified", "exact") to
// its Engine — the inverse of String, used by the HTTP and CLI frontends.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "mapped":
		return EngineMapped, nil
	case "verified":
		return EngineVerified, nil
	case "exact":
		return EngineExact, nil
	}
	return 0, fmt.Errorf("graphdim: unknown engine %q (want mapped, verified or exact)", s)
}

// MetricChoice optionally overrides the index's dissimilarity metric for
// one query. The zero value keeps the metric the index was built with, so
// SearchOptions{} always means "the index defaults".
type MetricChoice int

const (
	// MetricIndexDefault scores with the metric the index was built with.
	MetricIndexDefault MetricChoice = iota
	// MetricDelta1 forces Eq. (1), normalization by the larger graph.
	MetricDelta1
	// MetricDelta2 forces Eq. (2), normalization by the average size.
	MetricDelta2
)

// SearchOptions configures one Search call. Zero values select defaults
// (noted per field); K is the only required field.
type SearchOptions struct {
	// K is the number of results wanted. Required: Validate rejects
	// K <= 0. Fewer than K results are returned only when the (filtered)
	// database is smaller than K.
	K int
	// Engine picks the query engine; default EngineMapped.
	Engine Engine
	// VerifyFactor is EngineVerified's candidate multiplier: the engine
	// retrieves VerifyFactor·K mapped-space candidates and verifies each
	// with an MCS search. Zero means 3. Values overshooting the database
	// degrade to verifying everything (= exact search). Ignored by the
	// other engines.
	VerifyFactor int
	// MaxCandidates caps the number of candidates EngineVerified verifies
	// regardless of VerifyFactor·K — a latency bound, since each
	// verification is one MCS search. Like VerifyFactor·K it applies per
	// shard: a Collection of s shards verifies up to s·MaxCandidates
	// graphs for one query (the shards search in parallel, so the bound
	// on latency holds; the bound on work scales with s). Zero means no
	// cap. Ignored by the other engines.
	MaxCandidates int
	// Metric overrides the dissimilarity metric for EngineVerified and
	// EngineExact scoring; default MetricIndexDefault (the build-time
	// metric). EngineMapped ranks by mapped-space distance and ignores it.
	Metric MetricChoice
	// Predicate, when non-nil, restricts the search to graphs it admits:
	// ids failing the predicate are skipped before scoring, so the top-K
	// is taken over the admitted subset. It is called with the graph's id
	// and the graph itself; it must be cheap (it runs inside the scan)
	// and safe for concurrent calls (SearchBatch fans out).
	Predicate func(id int, g *Graph) bool
	// Filters restricts the search with declarative structural
	// predicates (see pipeline.Filter), ANDed with each other and with
	// Predicate. Unlike Predicate, filters push down: the parts a
	// posting list or ones-count bucket can answer restrict the scan to
	// the matching ids before any distance is computed, and the whole
	// chain serializes canonically, so filtered queries stay cacheable
	// where a Predicate closure must bypass the cache.
	Filters []*pipeline.Filter
	// NoPrune disables posting-list candidate pruning for this query,
	// forcing the flat scan of every live vector. Results are identical
	// either way — pruning is an exact accelerator, and an adaptive cost
	// model already falls back to the flat scan when the query's matched
	// dimensions cover too much of the collection — so the knob exists
	// for measurement (benchmarks pin the pruned/flat ratio with it) and
	// as an operational escape hatch. Ignored by EngineExact, which
	// never scans the vector space.
	NoPrune bool
	// NoDefaults disables the collection-level defaults overlay in
	// Collection.Search: zero-valued fields then mean the library
	// defaults, exactly as in Index.Search. It lets a caller request the
	// zero-valued settings (EngineMapped, VerifyFactor 3, …) explicitly
	// on a collection whose defaults say otherwise. Index.Search ignores
	// it.
	NoDefaults bool
}

// Validate reports whether the options are usable: K must be positive,
// VerifyFactor and MaxCandidates non-negative, Engine and Metric known
// values.
func (o SearchOptions) Validate() error {
	if o.K <= 0 {
		return fmt.Errorf("graphdim: k must be positive, got %d", o.K)
	}
	if o.Engine != EngineMapped && o.Engine != EngineVerified && o.Engine != EngineExact {
		return fmt.Errorf("graphdim: unknown engine %d", int(o.Engine))
	}
	if o.VerifyFactor < 0 {
		return fmt.Errorf("graphdim: VerifyFactor must be >= 0 (0 = default 3), got %d", o.VerifyFactor)
	}
	if o.MaxCandidates < 0 {
		return fmt.Errorf("graphdim: MaxCandidates must be >= 0 (0 = uncapped), got %d", o.MaxCandidates)
	}
	if o.Metric != MetricIndexDefault && o.Metric != MetricDelta1 && o.Metric != MetricDelta2 {
		return fmt.Errorf("graphdim: unknown metric choice %d", int(o.Metric))
	}
	for i, f := range o.Filters {
		if f == nil {
			return fmt.Errorf("graphdim: nil filter at index %d", i)
		}
		if err := f.Validate(); err != nil {
			return fmt.Errorf("graphdim: filter %d: %v", i, err)
		}
	}
	return nil
}

// DimensionBits is the set of index dimensions a query graph contains —
// the query's binary vector, exposed read-only. Bit r corresponds to
// Index.Dimensions()[r].
type DimensionBits struct {
	words []uint64
	n     int
}

// Len returns the dimensionality p of the space.
func (b DimensionBits) Len() int { return b.n }

// Contains reports whether dimension r is matched.
func (b DimensionBits) Contains(r int) bool {
	if r < 0 || r >= b.n {
		return false
	}
	return b.words[r/64]&(1<<(uint(r)%64)) != 0
}

// Count returns the number of matched dimensions.
func (b DimensionBits) Count() int {
	// Bits at or beyond n are never set (the words come from a
	// BitVector of dimension n), so a plain popcount is exact.
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Indices returns the matched dimensions in ascending order.
func (b DimensionBits) Indices() []int {
	var out []int
	for r := 0; r < b.n; r++ {
		if b.Contains(r) {
			out = append(out, r)
		}
	}
	return out
}

func dimensionBits(v *vecspace.BitVector) DimensionBits {
	return DimensionBits{
		words: append([]uint64(nil), v.Words()...),
		n:     v.Len(),
	}
}

// SearchResult is one query's answer plus the metadata a serving layer
// needs: which engine ran, how much work it did, and how the query landed
// in the dimension space.
type SearchResult struct {
	// Results holds up to K answers, most similar first.
	Results []Result
	// Engine is the engine that produced Results.
	Engine Engine
	// Candidates is how many graphs the final ranking stage scored: the
	// ids the mapped scan actually computed a distance for (the admitted
	// scan size when the flat scan ran, minus whole zones the SoA
	// block's zone map proved irrelevant; with posting-list pruning, the
	// matched candidates plus however much of the unmatched stream the
	// top-K needed — possibly far fewer), the admitted scan size for
	// EngineExact, and the number of MCS verifications for
	// EngineVerified. A Collection reports the sum over its shards, and
	// each shard verifies its own min(VerifyFactor·K, MaxCandidates)
	// candidates — 60, not 30, for K=10 at factor 3 on two shards.
	Candidates int
	// Matched is the query's binary vector over the index dimensions —
	// which of Index.Dimensions() the query contains. A query matching
	// few dimensions carries little signal in the mapped space; serving
	// layers can use Count() to route such queries to EngineVerified.
	Matched DimensionBits
	// Elapsed is the wall-clock time Search spent on this query,
	// including the VF2 mapping step.
	Elapsed time.Duration
}

// planCandidates asks the snapshot's posting index for a pruned scan
// plan covering the top wantK of the mapped ranking, translating it
// into the iterator topk takes. It returns nil — meaning "flat scan" —
// when pruning is disabled, or when the cost model concludes the
// query's matched dimensions cover too much of the collection for
// pruning to pay (see posting.Plan).
func (s *snapshot) planCandidates(qv *vecspace.BitVector, wantK int, noPrune bool) *topk.Candidates {
	if noPrune || s.post == nil {
		return nil
	}
	pl := s.post.Plan(qv, wantK)
	if pl == nil {
		return nil
	}
	return &topk.Candidates{
		K:         wantK,
		QueryOnes: pl.QueryOnes,
		Matched:   pl.Matched,
		Rest:      pl.Rest,
	}
}

// catalog exposes the snapshot's pushdown structures to the filter
// compiler. It is only called on filtered paths: the label index it
// resolves is built lazily, and on a mapped snapshot that build is the
// one whole-corpus fault (see labelIndex) — and the one way it can fail.
func (s *snapshot) catalog() (pipeline.Catalog, error) {
	labels, err := s.labelIndex()
	return pipeline.Catalog{N: len(s.db), Post: s.post, Labels: labels}, err
}

// composePredicate ANDs a compiled filter residual with a caller
// predicate, keeping nil when both are nil.
func composePredicate(residual func(id int, g *Graph) bool, pred func(id int, g *Graph) bool) func(id int, g *Graph) bool {
	if residual == nil {
		return pred
	}
	if pred == nil {
		return residual
	}
	return func(id int, g *Graph) bool {
		return residual(id, g) && pred(id, g)
	}
}

// memberFunc builds an O(1) membership test over a sorted id list — a
// bitmap when the id space is known, so the flat/exact scans can take a
// pushdown intersection as a predicate.
func memberFunc(ids []int32, n int) func(int) bool {
	words := make([]uint64, (n+63)/64)
	for _, id := range ids {
		if int(id) < n {
			words[id/64] |= 1 << (uint(id) % 64)
		}
	}
	return func(id int) bool {
		return id < n && words[id/64]&(1<<(uint(id)%64)) != 0
	}
}

// Search answers a top-k similarity query with per-query options: engine
// choice, verification factor, metric override, and a result predicate
// (see SearchOptions). It reads an immutable snapshot, so a Search
// observes a consistent database even while Add/Remove run concurrently,
// and it honours ctx — a cancelled search returns ctx.Err() promptly,
// which bounds the tail latency of the MCS-based engines.
func (ix *Index) Search(ctx context.Context, q *Graph, opt SearchOptions) (*SearchResult, error) {
	start := time.Now()
	if q == nil {
		return nil, errNilQuery
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	qv, err := ix.mapper.MapContext(ctx, q)
	if err != nil {
		return nil, err
	}
	return ix.searchMapped(ctx, ix.snap.Load(), q, qv, opt, start)
}

var errNilQuery = errors.New("graphdim: nil query")

// searchMapped is Search after the map, against s, a snapshot of ix the
// caller loaded (a collection translates the ids it gets back through the
// same snapshot's table): q is non-nil, opt is valid and qv is q's vector
// over this index's dimensions — from ix.mapper, or from the mapper of an
// index with the same dims digest (a collection maps once for all its
// shards). Ids — the predicate's and the results' — are s's own.
func (ix *Index) searchMapped(ctx context.Context, s *snapshot, q *Graph, qv *vecspace.BitVector,
	opt SearchOptions, start time.Time) (*SearchResult, error) {
	metric := ix.metric
	switch opt.Metric {
	case MetricDelta1:
		metric = Delta1
	case MetricDelta2:
		metric = Delta2
	}

	pred := opt.Predicate
	var (
		filtered []int32        // pushdown ids for the pruned plan
		pushed   bool           // filtered is in force, even when it is empty
		member   func(int) bool // pushdown ids as a predicate, nil = none
	)
	if len(opt.Filters) > 0 {
		cat, cerr := s.catalog()
		if cerr != nil {
			return nil, cerr
		}
		comp, cerr := pipeline.CompileFilters(opt.Filters, cat)
		if cerr != nil {
			return nil, fmt.Errorf("graphdim: %v", cerr)
		}
		pred = composePredicate(comp.Residual, pred)
		if comp.Restricted {
			if opt.Engine != EngineExact && !opt.NoPrune {
				// The pruned scan takes the pushed-down ids directly:
				// score exactly these (same distance expression as the
				// flat scan), stream nothing else. IDs may include
				// zero-overlap ids — harmless, they are scored from
				// their vectors like any matched id. An intersection
				// that matched nothing is still a restriction — to
				// nothing — not a licence to scan everything.
				filtered, pushed = comp.IDs, true
			} else {
				// Flat and exact paths take membership as a predicate.
				member = memberFunc(comp.IDs, len(s.db))
			}
		}
	}
	// admit is what the scan asks about an id that is not dead — nil unless
	// the caller or a filter supplied something to ask. Membership is asked
	// first; the graph is resolved last, so on a mapped snapshot only the
	// payloads of surviving ids fault in. A payload that does not decode
	// fails the query: admit remembers the first such error and admits
	// nothing after it.
	var (
		admit    topk.Alive
		graphErr error
	)
	if pred != nil {
		admit = func(id int) bool {
			if graphErr != nil {
				return false
			}
			g, err := s.graphAt(id)
			if err != nil {
				graphErr = err
				return false
			}
			return pred(id, g)
		}
	}
	if member != nil {
		inner := admit
		admit = func(id int) bool { return member(id) && (inner == nil || inner(id)) }
	}
	lim := s.limits(admit)
	plan := func(wantK int) *topk.Candidates {
		if pushed {
			return &topk.Candidates{
				K:         wantK,
				QueryOnes: qv.Ones(),
				Matched:   filtered,
				Rest:      func(func(id, ones int32) bool) {},
			}
		}
		return s.planCandidates(qv, wantK, opt.NoPrune)
	}
	// Both vector-space engines scan through the snapshot's SoA block and
	// a pooled scratch arena: rankings they return alias scr, so results
	// are copied into []Result below before the deferred Release.
	scr := topk.NewScratch()
	defer scr.Release()
	var (
		ranking    topk.Ranking
		candidates int
		err        error
	)
	switch opt.Engine {
	case EngineMapped:
		ranking, candidates, err = topk.MappedScan(ctx, s.block, qv, lim, opt.K, plan(opt.K), scr)
	case EngineVerified:
		factor := opt.VerifyFactor
		if factor == 0 {
			factor = 3
		}
		// The retrieval stage needs a factor·K-deep ranking; size the
		// pruning plan's cost model for that depth (VerifiedContext
		// re-derives the exact clamped count itself).
		wantEstimate := opt.K * factor
		if wantEstimate/factor != opt.K {
			wantEstimate = len(s.db) // overflow: verify everything
		}
		if opt.MaxCandidates > 0 && wantEstimate > opt.MaxCandidates {
			wantEstimate = opt.MaxCandidates
		}
		ranking, candidates, err = topk.VerifiedContext(ctx, s.graphAt, s.block, q, qv,
			opt.K, factor, opt.MaxCandidates, metric, ix.mcsOpt, lim,
			plan(wantEstimate), scr)
	case EngineExact:
		ranking, err = topk.ExactContext(ctx, len(s.db), s.graphAt, q, metric, ix.mcsOpt, lim)
		candidates = len(ranking)
	}
	if graphErr != nil {
		return nil, graphErr
	}
	if err != nil {
		return nil, err
	}

	k := opt.K
	if k > len(ranking) {
		k = len(ranking)
	}
	results := make([]Result, k)
	for i := 0; i < k; i++ {
		results[i] = Result{ID: ranking[i].ID, Distance: ranking[i].Score}
	}
	return &SearchResult{
		Results:    results,
		Engine:     opt.Engine,
		Candidates: candidates,
		Matched:    dimensionBits(qv),
		Elapsed:    time.Since(start),
	}, nil
}

// SearchBatch answers many queries with the same options, fanning them
// across the index's worker pool (the Workers value Build was configured
// with, or one worker per CPU for a loaded index). Result i corresponds
// to queries[i]. The batch is validated up front (nil queries, bad
// options) and fails as a unit: if any query errors — including ctx
// cancellation — SearchBatch returns the first error in query order and
// no partial results.
func (ix *Index) SearchBatch(ctx context.Context, queries []*Graph, opt SearchOptions) ([]*SearchResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	for i, q := range queries {
		if q == nil {
			return nil, fmt.Errorf("graphdim: nil query at index %d", i)
		}
	}
	out := make([]*SearchResult, len(queries))
	errs := make([]error, len(queries))
	poolErr := pool.ForContext(ctx, ix.queryWorkers(), len(queries), func(i int) {
		out[i], errs[i] = ix.Search(ctx, queries[i], opt)
	})
	// Per-query errors take precedence in query order; a pool-level error
	// can only be ctx.Err(), which the per-query errors already reflect
	// for every query that started.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if poolErr != nil {
		return nil, poolErr
	}
	return out, nil
}
