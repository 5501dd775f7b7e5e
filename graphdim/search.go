package graphdim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/pipeline"
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
	// and safe for concurrent calls (a collection scans its shards in
	// parallel).
	Predicate func(id int, g *Graph) bool
	// Filters restricts the search with declarative structural
	// predicates (see pipeline.Filter), ANDed with each other and with
	// Predicate. Unlike Predicate, filters push down: dimension and ones
	// predicates (read from the vector tiles) and label predicates (read
	// from the label index) become part of the scan's skip bitset, so an
	// id outside them costs a mask, never a call, and the whole chain
	// serializes canonically, so filtered queries stay cacheable where a
	// Predicate closure must bypass the cache.
	Filters []*pipeline.Filter
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
	// Candidates is how many graphs the final ranking stage scored: for
	// the mapped engine the ids put in its top-K heap (the admitted ids
	// that beat the heap's worst, by distance and then id, when the scan
	// reached them — a small fraction of the collection once the heap is
	// full), the admitted scan size for EngineExact, and the number of MCS
	// verifications for EngineVerified. A Collection reports the sum over
	// its shards, and each shard verifies its own min(VerifyFactor·K,
	// MaxCandidates) candidates — 60, not 30, for K=10 at factor 3 on two
	// shards.
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

// compile compiles the filters fs against this snapshot: dimension and
// ones predicates read the block's tiles, label predicates the label
// index — built on first demand, which on a mapped snapshot is the one
// whole-corpus fault (see labelIndex), and the one way this can fail
// other than a dimension out of range.
func (s *snapshot) compile(fs []*pipeline.Filter) (*pipeline.Compiled, error) {
	cat := pipeline.Catalog{N: len(s.db), Block: s.block}
	for _, f := range fs {
		if len(f.VertexLabels) > 0 || len(f.EdgeLabels) > 0 {
			labels, err := s.labelIndex()
			if err != nil {
				return nil, err
			}
			cat.Labels = labels
			break
		}
	}
	comp, err := pipeline.Compile(fs, cat)
	if err != nil {
		return nil, fmt.Errorf("graphdim: %v", err)
	}
	return comp, nil
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

// Search answers a top-k similarity query with per-query options: engine
// choice, verification factor, metric override, and a result predicate
// (see SearchOptions). It reads an immutable snapshot, so a Search
// observes a consistent database even while Add runs concurrently, and it
// honours ctx — a cancelled search returns ctx.Err() promptly, which
// bounds the tail latency of the MCS-based engines.
//
// Search stays exported, like Add, because the benchmark harness queries
// a bare Index; applications search a Collection, whose Search takes the
// same options and returns exactly this ranking.
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
	var skip []uint64 // the filters' pushdown as a skip bitset, nil = none
	if len(opt.Filters) > 0 {
		comp, err := s.compile(opt.Filters)
		if err != nil {
			return nil, err
		}
		pred = composePredicate(comp.Residual, pred)
		// A keep bitset that kept nothing is still a restriction — to
		// nothing — not a licence to scan everything. Its complement, with
		// the tombstones, is the skip bitset: an id outside the filter
		// costs the scan a mask, never a call.
		if skip = comp.Keep; skip != nil {
			for w := range skip {
				skip[w] = ^skip[w] | s.dead[w]
			}
		}
	}
	// admit is what the scan asks about an id its skip bitset clears — nil
	// unless the caller or a filter's residual supplied something to ask.
	// It resolves the graph, so on a mapped snapshot only the payloads of
	// surviving ids fault in. A payload that does not decode fails the
	// query: admit remembers the first such error and admits nothing after
	// it.
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
	lim := s.limits(admit)
	if skip != nil {
		lim.Skip = skip
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
		ranking, candidates, err = topk.MappedScan(ctx, s.block, qv, lim, s.order(), opt.K, scr)
	case EngineVerified:
		factor := opt.VerifyFactor
		if factor == 0 {
			factor = 3
		}
		ranking, candidates, err = topk.VerifiedContext(ctx, s.graphAt, s.block, q, qv,
			opt.K, factor, opt.MaxCandidates, metric, ix.mcsOpt, lim, s.order(), scr)
	case EngineExact:
		ranking, err = topk.ExactContext(ctx, len(s.db), s.graphAt, q, metric, ix.mcsOpt, lim, s.order())
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
