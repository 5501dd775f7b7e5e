package graphdim

import (
	"context"
	"math/bits"
	"time"

	"repro/internal/pipeline"
)

// Query runs a composable pipeline — filter stages, an optional
// similarity stage, aggregate stages — against the collection in one
// call (see internal/pipeline for the stage model).
//
// On a collection with a cache (CacheOptions), a valid pipeline is one
// lookup: its key is built from the parsed plan, and a hit under the
// current shard generation vector returns a copy of the whole result —
// a search's rows, a count or a group_by alike — whose one stage timing
// is "cache". A miss runs the pipeline and stores its result.
//
// Pipelines with a similarity stage run it through the collection's
// uncached search fan-out: declarative filters travel as SearchOptions.
// Filters, so they push down into each shard's scan; aggregation then
// folds the globally merged top-k. Pipelines without a similarity stage
// are scans: every shard compiles the filters against its own snapshot,
// streams the matching graphs through a partial aggregator, and the
// partials merge associatively into the single answer — matched rows
// are never materialized.
//
// Errors caused by the pipeline itself (a bad query graph, a dimension
// predicate out of range) are *pipeline.StageError values naming the
// offending stage.
func (c *Collection) Query(ctx context.Context, p *pipeline.Pipeline) (*pipeline.Result, error) {
	start := time.Now()
	pl, err := p.Plan()
	if err != nil {
		return nil, err
	}
	// Dimension predicates are range-checked up front against the shared
	// build-time dimension set so the wire surface can reject them as
	// the client's fault; the j-th filter is the j-th stage (filters are
	// the only stages allowed before everything else).
	dims := c.shards[0].Dimensions()
	for j, f := range pl.Filters {
		if err := f.CheckDims(len(dims)); err != nil {
			return nil, &pipeline.StageError{Index: j, Name: "filter", Err: err}
		}
	}
	var opt SearchOptions
	if pl.Search != nil {
		if opt, err = searchOptions(pl); err != nil {
			return nil, err
		}
	}
	run := func() (*pipeline.Result, error) { return c.runPlan(ctx, pl, opt, start) }
	if c.cache == nil {
		return run()
	}
	// Read the generation vector before the plan runs (see
	// queryCache.cachedSearch).
	gens := c.generations()
	return c.cache.cachedQuery(pipelineKey(pl, opt), gens, start, run)
}

// searchOptions spells a plan's search stage as SearchOptions.
func searchOptions(pl *pipeline.Plan) (SearchOptions, error) {
	ps := pl.Search
	opt := SearchOptions{
		K:             ps.K,
		VerifyFactor:  ps.VerifyFactor,
		MaxCandidates: ps.MaxCandidates,
		Filters:       pl.Filters,
	}
	if ps.Engine != "" {
		var err error
		if opt.Engine, err = ParseEngine(ps.Engine); err != nil {
			return opt, &pipeline.StageError{Index: len(pl.Filters), Name: "search", Err: err}
		}
	}
	switch ps.Metric {
	case "delta1":
		opt.Metric = MetricDelta1
	case "delta2":
		opt.Metric = MetricDelta2
	}
	return opt, nil
}

// runPlan runs a validated plan uncached; opt is its search stage's
// options.
func (c *Collection) runPlan(ctx context.Context, pl *pipeline.Plan, opt SearchOptions, start time.Time) (*pipeline.Result, error) {
	var res *pipeline.Result
	var err error
	if pl.Search != nil {
		res, err = c.querySearch(ctx, pl, opt)
	} else {
		res, err = c.queryScan(ctx, pl)
	}
	if err != nil {
		return nil, err
	}
	res.Stats.PushedPredicates, res.Stats.FallbackPredicates = pipeline.AnalyzeFilters(pl.Filters)
	res.Stats.ElapsedMS = msSince(start)
	return res, nil
}

// querySearch runs a pipeline whose row source is the similarity stage.
func (c *Collection) querySearch(ctx context.Context, pl *pipeline.Plan, opt SearchOptions) (*pipeline.Result, error) {
	q, err := pl.Search.QueryGraph()
	if err != nil {
		return nil, &pipeline.StageError{Index: len(pl.Filters), Name: "search", Err: err}
	}

	t0 := time.Now()
	sr, err := c.searchShards(ctx, q, opt, t0)
	if err != nil {
		return nil, err
	}
	searchMS := msSince(t0)

	t1 := time.Now()
	agg := pipeline.NewAggregator(pl)
	needG := pl.NeedsGraphs()
	engine := sr.Engine.String()
	for _, r := range sr.Results {
		row := pipeline.Row{ID: r.ID, Distance: r.Distance, HasDistance: true, Engine: engine}
		if needG {
			if s, local := c.resolve(r.ID); local >= 0 {
				if row.G, err = s.graphAt(local); err != nil {
					return nil, err
				}
			}
		}
		agg.Add(row)
	}
	res := agg.Finish()
	res.Stats.Matched = int64(len(sr.Results))
	res.Stats.Candidates = int64(sr.Candidates)
	res.Stats.Engine = engine
	res.Stats.Stages = []pipeline.StageTiming{
		{Stage: "search", ElapsedMS: searchMS},
		{Stage: "aggregate", ElapsedMS: msSince(t1)},
	}
	return res, nil
}

// queryScan runs a searchless pipeline: a filtered enumeration of the
// database, fanned out one partial aggregator per shard and merged.
func (c *Collection) queryScan(ctx context.Context, pl *pipeline.Plan) (*pipeline.Result, error) {
	t0 := time.Now()
	aggs := make([]*pipeline.Aggregator, len(c.shards))
	cands := make([]int64, len(c.shards))
	errs := make([]error, len(c.shards))
	_ = c.store.budget.ForContext(ctx, len(c.shards), func(i int) {
		aggs[i], cands[i], errs[i] = c.scanShard(ctx, i, pl)
	})
	for i := range errs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if aggs[i] == nil { // fan-out cut short by cancellation
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	scanMS := msSince(t0)

	t1 := time.Now()
	total := aggs[0]
	candidates := cands[0]
	for _, a := range aggs[1:] {
		total.Merge(a)
	}
	for _, cd := range cands[1:] {
		if candidates < 0 || cd < 0 {
			candidates = -1
		} else {
			candidates += cd
		}
	}
	res := total.Finish()
	res.Stats.Matched = total.Matched()
	res.Stats.Candidates = candidates
	res.Stats.Stages = []pipeline.StageTiming{
		{Stage: "scan", ElapsedMS: scanMS},
		{Stage: "aggregate", ElapsedMS: msSince(t1)},
	}
	return res, nil
}

// scanShardStride bounds how long a shard scan runs between ctx checks.
const scanShardStride = 4096

// scanShard streams one shard's matching graphs through a partial
// aggregator: it walks the live ids the filters' keep bitset holds. The
// reported candidates count is the number of those ids, -1 when the
// filters did not restrict the scan.
func (c *Collection) scanShard(ctx context.Context, i int, pl *pipeline.Plan) (*pipeline.Aggregator, int64, error) {
	s := c.shards[i].snap.Load()
	comp, err := s.compile(pl.Filters)
	if err != nil {
		return nil, 0, err
	}
	keep := comp.Keep
	if keep == nil {
		keep = pipeline.KeepAll(len(s.db))
	}
	agg := pipeline.NewAggregator(pl)
	needG := pl.NeedsGraphs()
	candidates := int64(0)
	for w, word := range keep {
		if w%(scanShardStride/64) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		for word &^= s.dead[w]; word != 0; word &= word - 1 {
			candidates++
			id := w*64 + bits.TrailingZeros64(word)
			// The graph is resolved — once — only when the residual or the
			// aggregation needs it.
			var g *Graph
			if comp.Residual != nil || needG {
				if g, err = s.graphAt(id); err != nil {
					return nil, 0, err
				}
			}
			if comp.Residual == nil || comp.Residual(id, g) {
				agg.Add(pipeline.Row{ID: s.global(id), G: g})
			}
		}
	}
	if comp.Keep == nil {
		candidates = -1
	}
	return agg, candidates, nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Nanoseconds()) / 1e6
}
