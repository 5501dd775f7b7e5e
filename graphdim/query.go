package graphdim

import (
	"context"
	"time"

	"repro/internal/pipeline"
)

// Query runs a composable pipeline — filter stages, an optional
// similarity stage, aggregate stages — against the collection in one
// call (see internal/pipeline for the stage model).
//
// Pipelines with a similarity stage run it through the collection's
// regular Search path: declarative filters travel as SearchOptions.
// Filters, so they push down into posting intersections inside each
// shard and the whole query stays eligible for the generation-fenced
// result cache; aggregation then folds the globally merged top-k.
// Pipelines without a similarity stage are scans: every shard compiles
// the filters against its own snapshot, streams the matching graphs
// through a partial aggregator, and the partials merge associatively
// into the single answer — matched rows are never materialized.
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

	var res *pipeline.Result
	if pl.Search != nil {
		res, err = c.querySearch(ctx, pl)
	} else {
		res, err = c.queryScan(ctx, pl)
	}
	if err != nil {
		return nil, err
	}
	res.Stats.PushedPredicates, res.Stats.FallbackPredicates =
		pipeline.AnalyzeFilters(pl.Filters, true, true)
	res.Stats.ElapsedMS = msSince(start)
	return res, nil
}

// querySearch runs a pipeline whose row source is the similarity stage.
func (c *Collection) querySearch(ctx context.Context, pl *pipeline.Plan) (*pipeline.Result, error) {
	ps := pl.Search
	q, err := ps.QueryGraph()
	if err != nil {
		return nil, &pipeline.StageError{Index: len(pl.Filters), Name: "search", Err: err}
	}
	opt := SearchOptions{
		K:             ps.K,
		VerifyFactor:  ps.VerifyFactor,
		MaxCandidates: ps.MaxCandidates,
		Filters:       pl.Filters,
	}
	if ps.Engine != "" {
		if opt.Engine, err = ParseEngine(ps.Engine); err != nil {
			return nil, &pipeline.StageError{Index: len(pl.Filters), Name: "search", Err: err}
		}
	}
	switch ps.Metric {
	case "delta1":
		opt.Metric = MetricDelta1
	case "delta2":
		opt.Metric = MetricDelta2
	}

	t0 := time.Now()
	sr, err := c.Search(ctx, q, opt)
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
// aggregator. The reported candidates count is the pushdown
// intersection size, -1 when the filters did not restrict the scan.
func (c *Collection) scanShard(ctx context.Context, i int, pl *pipeline.Plan) (*pipeline.Aggregator, int64, error) {
	s := c.shards[i].snap.Load()
	cat, err := s.catalog(pl.Filters)
	if err != nil {
		return nil, 0, err
	}
	comp, err := pipeline.CompileFilters(pl.Filters, cat)
	if err != nil {
		return nil, 0, err
	}
	agg := pipeline.NewAggregator(pl)
	needG := pl.NeedsGraphs()
	// The ids to stream: the pushdown intersection when the filters
	// restricted the scan, every id otherwise.
	n, idAt, candidates := len(s.db), func(i int) int { return i }, int64(-1)
	if comp.Restricted {
		n, idAt, candidates = len(comp.IDs), func(i int) int { return int(comp.IDs[i]) }, int64(len(comp.IDs))
	}
	for i := 0; i < n; i++ {
		if i%scanShardStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		id := idAt(i)
		if s.isDead(id) {
			continue
		}
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
	return agg, candidates, nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Nanoseconds()) / 1e6
}
