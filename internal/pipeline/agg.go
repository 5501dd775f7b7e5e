package pipeline

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/graph"
)

// Row is one graph flowing between stages. Search rows carry a
// distance and the producing engine; scan rows carry neither
// (HasDistance false). G is only populated when the plan's aggregates
// need graph structure (Plan.NeedsGraphs).
type Row struct {
	ID          int
	Distance    float64
	HasDistance bool
	Engine      string
	G           *graph.Graph
}

// ResultRow is a returned row; Distance is nil for scan rows.
type ResultRow struct {
	ID       int      `json:"id"`
	Distance *float64 `json:"distance,omitempty"`
}

// Group is one group-by bucket.
type Group struct {
	// Key is the rendered group key ("7" for a label, "mapped" for an
	// engine, "[0.05,0.10)" for a score bucket).
	Key   string `json:"key"`
	Count int64  `json:"count"`
	// Distance spread of the group's rows; omitted for scan rows.
	MinDistance  *float64 `json:"min_distance,omitempty"`
	MaxDistance  *float64 `json:"max_distance,omitempty"`
	MeanDistance *float64 `json:"mean_distance,omitempty"`

	// ord gives numeric keys a numeric sort order (label value, bucket
	// index) so "10" doesn't sort before "2".
	ord int64
}

// Stats reports how a pipeline executed: how many rows the stage chain
// saw, the pushdown/fallback split of the filter compiler, and
// per-stage wall time.
type Stats struct {
	// Matched counts rows that passed the filters and entered
	// aggregation (for search pipelines: results returned by search).
	Matched int64 `json:"matched"`
	// Candidates is, for a scan, the number of live (not removed) ids
	// the pushed-down predicates keep, -1 when no predicate pushed down;
	// for a search, the graphs its engine scored.
	Candidates int64 `json:"candidates"`
	// Engine echoes the search engine used, "" for scan pipelines.
	Engine string `json:"engine,omitempty"`
	// PushedPredicates / FallbackPredicates split the filter predicates
	// answered into the keep bitset (from the vector tiles or the label
	// index) vs. evaluated per graph.
	PushedPredicates   int `json:"pushed_predicates"`
	FallbackPredicates int `json:"fallback_predicates"`
	// Stages holds per-stage timings in execution order.
	Stages []StageTiming `json:"stages,omitempty"`
	// ElapsedMS is the end-to-end pipeline time.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// StageTiming is one stage's wall time.
type StageTiming struct {
	Stage     string  `json:"stage"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Result is the output of a pipeline run.
type Result struct {
	Rows   []ResultRow `json:"rows,omitempty"`
	Count  *int64      `json:"count,omitempty"`
	Groups []Group     `json:"groups,omitempty"`
	Stats  Stats       `json:"stats"`
}

// Aggregator folds the row stream of one pipeline (or one shard's part
// of it) according to the aggregate stages of a Plan. It streams:
// count and group-by keep O(groups) state, topk/limit keep a bounded
// heap, and nothing else is materialized. Partial aggregators from
// shard fan-out combine with Merge; Finish renders the Result.
//
// An Aggregator is not safe for concurrent use — fan-outs run one per
// shard and merge.
type Aggregator struct {
	plan  *Plan
	bound int // row heap capacity; 0 = unbounded row collection

	rows    rowHeap
	count   int64
	groups  map[string]*Group
	matched int64
}

// NewAggregator builds the aggregator for a plan.
func NewAggregator(pl *Plan) *Aggregator {
	a := &Aggregator{plan: pl, bound: pl.RowBound()}
	if pl.GroupBy != nil {
		a.groups = make(map[string]*Group)
	}
	return a
}

// Add folds one row.
func (a *Aggregator) Add(r Row) {
	a.matched++
	pl := a.plan
	if pl.Count != nil {
		a.count++
		return
	}
	if pl.GroupBy != nil {
		a.groupRow(r)
		return
	}
	if a.bound > 0 && len(a.rows) >= a.bound {
		if !rowLess(r, a.rows[0]) {
			return // worse than the current worst kept row
		}
		a.rows[0] = r
		heap.Fix(&a.rows, 0)
		return
	}
	heap.Push(&a.rows, r)
}

func (a *Aggregator) groupRow(r Row) {
	switch a.plan.GroupBy.Key {
	case KeyVertexLabel:
		for _, lab := range distinctVertexLabels(r.G) {
			a.bump(strconv.Itoa(int(lab)), int64(lab), r)
		}
	case KeyEdgeLabel:
		for _, lab := range distinctEdgeLabels(r.G) {
			a.bump(strconv.Itoa(int(lab)), int64(lab), r)
		}
	case KeyEngine:
		a.bump(r.Engine, 0, r)
	case KeyScoreBucket:
		w := a.plan.GroupBy.BucketWidth
		if w <= 0 {
			w = DefaultBucketWidth
		}
		b := int64(math.Floor(r.Distance / w))
		lo, hi := float64(b)*w, float64(b+1)*w
		a.bump(fmt.Sprintf("[%.2f,%.2f)", lo, hi), b, r)
	}
}

func (a *Aggregator) bump(key string, ord int64, r Row) {
	g := a.groups[key]
	if g == nil {
		g = &Group{Key: key, ord: ord}
		if r.HasDistance {
			lo, hi := r.Distance, r.Distance
			g.MinDistance, g.MaxDistance = &lo, &hi
			g.MeanDistance = new(float64) // reused as the running sum
		}
		a.groups[key] = g
	}
	g.Count++
	if r.HasDistance && g.MinDistance != nil {
		if r.Distance < *g.MinDistance {
			*g.MinDistance = r.Distance
		}
		if r.Distance > *g.MaxDistance {
			*g.MaxDistance = r.Distance
		}
		*g.MeanDistance += r.Distance
	}
}

func distinctVertexLabels(g *graph.Graph) []graph.Label {
	if g == nil {
		return nil
	}
	seen := make(map[graph.Label]struct{}, 8)
	var out []graph.Label
	for v := 0; v < g.N(); v++ {
		l := g.VertexLabel(v)
		if _, ok := seen[l]; !ok {
			seen[l] = struct{}{}
			out = append(out, l)
		}
	}
	return out
}

func distinctEdgeLabels(g *graph.Graph) []graph.Label {
	if g == nil {
		return nil
	}
	seen := make(map[graph.Label]struct{}, 8)
	var out []graph.Label
	for _, e := range g.Edges() {
		if _, ok := seen[e.Label]; !ok {
			seen[e.Label] = struct{}{}
			out = append(out, e.Label)
		}
	}
	return out
}

// Merge folds another aggregator's partial state into a (shard
// fan-out). Merging partials and then calling Finish yields exactly
// the single-aggregator answer: counts and sums are associative, group
// spreads take min/max, and bounded row heaps re-bound after merge.
func (a *Aggregator) Merge(b *Aggregator) {
	a.matched += b.matched
	a.count += b.count
	for key, bg := range b.groups {
		g := a.groups[key]
		if g == nil {
			a.groups[key] = bg
			continue
		}
		g.Count += bg.Count
		if bg.MinDistance != nil {
			if g.MinDistance == nil {
				g.MinDistance, g.MaxDistance, g.MeanDistance = bg.MinDistance, bg.MaxDistance, bg.MeanDistance
			} else {
				if *bg.MinDistance < *g.MinDistance {
					*g.MinDistance = *bg.MinDistance
				}
				if *bg.MaxDistance > *g.MaxDistance {
					*g.MaxDistance = *bg.MaxDistance
				}
				*g.MeanDistance += *bg.MeanDistance
			}
		}
	}
	for _, r := range b.rows {
		if a.bound > 0 && len(a.rows) >= a.bound {
			if !rowLess(r, a.rows[0]) {
				continue
			}
			a.rows[0] = r
			heap.Fix(&a.rows, 0)
			continue
		}
		heap.Push(&a.rows, r)
	}
}

// Matched returns the rows folded so far (pre-truncation).
func (a *Aggregator) Matched() int64 { return a.matched }

// Finish renders the aggregate state as a Result (Stats left zero for
// the caller to fill).
func (a *Aggregator) Finish() *Result {
	res := &Result{}
	pl := a.plan
	switch {
	case pl.Count != nil:
		c := a.count
		res.Count = &c
	case pl.GroupBy != nil:
		res.Groups = renderGroups(a.groups, pl.GroupBy.Top)
	default:
		rows := make([]Row, len(a.rows))
		copy(rows, a.rows)
		sort.Slice(rows, func(i, j int) bool { return rowLess(rows[i], rows[j]) })
		if pl.Limit != nil && len(rows) > pl.Limit.N {
			rows = rows[:pl.Limit.N]
		}
		res.Rows = make([]ResultRow, len(rows))
		for i, r := range rows {
			res.Rows[i] = ResultRow{ID: r.ID}
			if r.HasDistance {
				d := r.Distance
				res.Rows[i].Distance = &d
			}
		}
	}
	return res
}

func renderGroups(m map[string]*Group, top int) []Group {
	out := make([]Group, 0, len(m))
	for _, g := range m {
		if g.MeanDistance != nil {
			mean := *g.MeanDistance / float64(g.Count)
			g.MeanDistance = &mean
		}
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].ord != out[j].ord {
			return out[i].ord < out[j].ord
		}
		return out[i].Key < out[j].Key
	})
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return out
}

// rowLess orders rows for results: by (distance, id) when distances
// exist, ascending id otherwise.
func rowLess(a, b Row) bool {
	if a.HasDistance && b.HasDistance && a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.ID < b.ID
}

// rowHeap is a max-heap under rowLess (worst kept row at the root) so
// a bounded top-k keeps the best rows.
type rowHeap []Row

func (h rowHeap) Len() int           { return len(h) }
func (h rowHeap) Less(i, j int) bool { return rowLess(h[j], h[i]) }
func (h rowHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *rowHeap) Push(x any)        { *h = append(*h, x.(Row)) }
func (h *rowHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
