// Package pipeline implements the composable query pipeline: a typed
// chain of declarative stages — filter, similarity search, aggregation —
// compiled against a graphdim snapshot and streamed without
// materializing intermediate result sets.
//
// A pipeline is a JSON document (the wire form of the gserve /query
// endpoint and the gq CLI) or a directly constructed Pipeline value (the
// Go API behind Collection.Query). Stages are ordered
//
//	filter* → search? → topk? → limit? → (count | group_by)?
//
// with at least one stage present. Filter stages are declarative —
// vertex/edge count ranges, label presence and label-histogram minimum
// counts, dimension-bit predicates, ones-count ranges — which buys two
// things a SearchOptions.Predicate closure cannot give: the filter
// serializes to canonical bytes (so filtered queries stay cacheable
// under the generation-fenced query cache) and it pushes down into one
// keep bitset wherever the vector tiles or a label list can answer it,
// restricting the scan below the vector loop (see Compile). Whatever
// cannot be answered that way compiles to a residual per-graph
// predicate evaluated inside the scan, exactly where
// SearchOptions.Predicate runs.
//
// Aggregate stages stream: count and group-by fold each row as it
// arrives, top-k and limit keep a bounded heap, and per-shard partial
// aggregates merge associatively (see Aggregator.Merge) so a sharded
// collection can fan a scan pipeline out and combine the partials
// without materializing matched rows.
package pipeline

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Pipeline is an ordered chain of stages. Construct directly or with
// Parse; run with graphdim's Collection.Query after validating via Plan.
type Pipeline struct {
	Stages []Stage `json:"stages"`
}

// Stage is one pipeline stage: exactly one of the fields is set. The
// JSON form is an object with a single key naming the stage type, e.g.
// {"filter": {...}} or {"search": {"k": 10, "query": {...}}}.
type Stage struct {
	Filter  *Filter  `json:"filter,omitempty"`
	Search  *Search  `json:"search,omitempty"`
	TopK    *TopK    `json:"topk,omitempty"`
	Limit   *Limit   `json:"limit,omitempty"`
	Count   *Count   `json:"count,omitempty"`
	GroupBy *GroupBy `json:"group_by,omitempty"`
}

// Search is the similarity stage: a top-K search with the engine dials
// of graphdim.SearchOptions spelled as strings. The query graph comes
// from Query (the wire form) or G (the Go API; wins when both are set).
type Search struct {
	// Query is the query graph in the ingest wire shape: vertex labels
	// by index, edges as [u, v, label] triples.
	Query *GraphSpec `json:"query,omitempty"`
	// K is the number of results wanted; required.
	K int `json:"k"`
	// Engine is "mapped" (default), "verified" or "exact".
	Engine string `json:"engine,omitempty"`
	// VerifyFactor and MaxCandidates mirror SearchOptions.
	VerifyFactor  int `json:"verify_factor,omitempty"`
	MaxCandidates int `json:"max_candidates,omitempty"`
	// Metric is "" (index default), "delta1" or "delta2".
	Metric string `json:"metric,omitempty"`

	// G, when non-nil, is the query graph directly — the Go-API
	// alternative to Query.
	G *graph.Graph `json:"-"`
}

// GraphSpec is the wire shape of a graph, shared with the ingest
// endpoint: vertex labels by index, edges as [u, v, label] triples.
type GraphSpec struct {
	Labels []int    `json:"labels"`
	Edges  [][3]int `json:"edges"`
}

// Build materializes the spec as a graph.
func (gs *GraphSpec) Build() (*graph.Graph, error) {
	if len(gs.Labels) == 0 {
		return nil, fmt.Errorf("graph has no vertices")
	}
	g := graph.New(0) // New pre-creates unlabeled vertices; add labeled ones explicitly
	for _, l := range gs.Labels {
		if l < 0 || l > math.MaxInt32 {
			return nil, fmt.Errorf("vertex label %d out of range [0, %d]", l, math.MaxInt32)
		}
		g.AddVertex(graph.Label(l))
	}
	for _, e := range gs.Edges {
		if e[2] < 0 || e[2] > math.MaxInt32 {
			return nil, fmt.Errorf("edge label %d out of range [0, %d]", e[2], math.MaxInt32)
		}
		if err := g.AddEdge(e[0], e[1], graph.Label(e[2])); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// TopK keeps the K best rows by (distance, id) — the explicit top-k
// merge stage. Requires a search stage earlier in the pipeline (scan
// rows carry no distance).
type TopK struct {
	K int `json:"k"`
}

// Limit truncates the row stream to the first N rows in result order:
// (distance, id) after a search, ascending id on a filter scan.
type Limit struct {
	N int `json:"n"`
}

// Count is the terminal counting aggregate: the result is the number of
// rows that reached it.
type Count struct{}

// GroupBy is the terminal grouping aggregate.
type GroupBy struct {
	// Key picks the grouping dimension: "vertex_label" and "edge_label"
	// group a row under every distinct label its graph contains;
	// "engine" groups by the engine that produced the row; and
	// "score_bucket" groups by distance bucket of width BucketWidth.
	// The latter two require a search stage.
	Key string `json:"key"`
	// BucketWidth is the score_bucket width; 0 means 0.05.
	BucketWidth float64 `json:"bucket_width,omitempty"`
	// Top keeps only the Top largest groups (by count, ties by key);
	// 0 keeps all.
	Top int `json:"top,omitempty"`
}

// Group-by keys.
const (
	KeyVertexLabel = "vertex_label"
	KeyEdgeLabel   = "edge_label"
	KeyEngine      = "engine"
	KeyScoreBucket = "score_bucket"
)

// DefaultScanLimit bounds the rows a filter-only pipeline returns when
// no aggregate stage is present — without it a bare filter would
// materialize every matching graph. Stats.Matched still reports the
// full match count.
const DefaultScanLimit = 1000

// DefaultBucketWidth is the score_bucket width when GroupBy.BucketWidth
// is zero.
const DefaultBucketWidth = 0.05

// StageError reports a malformed stage: its position, the stage name
// involved (the unknown type, or the offending typed stage), and the
// underlying problem. The gserve /query endpoint maps it to a 400 whose
// body carries the index and name.
type StageError struct {
	Index int    // 0-based position in Stages
	Name  string // stage type name, or the unknown key
	Err   error
}

func (e *StageError) Error() string {
	return fmt.Sprintf("pipeline: stage %d (%q): %v", e.Index, e.Name, e.Err)
}

func (e *StageError) Unwrap() error { return e.Err }

func stageErrf(i int, name, format string, args ...any) *StageError {
	return &StageError{Index: i, Name: name, Err: fmt.Errorf(format, args...)}
}

// Plan is the validated, normalized execution form of a pipeline:
// filters gathered in order, the optional search stage, and the
// aggregate chain. Scan pipelines (Search == nil) enumerate the
// database through the filter pushdown; search pipelines restrict the
// similarity scan instead.
type Plan struct {
	Filters []*Filter
	Search  *Search
	TopK    *TopK
	Limit   *Limit
	Count   *Count
	GroupBy *GroupBy
}

// stageRank orders stage types; Plan enforces ascending ranks (filters
// may repeat).
func (s *Stage) parts() (name string, rank int, set int) {
	type part struct {
		name string
		rank int
		nil_ bool
	}
	for _, p := range []part{
		{"filter", 0, s.Filter == nil},
		{"search", 1, s.Search == nil},
		{"topk", 2, s.TopK == nil},
		{"limit", 3, s.Limit == nil},
		{"count", 4, s.Count == nil},
		{"group_by", 4, s.GroupBy == nil},
	} {
		if !p.nil_ {
			set++
			name, rank = p.name, p.rank
		}
	}
	return name, rank, set
}

// Plan validates the pipeline — stage ordering, per-stage fields — and
// returns its execution form. Errors tied to one stage are *StageError.
func (p *Pipeline) Plan() (*Plan, error) {
	if len(p.Stages) == 0 {
		return nil, fmt.Errorf("pipeline: no stages")
	}
	pl := &Plan{}
	prevRank, prevName := -1, ""
	for i := range p.Stages {
		s := &p.Stages[i]
		name, rank, set := s.parts()
		if set == 0 {
			return nil, stageErrf(i, "", "empty stage (want one of filter, search, topk, limit, count, group_by)")
		}
		if set > 1 {
			return nil, stageErrf(i, name, "a stage holds exactly one stage type, got %d", set)
		}
		if rank < prevRank || (rank == prevRank && rank != 0) {
			return nil, stageErrf(i, name, "stage out of order after %q (want filter* search? topk? limit? (count|group_by)?)", prevName)
		}
		prevRank, prevName = rank, name
		switch {
		case s.Filter != nil:
			if err := s.Filter.Validate(); err != nil {
				return nil, stageErrf(i, name, "%v", err)
			}
			pl.Filters = append(pl.Filters, s.Filter)
		case s.Search != nil:
			if err := validateSearch(s.Search); err != nil {
				return nil, stageErrf(i, name, "%v", err)
			}
			pl.Search = s.Search
		case s.TopK != nil:
			if s.TopK.K <= 0 {
				return nil, stageErrf(i, name, "k must be positive, got %d", s.TopK.K)
			}
			pl.TopK = s.TopK
		case s.Limit != nil:
			if s.Limit.N <= 0 {
				return nil, stageErrf(i, name, "n must be positive, got %d", s.Limit.N)
			}
			pl.Limit = s.Limit
		case s.Count != nil:
			pl.Count = s.Count
		case s.GroupBy != nil:
			if err := validateGroupBy(s.GroupBy); err != nil {
				return nil, stageErrf(i, name, "%v", err)
			}
			pl.GroupBy = s.GroupBy
		}
		if pl.Search == nil {
			if pl.TopK != nil {
				return nil, stageErrf(i, name, "topk needs a preceding search stage (scan rows carry no distance)")
			}
			if pl.GroupBy != nil && (pl.GroupBy.Key == KeyEngine || pl.GroupBy.Key == KeyScoreBucket) {
				return nil, stageErrf(i, name, "group_by key %q needs a preceding search stage", pl.GroupBy.Key)
			}
		}
	}
	return pl, nil
}

func validateSearch(s *Search) error {
	if s.K <= 0 {
		return fmt.Errorf("k must be positive, got %d", s.K)
	}
	switch s.Engine {
	case "", "mapped", "verified", "exact":
	default:
		return fmt.Errorf("unknown engine %q (want mapped, verified or exact)", s.Engine)
	}
	switch s.Metric {
	case "", "delta1", "delta2":
	default:
		return fmt.Errorf("unknown metric %q (want delta1 or delta2)", s.Metric)
	}
	if s.VerifyFactor < 0 {
		return fmt.Errorf("verify_factor must be >= 0, got %d", s.VerifyFactor)
	}
	if s.MaxCandidates < 0 {
		return fmt.Errorf("max_candidates must be >= 0, got %d", s.MaxCandidates)
	}
	if s.Query == nil && s.G == nil {
		return fmt.Errorf("search stage needs a query graph")
	}
	return nil
}

func validateGroupBy(g *GroupBy) error {
	switch g.Key {
	case KeyVertexLabel, KeyEdgeLabel, KeyEngine, KeyScoreBucket:
	default:
		return fmt.Errorf("unknown group_by key %q (want vertex_label, edge_label, engine or score_bucket)", g.Key)
	}
	if g.BucketWidth < 0 {
		return fmt.Errorf("bucket_width must be >= 0, got %g", g.BucketWidth)
	}
	if g.Top < 0 {
		return fmt.Errorf("top must be >= 0, got %d", g.Top)
	}
	return nil
}

// QueryGraph returns the search stage's query graph, building the wire
// spec if no graph was attached directly.
func (s *Search) QueryGraph() (*graph.Graph, error) {
	if s.G != nil {
		return s.G, nil
	}
	return s.Query.Build()
}

// NeedsGraphs reports whether aggregation must see each row's graph
// (label group-bys); Collection.Query skips the per-row graph fetch
// otherwise.
func (pl *Plan) NeedsGraphs() bool {
	return pl.GroupBy != nil && (pl.GroupBy.Key == KeyVertexLabel || pl.GroupBy.Key == KeyEdgeLabel)
}

// RowBound returns the bounded-row capacity the aggregate chain needs,
// or 0 when rows stream without a bound (a terminal fold, or a search
// pipeline whose rows are already K-bounded). Scan pipelines with no
// aggregate stage get DefaultScanLimit.
func (pl *Plan) RowBound() int {
	switch {
	case pl.TopK != nil:
		return pl.TopK.K
	case pl.Limit != nil:
		return pl.Limit.N
	case pl.Search != nil:
		return 0 // at most K rows arrive
	case pl.Count == nil && pl.GroupBy == nil:
		return DefaultScanLimit
	}
	return 0
}
