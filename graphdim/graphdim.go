// Package graphdim is the public API of this repository: an online graph
// search library that selects a small structural dimension — a set of
// frequent subgraphs — from a graph database so that top-k similarity
// queries can run in a multidimensional vector space instead of computing
// NP-hard maximum-common-subgraph dissimilarities per query.
//
// It implements the DS-preserved mapping of Zhu, Yu and Qin, "Leveraging
// Graph Dimensions in Online Graph Search" (PVLDB 8(1), 2014): the DSPM
// dimension-selection algorithm, its scalable approximation DSPMap, the
// gSpan miner that produces the candidate subgraphs, the VF2 matcher that
// maps unseen queries into the space, and exact MCS-based search for
// ground truth.
//
// Typical use:
//
//	db, _ := graphdim.ReadGraphs(f)
//	idx, _ := graphdim.Build(db, graphdim.Options{Dimensions: 200})
//	res, _ := idx.Search(ctx, query, graphdim.SearchOptions{K: 10})
//
// Search unifies the three query engines — the paper's mapped-space scan,
// the filter-and-verify hybrid, and exact MCS search — behind per-query
// options (engine, verification factor, metric override, result
// predicate) and honours context cancellation. BuildContext parallelizes
// the offline path (mining, the pairwise MCS matrix, vector
// materialization) across Options.Workers goroutines, reports progress
// per stage, and is cancellable.
//
// The paper's DS-preserved mapping places unseen graphs into the fixed
// dimension space with a cheap VF2 pass, so an index can also grow
// online: Add maps new graphs onto the existing dimensions, Remove
// tombstones graphs, and StaleRatio tells operators when enough of the
// database postdates the dimension selection that a full re-Build is
// warranted. Readers are never blocked — updates swap an immutable
// snapshot. WriteTo/ReadIndex persist an index as one v4 segment file
// (internal/segment) so query servers (cmd/gserve) can load it without
// re-mining or re-running DSPM.
//
// Above the single index, Store manages named collections sharded across
// parallel indexes: graphs place onto shards by a fixed hash of their
// global id, Search fans out and merges per-shard top-k heaps into one
// globally ranked result (exactly the unsharded ranking — see
// Collection.Search), Add and Save/OpenStore parallelize per shard, and
// Collection.Compact reclaims tombstoned slots while readers keep serving.
// A collection has one dimension set for life: every shard holds it,
// nothing re-selects it, and StaleRatio tells the operator when to build a
// new collection.
//
// Two accelerators keep the hot path sublinear without changing any
// ranked result: per-dimension posting lists prune the mapped-space
// scan to the graphs sharing a dimension with the query (an adaptive
// cost model falls back to the flat scan for dense queries; see
// SearchOptions.NoPrune), and collections built with CacheOptions serve
// repeat queries from an LRU fenced by per-shard generation counters,
// so any committed mutation or Compact invalidates affected entries
// for free (see Index.Generation).
package graphdim

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/gspan"
	"repro/internal/mcs"
	"repro/internal/pool"
	"repro/internal/posting"
	"repro/internal/segment"
	"repro/internal/subiso"
	"repro/internal/topk"
	"repro/internal/vecspace"
)

// Graph is an undirected labeled simple graph (vertices and edges carry
// integer labels). Construct with NewGraph / AddVertex / AddEdge or parse
// with ReadGraphs.
type Graph = graph.Graph

// Label is a vertex or edge label.
type Label = graph.Label

// Edge is a normalized undirected edge.
type Edge = graph.Edge

// NewGraph returns an empty graph with n vertices labeled 0.
func NewGraph(n int) *Graph { return graph.New(n) }

// ReadGraphs parses a sequence of graphs in the standard text format
// ("t # id" / "v id label" / "e u v label").
func ReadGraphs(r io.Reader) ([]*Graph, error) { return graph.ReadAll(r) }

// WriteGraphs writes graphs in the same text format.
func WriteGraphs(w io.Writer, gs []*Graph) error { return graph.WriteAll(w, gs) }

// Metric selects the MCS-based graph dissimilarity.
type Metric = mcs.Metric

// Dissimilarity metrics (Eq. 1 and Eq. 2 of the paper).
const (
	// Delta1 normalizes by the larger graph (Bunke–Shearer).
	Delta1 = mcs.Delta1
	// Delta2 normalizes by the average size; the paper's default.
	Delta2 = mcs.Delta2
)

// Algorithm selects the dimension-computation algorithm.
type Algorithm int

const (
	// DSPM is the exact iterative algorithm (Section 5.1); it needs the
	// full pairwise dissimilarity matrix — O(n²) MCS computations.
	DSPM Algorithm = iota
	// DSPMap is the partition-based approximation (Section 5.2); its cost
	// grows linearly with the database size.
	DSPMap
)

// BuildStage identifies a stage of the offline build pipeline, in
// execution order.
type BuildStage int

const (
	// StageMining is frequent-subgraph candidate mining (gSpan).
	StageMining BuildStage = iota
	// StageMatrix is the pairwise MCS dissimilarity matrix (DSPM only —
	// DSPMap evaluates dissimilarities lazily inside partitions).
	StageMatrix
	// StageDSPM is the dimension computation (DSPM iterations or the
	// DSPMap partition/combine recursion).
	StageDSPM
	// StageVectors is the materialization of the database's binary
	// vectors over the selected dimensions.
	StageVectors
)

// String implements fmt.Stringer.
func (s BuildStage) String() string {
	switch s {
	case StageMining:
		return "mining"
	case StageMatrix:
		return "matrix"
	case StageDSPM:
		return "dspm"
	case StageVectors:
		return "vectors"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Options configures Build. The zero value of every field selects the
// paper's default (noted per field); Validate rejects values outside a
// field's domain instead of silently substituting the default.
type Options struct {
	// Dimensions is p, the number of subgraph dimensions to select.
	// Zero means 200 (a mid-range value from the paper's sweep).
	Dimensions int
	// Tau is the minimum-support ratio for frequent subgraph mining, in
	// (0, 1]; zero means 0.05, the paper's setting.
	Tau float64
	// MaxPatternEdges caps mined subgraph size; zero means 6.
	MaxPatternEdges int
	// MaxCandidates caps the mined candidate set m; zero means unlimited.
	MaxCandidates int
	// Metric is the graph dissimilarity; default Delta2.
	Metric Metric
	// Algorithm picks DSPM (default) or DSPMap.
	Algorithm Algorithm
	// PartitionSize is DSPMap's b; zero means max(20, n/20).
	PartitionSize int
	// MCSBudget bounds each MCS search in branch-and-bound nodes; zero
	// means 200000 (effectively exact for molecule-sized graphs).
	MCSBudget int64
	// Seed drives DSPMap's random choices.
	Seed int64
	// Iterations caps DSPM's majorization loop; zero means 30.
	Iterations int
	// Workers bounds the worker pools used by the offline build path
	// (gSpan mining, the DSPM pairwise MCS matrix, vector
	// materialization) and inherited by the index for batch fan-out.
	// Zero or negative means one worker per CPU. Build output is
	// identical for every worker count — parallelism changes only
	// wall-clock time. Note the DSPMap algorithm evaluates its
	// dissimilarities lazily inside sequential partition passes, so
	// Workers accelerates only its mining and vector stages; the
	// MCS-dominated stage Workers speeds up most is DSPM's matrix.
	Workers int
	// Progress, when non-nil, is called as the build advances: at the
	// start of each stage with (stage, 0, total) and at its end with
	// (stage, total, total), plus per-unit updates where the stage has
	// natural units (matrix rows, DSPM iterations). total is 0 when the
	// stage's size is unknown up front (mining, DSPMap dimension
	// computation). Calls are serialized; the callback must be fast, as
	// it runs on the build path.
	Progress func(stage BuildStage, done, total int)
}

// Validate reports whether every option is inside its domain. Zero values
// are always valid ("use the paper default"); out-of-domain values — a
// negative dimension count, Tau outside (0, 1], a negative budget — are
// rejected rather than silently replaced.
func (o Options) Validate() error {
	if o.Dimensions < 0 {
		return fmt.Errorf("graphdim: Dimensions must be >= 0 (0 = default 200), got %d", o.Dimensions)
	}
	// Negated comparison so NaN (for which every comparison is false)
	// is rejected too.
	if !(o.Tau >= 0 && o.Tau <= 1) {
		return fmt.Errorf("graphdim: Tau must be in (0, 1] (0 = default 0.05), got %v", o.Tau)
	}
	if o.MaxPatternEdges < 0 {
		return fmt.Errorf("graphdim: MaxPatternEdges must be >= 0 (0 = default 6), got %d", o.MaxPatternEdges)
	}
	if o.MaxCandidates < 0 {
		return fmt.Errorf("graphdim: MaxCandidates must be >= 0 (0 = unlimited), got %d", o.MaxCandidates)
	}
	if o.Metric != Delta1 && o.Metric != Delta2 {
		return fmt.Errorf("graphdim: unknown metric %d", int(o.Metric))
	}
	if o.Algorithm != DSPM && o.Algorithm != DSPMap {
		return fmt.Errorf("graphdim: unknown algorithm %d", int(o.Algorithm))
	}
	if o.PartitionSize < 0 {
		return fmt.Errorf("graphdim: PartitionSize must be >= 0 (0 = default max(20, n/20)), got %d", o.PartitionSize)
	}
	if o.MCSBudget < 0 {
		return fmt.Errorf("graphdim: MCSBudget must be >= 0 (0 = default 200000), got %d", o.MCSBudget)
	}
	if o.Iterations < 0 {
		return fmt.Errorf("graphdim: Iterations must be >= 0 (0 = default 30), got %d", o.Iterations)
	}
	return nil
}

func (o Options) withDefaults(n int) Options {
	if o.Dimensions == 0 {
		o.Dimensions = 200
	}
	if o.Tau == 0 {
		o.Tau = 0.05
	}
	if o.MaxPatternEdges == 0 {
		o.MaxPatternEdges = 6
	}
	if o.MCSBudget == 0 {
		o.MCSBudget = 200000
	}
	if o.PartitionSize == 0 {
		o.PartitionSize = n / 20
		if o.PartitionSize < 20 {
			o.PartitionSize = 20
		}
	}
	o.Workers = pool.DefaultWorkers(o.Workers)
	return o
}

// snapshot is the immutable state a query reads — everything one atomic
// publish carries: the database graphs, their binary vectors over the
// index dimensions (packed once, as the SoA block the scan kernel
// streams), the tombstone set and, for a shard of a collection, the table
// naming each graph's collection-global id. Updates never mutate a
// published snapshot: the writer, serialized by Index.mu, derives the next
// one through a transition below (appended, tombstoned, repacked) and
// swaps it in, so any number of readers proceed lock-free and none ever
// sees a graph without its vector, its tombstone bit or its id. The
// constructors and transitions in this file are the only code that names
// the columns together.
type snapshot struct {
	// db spans every id slot, but a snapshot served from a mapped segment
	// keeps nil placeholders below seg's size: graph payloads are faulted
	// in on demand through graph/graphAt. Ids added after the segment was
	// written (WAL replay, Add) overlay as ordinary heap values. Heap-mode
	// snapshots (seg == nil) have no nils.
	db        []*Graph
	dead      []bool
	deadCount int
	// globals[id] is the collection-global id of graph id, strictly
	// ascending — ids are placed and appended in increasing global order
	// and a repack preserves the order — which keeps a shard's tie-break
	// (ascending local id) consistent with the collection's (ascending
	// global id). nil on a stand-alone Index: its ids are the only ids.
	globals []int
	// seg, when non-nil, is the mapped segment the base of this snapshot
	// is served from — shared, with its decoded-graph cache, across every
	// snapshot descended from the same open.
	seg *segSource
	// block is the snapshot's vector store — the only one: vector id is
	// lane id of the SoA block, the operand of every mapped-space scan
	// and the tile section of every segment written. block and post are
	// both derived from the same vectors where a snapshot is born
	// (newSnapshot, or a segment's own sections in snapshotFromSegment)
	// and share one eager copy-on-write lifecycle: appended extends both
	// (Block.Append never writes a shared tile, so on a mapped snapshot
	// the overlay is pure copy-on-write on top of the read-only mapping),
	// tombstoned shares both unchanged — tombstoned ids keep their lanes
	// and listings and every scan filters them through its limits.
	// Invariant: block.N() == post.N() == len(db).
	block *vecspace.Block
	// post holds the per-dimension posting lists and ones buckets over
	// block's vectors — the candidate-pruning accelerator
	// internal/posting implements.
	post *posting.Index
	// labels holds the per-label inverted lists over db — the pushdown
	// accelerator for declarative label filters (internal/pipeline).
	// Unlike block and post it is built lazily, by the first filtered
	// query that needs it (labelIndex), because building it reads every
	// graph — which on a mapped snapshot would fault in the whole corpus
	// at open. Once built it is carried copy-on-write: appended extends
	// it, an unbuilt nil just stays lazy.
	labels atomic.Pointer[posting.LabelIndex]
	// baseN is how many of the graphs were part of the database the
	// dimension selection (Build) or persisted file saw; ids >= baseN
	// entered through Add. baseDead counts the tombstoned ids below
	// baseN. StaleRatio derives from both.
	baseN    int
	baseDead int
}

// newSnapshot is the from-vectors constructor: it packs the block and
// builds the posting index from the same slice, so the two can never
// disagree about which vectors the snapshot holds. db, vectors, dead and
// globals (nil on a stand-alone index) are aligned by id; p is the
// dimensionality.
func newSnapshot(db []*Graph, vectors []*vecspace.BitVector, p int, dead []bool, baseN int, globals []int) *snapshot {
	s := &snapshot{
		db:      db,
		dead:    dead,
		globals: globals,
		block:   vecspace.Pack(vectors, p),
		post:    posting.FromVectors(vectors, p),
		baseN:   baseN,
	}
	for id, d := range dead {
		if d {
			s.deadCount++
			if id < baseN {
				s.baseDead++
			}
		}
	}
	return s
}

// snapshotFromSegment adopts an opened segment: block and postings are the
// segment's own sections (aliased in place when the reader is a mapping).
// With rehydrate false the snapshot keeps nil graph placeholders and faults
// payloads in through the reader; with rehydrate true every graph is
// decoded onto the heap and the reader is only kept as the backing array
// owner. globals is the manifest's id table for a shard file, nil for a
// plain index; the caller checks it against the segment's extent.
func snapshotFromSegment(r *segment.Reader, rehydrate bool, globals []int) (*snapshot, error) {
	n, baseN := r.N(), r.Meta().BaseN
	if baseN < 0 || baseN > n {
		return nil, fmt.Errorf("graphdim: corrupt segment: baseN %d outside [0,%d]", baseN, n)
	}
	blk, err := r.Block()
	if err != nil {
		return nil, err
	}
	post, err := r.Postings()
	if err != nil {
		return nil, err
	}
	dead, deadCount := r.Dead()
	s := &snapshot{
		db:        make([]*Graph, n),
		dead:      dead,
		deadCount: deadCount,
		globals:   globals,
		block:     blk,
		post:      post,
		baseN:     baseN,
	}
	for _, d := range dead[:baseN] {
		if d {
			s.baseDead++
		}
	}
	if !rehydrate {
		s.seg = newSegSource(r)
		return s, nil
	}
	for i := range s.db {
		if s.db[i], err = r.GraphAt(i); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// appended is the snapshot after an Add: gs, their vectors and (on a
// shard) their global ids take the next ids. Block and posting
// maintenance is incremental — the new ids are the highest yet, so
// appending fills the next lanes and keeps every per-dimension list
// sorted — and the linear snapshot chain both Appends require is exactly
// what Index.mu enforces. The label index is extended only if a filtered
// query already paid to build it.
func (s *snapshot) appended(gs []*Graph, vecs []*vecspace.BitVector, globals []int) *snapshot {
	next := &snapshot{
		db:        append(append(make([]*Graph, 0, len(s.db)+len(gs)), s.db...), gs...),
		dead:      append(append(make([]bool, 0, len(s.dead)+len(gs)), s.dead...), make([]bool, len(gs))...),
		deadCount: s.deadCount,
		seg:       s.seg,
		block:     s.block.Append(vecs),
		post:      s.post.Append(vecs),
		baseN:     s.baseN,
		baseDead:  s.baseDead,
	}
	if globals != nil {
		next.globals = append(append(make([]int, 0, len(s.globals)+len(globals)), s.globals...), globals...)
	}
	if l := s.labels.Load(); l != nil {
		next.labels.Store(l.Append(gs))
	}
	return next
}

// tombstoned is the snapshot after a Remove of ids (valid, live,
// distinct). db, the id table, the vector block and the posting lists
// are shared with s; only the tombstone set is copied. Removal is neither
// a block nor a posting event.
func (s *snapshot) tombstoned(ids []int) *snapshot {
	next := &snapshot{
		db:        s.db,
		dead:      append([]bool(nil), s.dead...),
		deadCount: s.deadCount + len(ids),
		globals:   s.globals,
		seg:       s.seg,
		block:     s.block,
		post:      s.post,
		baseN:     s.baseN,
		baseDead:  s.baseDead,
	}
	next.labels.Store(s.labels.Load())
	for _, id := range ids {
		next.dead[id] = true
		if id < next.baseN {
			next.baseDead++
		}
	}
	return next
}

// subset is a fresh heap snapshot over exactly the given ids of s
// (ascending): their graphs (a mapped payload is faulted onto the heap),
// their existing block vectors, tombstone bits and global ids — no VF2, no
// mining, no selection. Staleness bookkeeping carries over: ids below
// s.baseN predate the dimension selection, and since ids ascend they are
// exactly the subset's leading entries. It fails only on a mapped payload
// that no longer decodes.
func (s *snapshot) subset(ids []int) (*snapshot, error) {
	db := make([]*Graph, len(ids))
	vecs := make([]*vecspace.BitVector, len(ids))
	dead := make([]bool, len(ids))
	globals := make([]int, len(ids))
	baseN := 0
	for i, id := range ids {
		g, err := s.graphAt(id)
		if err != nil {
			return nil, err
		}
		db[i], vecs[i], dead[i], globals[i] = g, s.block.Vector(id), s.dead[id], s.global(id)
		if id < s.baseN {
			baseN++
		}
	}
	return newSnapshot(db, vecs, s.block.P(), dead, baseN, globals), nil
}

// repacked is s without its tombstoned slots — what Compact publishes.
// Every live graph keeps its vector and its rank among the ascending
// global ids, so no ranking any engine returns can change.
func (s *snapshot) repacked() (*snapshot, error) {
	live := make([]int, 0, len(s.db)-s.deadCount)
	for id, d := range s.dead {
		if !d {
			live = append(live, id)
		}
	}
	return s.subset(live)
}

// global translates an id of this snapshot to the collection-global id.
func (s *snapshot) global(id int) int {
	if s.globals == nil {
		return id
	}
	return s.globals[id]
}

// localOf returns the id under which this snapshot holds global id g, or
// -1.
func (s *snapshot) localOf(g int) int {
	if s.globals == nil {
		if g < 0 || g >= len(s.db) {
			return -1
		}
		return g
	}
	if i := sort.SearchInts(s.globals, g); i < len(s.globals) && s.globals[i] == g {
		return i
	}
	return -1
}

// limits states what a scan of this snapshot may score, as the data the
// query engines apply inline: the tombstones only when there are any, and
// admit — whatever predicate the query carries — only when it carries
// one. A scan under limits with no predicate never resolves a graph.
func (s *snapshot) limits(admit topk.Alive) topk.Limits {
	lim := topk.Limits{Pred: admit}
	if s.deadCount > 0 {
		lim.Dead = s.dead
	}
	return lim
}

// graphAt returns graph id, faulting it from the mapped segment on first
// demand — the one accessor every engine, predicate, scan and
// Index.Graph/Collection.Graph resolves graphs through. It fails only on a
// mapped payload that no longer decodes (the segment file was corrupted
// after its checkpoint; open validates the trailer), so a corrupt payload
// fails the query, not the process.
func (s *snapshot) graphAt(id int) (*Graph, error) {
	if g := s.db[id]; g != nil || s.seg == nil {
		return g, nil
	}
	return s.seg.graphAt(id)
}

// labelIndex returns the label pushdown index, building it on first
// demand. The build reads every graph — on a mapped snapshot this is
// the one operation that faults in the whole corpus, which is why it is
// deferred to the first query with a label filter rather than done at
// open. Racing builders may duplicate work; CompareAndSwap publishes
// exactly one, and Add keeps extending whichever one won. It fails only on
// a mapped payload that no longer decodes.
func (s *snapshot) labelIndex() (*posting.LabelIndex, error) {
	if l := s.labels.Load(); l != nil {
		return l, nil
	}
	gs := s.db
	if s.seg != nil {
		gs = make([]*Graph, len(s.db))
		for i := range gs {
			g, err := s.graphAt(i)
			if err != nil {
				return nil, err
			}
			gs[i] = g
		}
	}
	l := posting.LabelsFromGraphs(gs)
	if s.labels.CompareAndSwap(nil, l) {
		return l, nil
	}
	return s.labels.Load(), nil
}

// Index is a built graph-dimension index over a database: the selected
// subgraph dimensions, the database graphs, and their binary vectors. It
// answers top-k similarity queries with a feature-matching step (VF2)
// plus a scan of the vector space, optionally re-ranked by exact MCS
// verification (see Search).
//
// An Index is safe for any number of concurrent readers and writers
// without external locking: queries and accessors read an immutable
// snapshot, and Add/Remove publish a new snapshot atomically
// (copy-on-write), so long-running scans keep seeing the state they
// started on. The dimension set is fixed at Build time and never changes;
// only the database below it grows and shrinks.
type Index struct {
	features []*Graph
	mapper   *vecspace.Mapper
	// dims is a content digest of the ordered dimension set: two indexes
	// with equal dims map every graph to the same vector. Every shard of a
	// collection must carry the same digest — OpenStore checks it — which
	// is what lets a collection map a query once, with any shard's mapper.
	dims    [sha256.Size]byte
	weights []float64
	metric  Metric
	mcsOpt  mcs.Options
	workers int // batch fan-out bound; always >= 1

	// mu is the one writer lock: Add, Remove and a collection's reclaim
	// derive the next snapshot and swap it in under it.
	mu   sync.Mutex
	snap atomic.Pointer[snapshot]
	// gen counts publishes: Add, Remove and reclaim bump it once, after
	// storing their snapshot and before returning. That ordering is the
	// query cache's fence — see Generation.
	gen atomic.Uint64
	// compactions counts completed reclaims (Collection.Compact).
	compactions atomic.Int64
}

func newIndex(features []*Graph, weights []float64, metric Metric, mcsOpt mcs.Options, workers int, snap *snapshot) *Index {
	ix := &Index{
		features: features,
		mapper:   vecspace.NewMapper(features),
		dims:     dimsDigest(features),
		weights:  weights,
		metric:   metric,
		mcsOpt:   mcsOpt,
		workers:  workers,
	}
	ix.snap.Store(snap)
	return ix
}

// fork returns an index over the same dimension set as ix — features,
// weights, compiled mapper and digest are shared, not rebuilt — serving
// snap with the given worker bound: how a collection's shards come to hold
// one dimension set (CreateFromIndex).
func (ix *Index) fork(workers int, snap *snapshot) *Index {
	next := &Index{
		features: ix.features,
		mapper:   ix.mapper,
		dims:     ix.dims,
		weights:  ix.weights,
		metric:   ix.metric,
		mcsOpt:   ix.mcsOpt,
		workers:  workers,
	}
	next.snap.Store(snap)
	return next
}

// dimsDigest hashes the ordered feature list in its binary encoding.
func dimsDigest(features []*Graph) [sha256.Size]byte {
	h := sha256.New()
	for _, f := range features {
		_ = graph.WriteBinary(h, f) // fails only when the writer does; a hash never does
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// Build mines frequent subgraphs from db, selects the dimension set with
// DSPM or DSPMap, and maps the database into the resulting space. It is
// BuildContext with a background context.
func Build(db []*Graph, opt Options) (*Index, error) {
	return BuildContext(context.Background(), db, opt)
}

// BuildContext is Build with cancellation: every stage of the offline
// pipeline (mining, the pairwise MCS matrix, the DSPM/DSPMap dimension
// computation, vector materialization) checks ctx and a cancelled build
// returns (nil, ctx.Err()) promptly instead of running to completion.
func BuildContext(ctx context.Context, db []*Graph, opt Options) (*Index, error) {
	if len(db) < 2 {
		return nil, fmt.Errorf("graphdim: need at least 2 graphs, got %d", len(db))
	}
	for i, g := range db {
		if g == nil {
			return nil, fmt.Errorf("graphdim: nil graph at index %d", i)
		}
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults(len(db))
	progress := opt.Progress
	report := func(stage BuildStage, done, total int) {
		if progress != nil {
			progress(stage, done, total)
		}
	}

	report(StageMining, 0, 0)
	feats, err := gspan.MineContext(ctx, db, gspan.Options{
		MinSupport:  gspan.MinSupportRatio(opt.Tau, len(db)),
		MaxEdges:    opt.MaxPatternEdges,
		MaxFeatures: opt.MaxCandidates,
		Workers:     opt.Workers,
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("graphdim: mining candidates: %w", err)
	}
	if len(feats) == 0 {
		return nil, fmt.Errorf("graphdim: no frequent subgraphs at tau=%v", opt.Tau)
	}
	report(StageMining, len(feats), len(feats))

	idx := vecspace.BuildIndex(len(db), feats)
	p := opt.Dimensions
	if p > idx.P {
		p = idx.P
	}

	mcsOpt := mcs.Options{MaxNodes: opt.MCSBudget}
	var res *core.Result
	switch opt.Algorithm {
	case DSPM:
		report(StageMatrix, 0, len(db))
		delta, err := opt.Metric.MatrixContext(ctx, db, mcsOpt, opt.Workers, func(done, total int) {
			report(StageMatrix, done, total)
		})
		if err != nil {
			return nil, err
		}
		iters := opt.Iterations
		if iters == 0 {
			iters = core.DefaultMaxIter
		}
		report(StageDSPM, 0, iters)
		res, err = core.DSPMContext(ctx, idx, delta, core.Config{
			P:       p,
			MaxIter: opt.Iterations,
			OnIteration: func(k int, _ float64) {
				report(StageDSPM, k, iters)
			},
		})
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("graphdim: dimension computation: %w", err)
		}
		// iters was the cap; the run may converge earlier. Close the
		// stage with the iterations actually executed so done == total.
		report(StageDSPM, res.Iterations, res.Iterations)
	case DSPMap:
		dis := func(i, j int) float64 {
			return opt.Metric.DissimilarityBudget(db[i], db[j], mcsOpt)
		}
		report(StageDSPM, 0, 0)
		res, err = core.DSPMapContext(ctx, idx, dis, core.MapConfig{
			Core: core.Config{P: p, MaxIter: opt.Iterations},
			B:    opt.PartitionSize,
			Seed: opt.Seed,
		})
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("graphdim: dimension computation: %w", err)
		}
		report(StageDSPM, 1, 1)
	}

	features := make([]*Graph, len(res.Selected))
	weights := make([]float64, len(res.Selected))
	for i, r := range res.Selected {
		features[i] = feats[r].Graph
		weights[i] = res.C[r]
	}
	sub := idx.Subindex(res.Selected)
	report(StageVectors, 0, sub.N)
	vectors := make([]*vecspace.BitVector, sub.N)
	if err := pool.ForContext(ctx, opt.Workers, sub.N, func(i int) {
		vectors[i] = sub.Vector(i)
	}); err != nil {
		return nil, err
	}
	report(StageVectors, sub.N, sub.N)

	return newIndex(features, weights, opt.Metric, mcsOpt, opt.Workers,
		newSnapshot(db, vectors, len(features), make([]bool, len(db)), len(db), nil)), nil
}

// Dimensions returns the selected subgraph dimensions, most informative
// first.
func (ix *Index) Dimensions() []*Graph { return ix.features }

// Weights returns the DSPM weight of each dimension, aligned with
// Dimensions.
func (ix *Index) Weights() []float64 { return ix.weights }

// Size returns the number of live (searchable) graphs: every id ever
// assigned, minus the graphs tombstoned by Remove.
func (ix *Index) Size() int {
	s := ix.snap.Load()
	return len(s.db) - s.deadCount
}

// TotalGraphs returns the number of id slots — live graphs plus
// tombstones. Ids are stable for the lifetime of an index (and across
// persistence), so valid ids are exactly [0, TotalGraphs()).
func (ix *Index) TotalGraphs() int { return len(ix.snap.Load().db) }

// Graph returns the graph with id i. Removed graphs remain addressable so
// historical results can still be resolved; use IsRemoved to check. On a
// memory-mapped index the payload is decoded from the segment on first
// access, and Graph returns nil if it no longer decodes (the file was
// corrupted after its checkpoint; queries that reach it return an error).
func (ix *Index) Graph(i int) *Graph {
	g, _ := ix.snap.Load().graphAt(i)
	return g
}

// IsRemoved reports whether id i has been tombstoned by Remove.
func (ix *Index) IsRemoved(i int) bool { return ix.snap.Load().dead[i] }

// Generation returns a monotonic counter of committed mutations: it
// starts at 0 and moves (by at least one) after every Add or Remove
// publishes and before that call returns. Two equal Generation reads
// with an operation between them therefore guarantee the operation saw
// every mutation committed before the first read — the fence the
// query-result cache keys on (see CacheOptions): once a write returns to
// its caller, a result cached under the old generation can never be
// served again. (In the window between publish and bump a concurrent
// reader may still hit the old key — indistinguishable from a search that
// raced the write, hence linearizable.) The counter is not persisted; a
// loaded index starts at 0 again.
func (ix *Index) Generation() uint64 { return ix.gen.Load() }

// Result is one top-k answer.
type Result struct {
	// ID is the database id of the matched graph.
	ID int
	// Distance is the score the engine ranked by: the normalized
	// Euclidean distance in the mapped space for EngineMapped (0 =
	// identical feature profile), the MCS dissimilarity for
	// EngineVerified and EngineExact.
	Distance float64
}

func (ix *Index) queryWorkers() int {
	if ix.workers > 0 {
		return ix.workers
	}
	return pool.DefaultWorkers(0)
}

// Dissimilarity computes the exact metric value δ(a, b) — exposed for
// applications that verify or re-rank candidates.
func (ix *Index) Dissimilarity(a, b *Graph) float64 {
	return ix.metric.DissimilarityBudget(a, b, ix.mcsOpt)
}

// Contains reports whether pattern is subgraph-isomorphic to target —
// the containment primitive the mapping is built on.
func Contains(target, pattern *Graph) bool {
	return subiso.Contains(target, pattern)
}
