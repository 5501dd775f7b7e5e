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
// dimension space with a cheap VF2 pass, so the database can also grow
// online. Store manages named collections built from an Index
// (CreateFromIndex, or Create for a full build) and sharded across
// parallel indexes: graphs place onto shards by a fixed hash of their
// global id, Search fans out and merges per-shard top-k heaps into one
// globally ranked result (exactly the unsharded ranking — see
// Collection.Search), Add maps new graphs onto the existing dimensions,
// Remove tombstones graphs, and Collection.Compact reclaims tombstoned
// slots while readers keep serving — readers are never blocked, since
// updates swap an immutable snapshot. A collection has one dimension set
// for life: every shard holds it, nothing re-selects it, and
// Collection.StaleRatios tells the operator when enough of the database
// postdates the selection that a new collection is warranted. A store
// directory persists every collection, and query servers (cmd/gserve)
// load it without re-mining or re-running DSPM.
//
// Collections built with CacheOptions serve repeat queries from an LRU
// fenced by per-shard generation counters, so any committed mutation or
// Compact invalidates affected entries for free (see the gen field of
// Index for the ordering argument).
package graphdim

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/bits"
	"slices"
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
	// (gSpan mining, the DSPM pairwise MCS matrix, DSPMap's partition
	// and overlap sub-runs with their lazy dissimilarities, vector
	// materialization) and inherited by the index for Add's mapping.
	// Zero or negative means one worker per CPU. Build output is
	// identical for every worker count — parallelism changes only
	// wall-clock time.
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
// one through a transition below (appended, tombstoned, repacked,
// resorted) and swaps it in, so any number of readers proceed lock-free
// and none ever sees a graph without its vector, its tombstone bit or its id. The
// constructors and transitions in this file are the only code that names
// the columns together.
type snapshot struct {
	// db spans every id slot, but a snapshot served from a mapped segment
	// keeps nil placeholders below seg's size: graph payloads are faulted
	// in on demand through graph/graphAt. Ids added after the segment was
	// written (WAL replay, Add) overlay as ordinary heap values. Heap-mode
	// snapshots (seg == nil) have no nils.
	db []*Graph
	// dead is the tombstone bitset (see isDead): ceil(len(db)/64) words,
	// no bit set at or past len(db) — so appended ids start live — and
	// exactly the segment's dead section read as little-endian words.
	dead      []uint64
	deadCount int
	// globals[id] is the collection-global id of graph id: the rank every
	// engine breaks a shard's ties by (order), so a shard ranks exactly as
	// the collection does whatever order its lanes are in. Each id appears
	// once and only on the shard it places on. subset clusters the lanes it
	// writes (so the table is not sorted), and appended ids take the next
	// lanes in ascending global order — each above every id the shard
	// holds. nil on a stand-alone Index: its ids are the only ids.
	globals []int
	// byGlobal lists the lanes in ascending global id, the table localOf
	// searches; zoneMin[zi] is the least global id in zone zi
	// (vecspace.ZoneMinima), the flat scan's second key for ordering zones.
	// Both derive from globals wherever it changes — in full where a
	// snapshot is born, in O(appended) by appended — and are nil with it.
	byGlobal []int32
	zoneMin  []int
	// seg, when non-nil, is the mapped segment the base of this snapshot
	// is served from — shared, with its decoded-graph cache, across every
	// snapshot descended from the same open.
	seg *segSource
	// block is the snapshot's vector store — the only one: vector id is
	// lane id of the SoA block, the operand of every mapped-space scan
	// and the tile section of every segment written. Its zone map is
	// derived from its tiles wherever a block is born (vecspace.Pack, or
	// the segment's tiles in snapshotFromSegment). appended extends it
	// (Block.Append never writes a shared tile, so on a mapped snapshot
	// the overlay is pure copy-on-write on top of the read-only mapping);
	// tombstoned shares it unchanged — tombstoned ids keep their lanes and
	// every scan skips them through its limits. Invariant: block.N() ==
	// len(db).
	block *vecspace.Block
	// labels holds the per-label inverted lists over db, for label filters
	// (internal/pipeline), built by the first query whose filter names a
	// label (labelIndex) — building it reads every graph, which on a
	// mapped snapshot would fault in the whole corpus. Once built,
	// appended extends it and tombstoned shares it; an unbuilt nil stays
	// lazy. Dimension and ones filters need no index: they read block.
	labels atomic.Pointer[posting.LabelIndex]
	// baseN is how many of the graphs were part of the database the
	// dimension selection (Build) or persisted file saw; ids >= baseN
	// entered through Add. baseDead counts the tombstoned ids below
	// baseN. staleRatio derives from both.
	baseN    int
	baseDead int
	// sorted counts the leading lanes in the order the snapshot's last
	// rewrite left them: subset clusters every lane it writes, and a
	// segment's lanes are served as the checkpoint wrote them. The lanes
	// appended after it are Add's, in id order, until resorted clusters
	// them.
	sorted int
}

// newSnapshot is a stand-alone index's snapshot: db, every graph live and
// part of the build, with vectors (aligned by id, of dimension p) packed
// as its block, each lane its own id. db is adopted with its capacity
// clipped, so appended never writes into a caller's spare capacity (Build
// hands over the caller's own db).
func newSnapshot(db []*Graph, vectors []*vecspace.BitVector, p int) *snapshot {
	return &snapshot{
		db:     slices.Clip(db),
		dead:   make([]uint64, deadWords(len(db))),
		block:  vecspace.Pack(vectors, p),
		baseN:  len(db),
		sorted: len(db),
	}
}

// setGlobals installs the id table of a newborn snapshot, with its
// capacity clipped, and derives its inverse and its zone minima.
func (s *snapshot) setGlobals(globals []int) {
	if globals == nil {
		return
	}
	s.globals = slices.Clip(globals)
	s.zoneMin = vecspace.ZoneMinima(nil, 0, globals)
	s.byGlobal = lanesByGlobal(globals)
}

// lanesByGlobal returns the lanes of globals (non-negative ids) in
// ascending global id, equal ids in lane order: an LSD radix sort, one
// stable counting pass per byte of the largest id. Every open and every
// rewrite of a shard pays for it, and on a 20,000-lane shard it takes a
// tenth of the time a comparison sort of packed (id, lane) keys took.
func lanesByGlobal(globals []int) []int32 {
	lanes := make([]int32, len(globals))
	for lane := range lanes {
		lanes[lane] = int32(lane)
	}
	top := 0
	for _, g := range globals {
		top = max(top, g)
	}
	next := make([]int32, len(globals))
	for shift := 0; top>>shift > 0; shift += 8 {
		var starts [257]int
		for _, lane := range lanes {
			starts[globals[lane]>>shift&0xff+1]++
		}
		for b := 1; b < len(starts); b++ {
			starts[b] += starts[b-1]
		}
		for _, lane := range lanes {
			b := globals[lane] >> shift & 0xff
			next[starts[b]] = lane
			starts[b]++
		}
		lanes, next = next, lanes
	}
	return lanes
}

// deadWords is the length of the tombstone bitset of n ids.
func deadWords(n int) int { return (n + 63) / 64 }

// deadBelow counts the ids below n that the tombstone bitset dead marks.
func deadBelow(dead []uint64, n int) int {
	c := 0
	for _, w := range dead[:n/64] {
		c += bits.OnesCount64(w)
	}
	if n%64 != 0 {
		c += bits.OnesCount64(dead[n/64] & (1<<(n%64) - 1))
	}
	return c
}

// isDead reports whether id is tombstoned: bit id%64 of word id/64.
func (s *snapshot) isDead(id int) bool { return s.dead[id/64]&(1<<(id%64)) != 0 }

// live is the number of searchable graphs: every id slot minus the
// tombstones.
func (s *snapshot) live() int { return len(s.db) - s.deadCount }

// staleRatio is the fraction of id slots, in [0, 1], that are either live
// graphs the dimension selection never saw (ids >= baseN, not since
// removed) or build-time graphs that are gone (tombstoned ids < baseN) —
// see Collection.StaleRatios.
func (s *snapshot) staleRatio() float64 {
	if len(s.db) == 0 {
		return 0
	}
	addedAlive := (len(s.db) - s.baseN) - (s.deadCount - s.baseDead)
	return float64(addedAlive+s.baseDead) / float64(len(s.db))
}

// snapshotFromSegment adopts an opened segment: block is the segment's
// tile section (aliased in place when the reader is a mapping), with its
// zone map derived from those tiles, and the snapshot keeps nil graph
// placeholders that fault payloads in through the reader. The id table is
// the segment's own; the caller checks its ids are in range.
func snapshotFromSegment(r *segment.Reader) (*snapshot, error) {
	n, baseN := r.N(), r.Meta().BaseN
	if baseN < 0 || baseN > n {
		return nil, fmt.Errorf("graphdim: corrupt segment: baseN %d outside [0,%d]", baseN, n)
	}
	blk, err := r.Block()
	if err != nil {
		return nil, err
	}
	dead, deadCount := r.Dead()
	s := &snapshot{
		db:        make([]*Graph, n),
		dead:      dead,
		deadCount: deadCount,
		seg:       newSegSource(r),
		block:     blk,
		baseN:     baseN,
		baseDead:  deadBelow(dead, baseN),
		sorted:    n,
	}
	s.setGlobals(r.IDs())
	return s, nil
}

// appended is the snapshot after an Add: gs, their vectors and (on a
// shard) their global ids take the next ids. Every column grows
// incrementally. db, dead and globals append into s's spare capacity: a
// reader of s sees only s's lengths, so the slots beyond them are the
// writer's, and a full array is copied by append's amortized growth, not
// on every publish. The new ids are the highest yet, so the block fills
// the next lanes and every label list stays sorted. All of it needs the
// linear snapshot chain Index.mu enforces: only the newest snapshot is
// ever appended to. The new global ids ascend and exceed every id the
// shard holds, so their lanes extend byGlobal in order and only the zones
// they fill need new minima. The label index is extended only if a
// filtered query already paid to build it.
func (s *snapshot) appended(gs []*Graph, vecs []*vecspace.BitVector, globals []int) *snapshot {
	dead := s.dead
	for len(dead) < deadWords(len(s.db)+len(gs)) {
		dead = append(dead, 0)
	}
	next := &snapshot{
		db:        append(s.db, gs...),
		dead:      dead,
		deadCount: s.deadCount,
		seg:       s.seg,
		block:     s.block.Append(vecs),
		baseN:     s.baseN,
		baseDead:  s.baseDead,
		sorted:    s.sorted,
	}
	if globals != nil {
		next.globals = append(s.globals, globals...)
		next.byGlobal = s.byGlobal
		for lane := len(s.db); lane < len(next.db); lane++ {
			next.byGlobal = append(next.byGlobal, int32(lane))
		}
		next.zoneMin = vecspace.ZoneMinima(s.zoneMin, len(s.db), next.globals)
	}
	if l := s.labels.Load(); l != nil {
		next.labels.Store(l.Append(gs))
	}
	return next
}

// tombstoned is the snapshot after a Remove of ids (valid, live,
// distinct). db, the id table, the vector block and the label index are
// shared with s; only the tombstone bitset is copied — n/64 words, 2.5 KB
// for a 20,000-id shard. Removal is neither a block nor a label event.
func (s *snapshot) tombstoned(ids []int) *snapshot {
	next := &snapshot{
		db:        s.db,
		dead:      slices.Clone(s.dead),
		deadCount: s.deadCount + len(ids),
		globals:   s.globals,
		byGlobal:  s.byGlobal,
		zoneMin:   s.zoneMin,
		seg:       s.seg,
		block:     s.block,
		baseN:     s.baseN,
		baseDead:  s.baseDead,
		sorted:    s.sorted,
	}
	next.labels.Store(s.labels.Load())
	for _, id := range ids {
		next.dead[id/64] |= 1 << (id % 64)
		if id < next.baseN {
			next.baseDead++
		}
	}
	return next
}

// subset is a snapshot over exactly the given ids of s (ascending), with
// their existing block vectors, tombstone bits and global ids — no VF2, no
// mining, no selection — and its lanes clustered: the split, Compact and
// a checkpoint's resorted all rewrite a shard through it. The first keep
// ids must be s's lanes [0, keep); they stay where they are, sharing their
// tiles, graph slots and, when keep > 0, s's mapped segment. Every other
// graph is taken onto the heap (a mapped payload is faulted in). The ids
// below s.baseN (which predate the dimension selection, and lead since
// ids ascend) stay a prefix, so staleness bookkeeping carries over; the
// moved lanes of the prefix and of the rest are each stored in
// vecspace.ClusterOrder, so a zone summarizes similar vectors and its
// lower bound prunes it from more queries. The lanes' order never shows
// in a result: every engine ranks ties by global id (order). It fails
// only on a mapped payload that no longer decodes.
func (s *snapshot) subset(ids []int, keep int) (*snapshot, error) {
	n := len(ids)
	baseN := sort.SearchInts(ids, s.baseN)
	cut := max(keep, baseN) - keep
	vecs := make([]*vecspace.BitVector, n-keep)
	for i, id := range ids[keep:] {
		vecs[i] = s.block.Vector(id)
	}
	order := vecspace.ClusterOrder(vecs[:cut])
	for _, i := range vecspace.ClusterOrder(vecs[cut:]) {
		order = append(order, cut+i)
	}

	db := make([]*Graph, n)
	dead := make([]uint64, deadWords(n))
	globals := make([]int, n)
	copy(db, s.db[:keep])
	copy(dead, s.dead[:deadWords(keep)])
	if keep%64 != 0 {
		dead[keep/64] &= 1<<(keep%64) - 1
	}
	copy(globals, s.globals[:keep])
	moved := make([]*vecspace.BitVector, len(order))
	for j, i := range order {
		lane, id := keep+j, ids[keep+i]
		g, err := s.graphAt(id)
		if err != nil {
			return nil, err
		}
		db[lane], moved[j], globals[lane] = g, vecs[i], s.global(id)
		if s.isDead(id) {
			dead[lane/64] |= 1 << (lane % 64)
		}
	}
	next := &snapshot{
		db:        db,
		dead:      dead,
		deadCount: deadBelow(dead, n),
		block:     s.block.Prefix(keep).Append(moved),
		baseN:     baseN,
		baseDead:  deadBelow(dead, baseN),
		sorted:    n,
	}
	next.setGlobals(globals)
	if keep > 0 {
		next.seg = s.seg
		// A label index already paid for keeps its prefix; the moved
		// lanes' graphs are on the heap.
		if l := s.labels.Load(); l != nil {
			next.labels.Store(l.Prefix(keep).Append(db[keep:]))
		}
	}
	return next, nil
}

// repacked is s without its tombstoned slots — what Compact publishes.
// Every live graph keeps its vector and its global id, the rank its ties
// break by, so no ranking any engine returns can change.
func (s *snapshot) repacked() (*snapshot, error) {
	live := make([]int, 0, len(s.db)-s.deadCount)
	for id := range s.db {
		if !s.isDead(id) {
			live = append(live, id)
		}
	}
	return s.subset(live, 0)
}

// resorted is s with the lanes Add appended since its last rewrite
// clustered again — what a checkpoint publishes and writes — or nil when
// there are none, or when s is a stand-alone index's (its lanes are its
// ids). Only heap lanes move: those past the segment a mapped s is served
// from, so no payload is faulted in, and otherwise those past baseN, so
// all the added lanes form one clustered run. Tombstones and global ids
// move with their lanes, so every ranking, stat and cached result stays
// as it was.
func (s *snapshot) resorted() (*snapshot, error) {
	if s.sorted == len(s.db) || s.globals == nil {
		return nil, nil
	}
	keep := s.baseN
	if s.seg != nil {
		keep = s.seg.r.N()
	}
	all := make([]int, len(s.db))
	for id := range all {
		all[id] = id
	}
	return s.subset(all, keep)
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
	i := sort.Search(len(s.byGlobal), func(i int) bool { return s.globals[s.byGlobal[i]] >= g })
	if i < len(s.byGlobal) && s.globals[s.byGlobal[i]] == g {
		return int(s.byGlobal[i])
	}
	return -1
}

// order is the tie order of every engine over this snapshot: by global
// id, which on a stand-alone Index is the id itself.
func (s *snapshot) order() topk.Order {
	return topk.Order{Rank: s.globals, ZoneMin: s.zoneMin}
}

// limits states what a scan of this snapshot may score, as the data the
// query engines apply inline: the tombstones only when there are any, and
// admit — whatever predicate the query carries — only when it carries
// one. A scan under limits with no predicate never resolves a graph.
func (s *snapshot) limits(admit topk.Alive) topk.Limits {
	lim := topk.Limits{Pred: admit}
	if s.deadCount > 0 {
		lim.Skip = s.dead
	}
	return lim
}

// graphAt returns graph id, faulting it from the mapped segment on first
// demand — the one accessor every engine, predicate, scan and
// Collection.Graph resolves graphs through. It fails only on a
// mapped payload that no longer decodes (the segment file was corrupted
// after its checkpoint; open validates the trailer), so a corrupt payload
// fails the query, not the process. The error names the graph by its
// global id; the segment's own message names its lane.
func (s *snapshot) graphAt(id int) (*Graph, error) {
	if g := s.db[id]; g != nil || s.seg == nil {
		return g, nil
	}
	g, err := s.seg.graphAt(id)
	if err != nil {
		return nil, fmt.Errorf("graphdim: graph %d: %w", s.global(id), err)
	}
	return g, nil
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

// Index is the build artefact: the selected subgraph dimensions (DSPM or
// DSPMap over a database), the database graphs, and their binary vectors.
// Build returns one; Store.CreateFromIndex serves it as a collection, and
// every shard of a collection is an Index over the collection's one
// dimension set. The dimension set is fixed at Build time and never
// changes; only the database below it grows and shrinks.
//
// Readers never take a lock: a query reads an immutable snapshot, and a
// write (Add, a collection's remove or compaction) publishes the next
// snapshot atomically under the one writer lock, so a long-running scan
// keeps seeing the state it started on.
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
	workers int // Add's mapping fan-out bound; always >= 1

	// mu is the one writer lock: publish, reclaim and resort derive the
	// next snapshot and swap it in under it.
	mu   sync.Mutex
	snap atomic.Pointer[snapshot]
	// gen counts publishes: publish and reclaim bump it once,
	// after storing their snapshot and before returning (resort's publish
	// changes nothing a read can observe, and moves it not); it starts at 0
	// and is not persisted. That ordering is the query cache's fence (see
	// CacheOptions): two equal reads with an operation between them
	// guarantee the operation saw every write committed before the first
	// read, so once a write returns to its caller a result cached under
	// the old generation can never be served again. In the window between
	// publish and bump a concurrent reader may still hit the old key —
	// indistinguishable from a search that raced the write, hence
	// linearizable.
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
// snap: how a collection's shards come to hold one dimension set
// (CreateFromIndex).
func (ix *Index) fork(snap *snapshot) *Index {
	next := &Index{
		features: ix.features,
		mapper:   ix.mapper,
		dims:     ix.dims,
		weights:  ix.weights,
		metric:   ix.metric,
		mcsOpt:   ix.mcsOpt,
		workers:  ix.workers,
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
			Core:    core.Config{P: p, MaxIter: opt.Iterations},
			B:       opt.PartitionSize,
			Seed:    opt.Seed,
			Workers: opt.Workers,
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
		newSnapshot(db, vectors, len(features))), nil
}

// Dimensions returns the selected subgraph dimensions, most informative
// first.
func (ix *Index) Dimensions() []*Graph { return ix.features }

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

// Contains reports whether pattern is subgraph-isomorphic to target —
// the containment primitive the mapping is built on.
func Contains(target, pattern *Graph) bool {
	return subiso.Contains(target, pattern)
}
