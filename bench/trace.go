package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/graphdim"
	"repro/internal/graph"
	"repro/internal/mcs"
	"repro/internal/pipeline"
	"repro/internal/posting"
	"repro/internal/segment"
	"repro/internal/topk"
	"repro/internal/vecspace"
	"repro/internal/wal"
)

// The traced run. Spans are recorded from the benchmark's own files,
// around calls into each layer's exported functions; the program under
// test carries no spans yet (ROADMAP item 4). For every traced op the
// parent span times the real Collection call, and the child spans replay
// that op's layer calls, in order, on structures the harness rebuilt with
// public constructors. Children run after their parent returns, so they
// do not nest inside it in time; the Parent field records causality.

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`  // ns since the trace began
	End    int64  `json:"end"`    // ns since the trace began
	Parent int    `json:"parent"` // index of the causing span; -1 = none
	Op     int    `json:"op_id"`  // spans of one op share it; negative = off-path probe
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin(name string, parent, op int) int {
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, Op: op, Start: time.Since(tr.t0).Nanoseconds()})
	return len(tr.spans) - 1
}

func (tr *tracer) end(i int) {
	tr.spans[i].End = time.Since(tr.t0).Nanoseconds()
}

// timed records a span that was timed elsewhere and has just ended.
func (tr *tracer) timed(name string, parent, op int, d time.Duration) int {
	end := time.Since(tr.t0).Nanoseconds()
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, Op: op, Start: end - d.Nanoseconds(), End: end})
	return len(tr.spans) - 1
}

// perOp sums the spans with one of the names within each op: a layer
// called twice by one op (once per shard) costs that op both calls. It
// keeps on-path ops (id >= 0) or off-path probes (id < 0), never both.
func (tr *tracer) perOp(onPath bool, names ...string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range tr.spans {
		if (s.Op >= 0) != onPath {
			continue
		}
		for _, n := range names {
			if s.Name == n {
				out[s.Op] += float64(s.End - s.Start)
			}
		}
	}
	return out
}

// opMedian is the median over ops of the layer's per-op time, in ns: over
// the ops on whose path the layer lies, or, if the workload never calls
// it, over the off-path probes.
func (tr *tracer) opMedian(name string) float64 {
	sums := tr.perOp(true, name)
	if len(sums) == 0 {
		sums = tr.perOp(false, name)
	}
	return median(values(sums))
}

func values(m map[int]float64) []float64 {
	xs := make([]float64, 0, len(m))
	for _, v := range m {
		xs = append(xs, v)
	}
	return xs
}

// share is the median over ops of the children's summed time, divided by
// the median parent time of the same ops — how much of the parent the
// named layers account for.
func (tr *tracer) share(parent string, children ...string) float64 {
	kids := tr.perOp(true, children...)
	var num, den []float64
	for op, p := range tr.perOp(true, parent) {
		if k, ok := kids[op]; ok {
			num = append(num, k)
			den = append(den, p)
		}
	}
	if len(den) == 0 {
		return 0
	}
	return median(num) / median(den)
}

// spanMedian is the median duration of single spans, in ns.
func (tr *tracer) spanMedian(name string) float64 {
	var xs []float64
	for _, s := range tr.spans {
		if s.Name == name {
			xs = append(xs, float64(s.End-s.Start))
		}
	}
	return median(xs)
}

func (tr *tracer) write(path string) error {
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Span names. A read op's children are the first group; spanRead and
// spanWrite are the parents.
const (
	spanRead      = "graphdim.collection_search"
	spanWrite     = "graphdim.add_durable"
	spanMap       = "vecspace.map"
	spanPlan      = "posting.plan"
	spanScan      = "topk.scan"
	spanVerify    = "mcs.verify"
	spanCall      = "mcs.call"
	spanParse     = "pipeline.parse"
	spanCompile   = "pipeline.compile"
	spanAggregate = "pipeline.aggregate"

	spanIndexSearch = "graphdim.index_search"
	spanCacheHit    = "graphdim.cache_hit"
	spanAddMap      = "graphdim.add_map"
	spanAppend      = "wal.append"
	spanVolatile    = "graphdim.add_volatile"
	spanSegOpen     = "segment.open"
	spanDecode      = "segment.graph_decode"
	spanReplay      = "wal.replay"
)

// readChildren are the layers a read op's time is attributed to.
var readChildren = []string{spanParse, spanMap, spanPlan, spanCompile, spanScan, spanVerify, spanAggregate}

// hshard is the harness's stand-in for one shard: the same layer inputs
// the real shard holds, built from outside. The real placement hashes
// ids; the harness splits them round-robin, which gives halves of the
// same size and make-up.
type hshard struct {
	ids    []int // local → global id
	graphs []*graph.Graph
	vecs   []*vecspace.BitVector
	blk    *vecspace.Block
	post   *posting.Index
	labels *posting.LabelIndex
	dead   []bool // all false: the traced reads run before any Remove
}

// alive builds the liveness filter a shard's scan is handed, shaped like
// the one the collection builds: a tombstone check, then the fan-out's
// id-table bound and the filters' residual as a predicate over (id, graph).
// Its per-id cost is part of what the real scan pays.
func (h *hshard) alive(residual func(id int, g *graph.Graph) bool) topk.Alive {
	n := len(h.ids)
	pred := func(local int, g *graph.Graph) bool {
		return local < n && (residual == nil || residual(local, g))
	}
	return func(id int) bool { return !h.dead[id] && pred(id, h.graphs[id]) }
}

// layerProbe owns the derived structures and the counters of one traced
// run.
type layerProbe struct {
	tr   *tracer
	w    workloadSpec
	in   *inputs
	sc   scale
	orc  *oracle
	hs   []hshard
	full *vecspace.Block
	scr  *topk.Scratch
	tl   *tally
	seed int64

	// on-path counts, summed over the traced ops
	ops, mapCalls, matchedDims int
	planCalls, planPruned      int
	matchedIDs, candidates     int
	liveAtOps                  int
	mcsCalls, mcsExhausted     int
	mcsNodes                   int64
	pushed, fallback           int
	rowsMatched                int64
	cacheHits, cacheLookups    int64
	cacheEvictions             int64
	replayMismatches           int

	// write path
	scratchLog *wal.Log
	twinStore  *graphdim.Store
	twin       *graphdim.Collection
	mu         sync.Mutex
	fsyncs     []float64 // us, from WALOptions.SyncObserver
}

func (lp *layerProbe) onSync(d time.Duration, _ int) {
	lp.mu.Lock()
	lp.fsyncs = append(lp.fsyncs, float64(d.Nanoseconds())/1e3)
	lp.mu.Unlock()
}

// build derives the harness structures from the set-up index's public
// dimension list and the generated graphs.
func (lp *layerProbe) build(s *served) {
	graphs := append(append([]*graph.Graph{}, lp.in.sample...), lp.in.corpus...)
	lp.orc = newOracle(s.index.Dimensions(), graphs)
	p := lp.orc.mapper.Dim()
	lp.full = vecspace.Pack(lp.orc.vecs, p)
	lp.hs = make([]hshard, shards)
	for id, g := range graphs {
		h := &lp.hs[id%shards]
		h.ids = append(h.ids, id)
		h.graphs = append(h.graphs, g)
		h.vecs = append(h.vecs, lp.orc.vecs[id])
	}
	for i := range lp.hs {
		h := &lp.hs[i]
		h.dead = make([]bool, len(h.ids))
		h.blk = vecspace.Pack(h.vecs, p)
		h.post = posting.FromVectors(h.vecs, p)
		h.labels = posting.LabelsFromGraphs(h.graphs)
	}
	lp.scr = topk.NewScratch()
}

func (lp *layerProbe) close() {
	if lp.scratchLog != nil {
		lp.scratchLog.Close()
	}
	if lp.twinStore != nil {
		lp.twinStore.Close()
	}
}

// tracedOp is one read of the fixed sequence: a dense query, or a drawn
// pipeline document.
type tracedOp struct {
	q   *graph.Graph
	doc []byte
}

func (lp *layerProbe) opAt(i int) tracedOp {
	if lp.w.pipes {
		d := lp.in.draws[0][i%len(lp.in.draws[0])]
		return tracedOp{doc: lp.in.docs[d.kind][d.doc]}
	}
	return tracedOp{q: lp.in.queries[i%len(lp.in.queries)]}
}

// call performs the real op against the collection.
func (lp *layerProbe) call(c *graphdim.Collection, op tracedOp) (*graphdim.SearchResult, *pipeline.Result, error) {
	if op.doc != nil {
		res, err := runPipeline(c, op.doc)
		return nil, res, err
	}
	res, err := c.Search(context.Background(), op.q, lp.w.searchOptions())
	return res, nil, err
}

// untracedPass runs the first n ops with one client and no spans: the
// baseline the traced pass's overhead is measured against.
func (lp *layerProbe) untracedPass(c *graphdim.Collection, n int) []float64 {
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		op := lp.opAt(i)
		t0 := time.Now()
		_, _, err := lp.call(c, op)
		lat = append(lat, float64(time.Since(t0).Nanoseconds()))
		lp.tl.note("read", err)
	}
	return lat
}

// tracedPass runs the same n ops again, each followed by the replay of
// its layer calls.
func (lp *layerProbe) tracedPass(s *served, n int) {
	for i := 0; i < n; i++ {
		op := lp.opAt(i)
		var before graphdim.CacheStats
		if lp.w.cache {
			before, _ = s.coll.CacheStats()
		}
		parent := lp.tr.begin(spanRead, -1, i)
		sres, pres, err := lp.call(s.coll, op)
		lp.tr.end(parent)
		lp.tl.note("read", err)
		if err != nil {
			continue
		}
		lp.ops++
		lp.liveAtOps += s.coll.Size()
		hit := false
		if lp.w.cache {
			after, _ := s.coll.CacheStats()
			lp.cacheHits += after.Hits - before.Hits
			lp.cacheLookups += (after.Hits - before.Hits) + (after.Misses - before.Misses)
			lp.cacheEvictions += after.Evictions - before.Evictions
			hit = after.Hits > before.Hits
		}
		if sres != nil {
			lp.candidates += sres.Candidates
			got := lp.replaySearch(parent, i, op.q, lp.w.engine, true)
			if lp.w.engine == graphdim.EngineMapped && checkTopK(got, sres.Results) != nil {
				lp.replayMismatches++
			}
			// The same query on the unsharded index: what fan-out and merge
			// cost, by difference.
			sp := lp.tr.begin(spanIndexSearch, parent, i)
			_, err := s.index.Search(context.Background(), op.q, lp.w.searchOptions())
			lp.tr.end(sp)
			lp.tl.note("index search", err)
			continue
		}
		lp.pushed += pres.Stats.PushedPredicates
		lp.fallback += pres.Stats.FallbackPredicates
		lp.rowsMatched += pres.Stats.Matched
		if pres.Stats.Engine != "" { // a search pipeline: Candidates is the scan's count
			lp.candidates += int(pres.Stats.Candidates)
		}
		lp.replayPipeline(parent, i, op.doc, hit, true)
	}
}

// replaySearch replays one search on every harness shard — map, plan,
// scan, and for the verified engine the MCS calls — then merges the shard
// rankings. counted says whether the op is on the workload's path (its
// counts enter the per-op counters) or an off-path probe.
func (lp *layerProbe) replaySearch(parent, op int, q *graph.Graph, engine graphdim.Engine, counted bool) []graphdim.Result {
	ctx := context.Background()
	want := topK
	if engine == graphdim.EngineVerified {
		want = topK * verifyFac
	}
	var merged []graphdim.Result
	for hi := range lp.hs {
		h := &lp.hs[hi]
		sp := lp.tr.begin(spanMap, parent, op)
		qv := lp.orc.mapper.Map(q)
		lp.tr.end(sp)

		sp = lp.tr.begin(spanPlan, parent, op)
		pl := h.post.Plan(qv, want)
		lp.tr.end(sp)

		var cands *topk.Candidates
		if pl != nil {
			cands = &topk.Candidates{K: want, QueryOnes: pl.QueryOnes, Matched: pl.Matched, Rest: pl.Rest}
		}
		sp = lp.tr.begin(spanScan, parent, op)
		ranking, _, _ := topk.MappedTopKContext(ctx, h.vecs, h.blk, qv, h.alive(nil), want, cands, lp.scr)
		lp.tr.end(sp)
		if counted {
			lp.mapCalls++
			lp.planCalls++
			if hi == 0 {
				lp.matchedDims += qv.Ones()
			}
			if pl != nil {
				lp.planPruned++
				lp.matchedIDs += len(pl.Matched)
			}
		}

		if engine != graphdim.EngineVerified {
			for _, it := range ranking {
				merged = append(merged, graphdim.Result{ID: h.ids[it.ID], Distance: it.Score})
			}
			continue
		}
		retrieved := append([]topk.Item(nil), ranking...) // ranking aliases the scratch
		vs := lp.tr.begin(spanVerify, parent, op)
		for _, it := range retrieved {
			g := h.graphs[it.ID]
			cs := lp.tr.begin(spanCall, vs, op)
			r := mcs.Compute(q, g, mcs.Options{MaxNodes: mcsBudget})
			lp.tr.end(cs)
			if counted {
				lp.mcsCalls++
				lp.mcsNodes += r.Nodes
				if !r.Exact {
					lp.mcsExhausted++
				}
			}
			merged = append(merged, graphdim.Result{ID: h.ids[it.ID], Distance: mcs.Delta2.FromMCS(r.Edges, q.M(), g.M())})
		}
		lp.tr.end(vs)
	}
	sortResults(merged)
	if len(merged) > topK {
		merged = merged[:topK]
	}
	return merged
}

// replayPipeline replays one pipeline document: parse and plan, then per
// harness shard the filter compilation and either the filtered search or
// the row scan, then aggregation. A cache hit did none of the shard work,
// so only its parse is replayed.
func (lp *layerProbe) replayPipeline(parent, op int, doc []byte, hit, counted bool) {
	ctx := context.Background()
	sp := lp.tr.begin(spanParse, parent, op)
	p, err := pipeline.Parse(doc)
	var pl *pipeline.Plan
	if err == nil {
		pl, err = p.Plan()
	}
	lp.tr.end(sp)
	if err != nil || hit {
		return
	}
	agg := pipeline.NewAggregator(pl)
	var rows []pipeline.Row // search rows wait for the merge; scan rows stream
	for hi := range lp.hs {
		h := &lp.hs[hi]
		var qv *vecspace.BitVector
		if pl.Search != nil {
			q, err := pl.Search.QueryGraph()
			if err != nil {
				return
			}
			sp = lp.tr.begin(spanMap, parent, op)
			qv = lp.orc.mapper.Map(q)
			lp.tr.end(sp)
			if counted {
				lp.mapCalls++
				if hi == 0 {
					lp.matchedDims += qv.Ones()
				}
			}
		}
		sp = lp.tr.begin(spanCompile, parent, op)
		comp, err := pipeline.CompileFilters(pl.Filters, pipeline.Catalog{N: len(h.ids), Post: h.post, Labels: h.labels})
		lp.tr.end(sp)
		if err != nil {
			return
		}
		n := len(h.ids)
		if pl.Search == nil {
			part := pipeline.NewAggregator(pl)
			needG := pl.NeedsGraphs()
			sp = lp.tr.begin(spanAggregate, parent, op)
			emit := func(id int) {
				if comp.Residual != nil && !comp.Residual(id, h.graphs[id]) {
					return
				}
				row := pipeline.Row{ID: h.ids[id]}
				if needG {
					row.G = h.graphs[id]
				}
				part.Add(row)
			}
			if comp.Restricted {
				for _, id := range comp.IDs {
					emit(int(id))
				}
			} else {
				for id := 0; id < n; id++ {
					emit(id)
				}
			}
			if hi == 0 {
				agg = part
			} else {
				agg.Merge(part)
			}
			lp.tr.end(sp)
			continue
		}
		alive := h.alive(comp.Residual)
		var cands *topk.Candidates
		if comp.Restricted {
			cands = &topk.Candidates{K: pl.Search.K, QueryOnes: qv.Ones(), Matched: comp.IDs,
				Rest: func(func(id, ones int32) bool) {}}
		} else {
			sp = lp.tr.begin(spanPlan, parent, op)
			ppl := h.post.Plan(qv, pl.Search.K)
			lp.tr.end(sp)
			if counted {
				lp.planCalls++
			}
			if ppl != nil {
				cands = &topk.Candidates{K: pl.Search.K, QueryOnes: ppl.QueryOnes, Matched: ppl.Matched, Rest: ppl.Rest}
				if counted {
					lp.planPruned++
					lp.matchedIDs += len(ppl.Matched)
				}
			}
		}
		sp = lp.tr.begin(spanScan, parent, op)
		ranking, _, _ := topk.MappedTopKContext(ctx, h.vecs, h.blk, qv, alive, pl.Search.K, cands, lp.scr)
		lp.tr.end(sp)
		for _, it := range ranking {
			rows = append(rows, pipeline.Row{ID: h.ids[it.ID], Distance: it.Score, HasDistance: true, Engine: "mapped"})
		}
	}
	if pl.Search != nil {
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].Distance != rows[j].Distance {
				return rows[i].Distance < rows[j].Distance
			}
			return rows[i].ID < rows[j].ID
		})
		if len(rows) > pl.Search.K {
			rows = rows[:pl.Search.K]
		}
		sp = lp.tr.begin(spanAggregate, parent, op)
		for _, r := range rows {
			agg.Add(r)
		}
		agg.Finish()
		lp.tr.end(sp)
		return
	}
	sp = lp.tr.begin(spanAggregate, parent, op)
	agg.Finish()
	lp.tr.end(sp)
}

// probeOffPath times the layers this workload's reads never call, on this
// workload's inputs, so that every layer time exists on every workload
// (the counts stay zero: the workload does not pay these costs).
func (lp *layerProbe) probeOffPath(s *served) {
	r := rand.New(rand.NewSource(seedFor(lp.seed, lp.w.name, 5)))
	pool := append(append([]*graph.Graph{}, lp.in.corpus...), lp.in.queries...)
	for i := 0; i < lp.sc.probeOps; i++ {
		op := -1 - i
		q := lp.in.queries[i%len(lp.in.queries)]
		if lp.w.engine != graphdim.EngineVerified {
			lp.replaySearch(-1, op, q, graphdim.EngineVerified, false)
		}
		if lp.w.pipes {
			// Pipeline reads map and scan but only plan when no label
			// predicate restricts them; a bare search covers the rest.
			lp.replaySearch(-1, op, q, graphdim.EngineMapped, false)
			sp := lp.tr.begin(spanIndexSearch, -1, op)
			_, err := s.index.Search(context.Background(), q, lp.w.searchOptions())
			lp.tr.end(sp)
			lp.tl.note("index search", err)
			continue
		}
		for kind := 0; kind < pipeKinds; kind++ {
			lp.replayPipeline(-1, op, pipelineDoc(r, kind, pool), false, false)
		}
	}
}

// probeCacheHit times a Search answered from the query cache, on a cached
// twin of the collection: each query runs twice, the second is the hit.
func (lp *layerProbe) probeCacheHit(s *served) error {
	st := graphdim.NewStore(graphdim.StoreOptions{})
	defer st.Close()
	c, err := st.CreateFromIndex("cached", s.index, graphdim.CollectionOptions{
		Shards: shards, Build: buildOptions(), Cache: graphdim.CacheOptions{MaxEntries: lp.sc.cacheEntries}})
	if err != nil {
		return err
	}
	for i := 0; i < lp.sc.probeOps; i++ {
		q := lp.in.queries[i%len(lp.in.queries)]
		if _, err := c.Search(context.Background(), q, lp.w.searchOptions()); err != nil {
			return err
		}
		sp := lp.tr.begin(spanCacheHit, -1, -1-i)
		_, err := c.Search(context.Background(), q, lp.w.searchOptions())
		lp.tr.end(sp)
		if err != nil {
			return err
		}
	}
	// (More hits than repeats is fine: two generated queries can be the
	// same molecule.)
	if cs, _ := c.CacheStats(); cs.Hits < int64(lp.sc.probeOps) {
		return fmt.Errorf("cache probe: %d hits in %d repeats", cs.Hits, lp.sc.probeOps)
	}
	return nil
}

// kernel measures the scan kernel without the heap, and its ceiling: how
// fast this box copies memory.
type kernel struct {
	hammingNsPerVec, scanGBps, copyGBps float64
}

func (lp *layerProbe) probeKernel() kernel {
	n := lp.full.N()
	out := make([]int32, n)
	bytes := float64(n * lp.full.Words() * 8)
	var per []float64
	for i := 0; i < lp.sc.probeOps*4; i++ {
		qv := lp.orc.mapper.Map(lp.in.queries[i%len(lp.in.queries)])
		t0 := time.Now()
		lp.full.HammingInto(qv, out)
		per = append(per, float64(time.Since(t0).Nanoseconds()))
	}
	ns := median(per)
	k := kernel{hammingNsPerVec: ns / float64(n), scanGBps: bytes / ns}

	const probeBytes = 64 << 20
	src, dst := make([]byte, probeBytes), make([]byte, probeBytes)
	per = per[:0]
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		copy(dst, src)
		per = append(per, float64(time.Since(t0).Nanoseconds()))
	}
	k.copyGBps = probeBytes / median(per)
	return k
}

// probeFsyncFloor is the ceiling of the write path: a 4 KB write and an
// fsync, in the directory the store logs to. Microseconds.
func probeFsyncFloor(dir string, n int) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var per []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(per), nil
}

// replayAdd replays the layer calls of one durable Add: the VF2 mapping
// of its graphs, the log append (on a scratch log beside the real one),
// and the same Add on a volatile twin — durable minus volatile is what
// the write-ahead log costs.
func (lp *layerProbe) replayAdd(op int, st step) {
	parent := lp.tr.timed(spanWrite, -1, op, st.d) // the writer timed the Add
	sp := lp.tr.begin(spanAddMap, parent, op)
	for _, g := range st.batch {
		lp.orc.mapper.Map(g)
	}
	lp.tr.end(sp)

	sp = lp.tr.begin(spanAppend, parent, op)
	_, err := lp.scratchLog.Append(wal.Record{Type: wal.TypeAdd, First: st.first, Graphs: st.batch})
	lp.tr.end(sp)
	lp.tl.note("scratch wal append", err)

	sp = lp.tr.begin(spanVolatile, parent, op)
	_, err = lp.twin.Add(context.Background(), st.batch...)
	lp.tr.end(sp)
	lp.tl.note("volatile add", err)
}

// prepareWrites opens the scratch log and the volatile twin.
func (lp *layerProbe) prepareWrites(s *served, wd *workDir) error {
	var err error
	if lp.scratchLog, err = wal.Open(wd.next("scratch-wal"), wal.Options{}); err != nil {
		return err
	}
	lp.twinStore = graphdim.NewStore(graphdim.StoreOptions{})
	lp.twin, err = lp.twinStore.CreateFromIndex("twin", s.index, graphdim.CollectionOptions{Shards: shards, Build: buildOptions()})
	return err
}

// probeRecovery splits a reopen into its layers on a second copy of the
// crashed directory: mapping the checkpointed segments, decoding graphs
// from them, and reading the log tail back.
func (lp *layerProbe) probeRecovery(dataDir string, checkpointAt uint64, wd *workDir) error {
	dir := wd.next("crashed-layers")
	if err := copyTree(dataDir, dir); err != nil {
		return err
	}
	files, err := filepath.Glob(filepath.Join(dir, collectionName, "shard-*.gdx"))
	if err != nil {
		return err
	}
	for _, f := range files {
		sp := lp.tr.begin(spanSegOpen, -1, 0)
		r, err := segment.Open(f, segment.Options{Map: true})
		if err == nil {
			_, err = r.Block()
		}
		if err == nil {
			_, err = r.Postings()
		}
		if err == nil {
			r.Dead()
		}
		lp.tr.end(sp)
		if err != nil {
			return fmt.Errorf("opening %s: %w", f, err)
		}
		step := max(r.N()/256, 1)
		for id := 0; id < r.N(); id += step {
			sp := lp.tr.begin(spanDecode, -1, 0)
			_, err := r.GraphAt(id)
			lp.tr.end(sp)
			if err != nil {
				return err
			}
		}
		r.Close()
	}
	sp := lp.tr.begin(spanReplay, -1, 0)
	l, err := wal.Open(filepath.Join(dir, collectionName, "wal"), wal.Options{})
	records := 0
	if err == nil {
		err = l.Replay(checkpointAt, func(wal.Record) error { records++; return nil })
		l.Close()
	}
	lp.tr.end(sp)
	if err == nil && records == 0 {
		err = fmt.Errorf("the crashed copy's log tail is empty")
	}
	return err
}
