package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"

	"repro/graphdim"
)

// runConfig is one invocation: one workload, one seed, measured or traced.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string    // scratch directories and trace files go here
	log      io.Writer // the human-readable report
}

func (c runConfig) scale() scale {
	if c.smoke {
		return smokeScale
	}
	return fullScale
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a run prints.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(cfg runConfig) (*runResult, error) {
	w, ok := specOf(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	wd, err := newWorkDir(cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer wd.remove()
	tl := &tally{}
	var values map[string]float64
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		values, err = tracedRun(cfg, w, wd, tl)
	} else {
		values, err = measuredRun(cfg, w, wd, tl)
	}
	if err != nil {
		return nil, err
	}
	res := &runResult{
		Attempted: tl.attempted.Load(),
		Failed:    tl.failed.Load(),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	res.Correct = res.Failed == 0
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, e := range tl.firstErrs {
		fmt.Fprintf(cfg.log, "FAILED %s\n", e)
	}
	return res, nil
}

// measuredRun is a run with tracing off. It is sc.repeats independent
// repetitions, each on a freshly set-up store: set-up, warm-up, a
// closed-loop window of seconds/repeats, the persistence phase. The parts
// of every timed phase (slices of the windows, chunks of the bursts,
// reopens, set-ups) are pooled over the repetitions, and each timing is
// the pool's calm or brisk quartile (stats.go): a slowdown imposed from
// outside for a few seconds (another tenant of the host) spoils some parts,
// not the number.
func measuredRun(cfg runConfig, w workloadSpec, wd *workDir, tl *tally) (map[string]float64, error) {
	sc := cfg.scale()
	in := generate(w, cfg.seed, sc)
	var readMeds, readRates, writeMeds, writeRates, reopens, setups, heaps, disk []float64
	var reads, writes []float64 // ms, pooled over the repetitions, for the tails
	precision := 0.0
	for rep := 0; rep < sc.repeats; rep++ {
		s, err := setUp(in, w, sc, wd.next("data"), nil)
		if err != nil {
			return nil, err
		}
		if rep == 0 {
			// The correctness check, before anything is timed.
			preflight(s, w, in, sc, tl)
		}
		if w.cache {
			fillCache(s, in, sc, tl)
		}
		checkpointAt := 0
		if w.writer {
			checkpointAt = sc.checkpointAt
		}
		wr := newWriter(in, checkpointAt)
		win := runWindow(s, w, in, wr, sc.warmup, cfg.seconds/float64(sc.repeats), tl)
		heaps = append(heaps, heapLiveMB())
		if rep == sc.repeats-1 {
			if precision, err = precisionAt10(s.coll, in, w.engine, tl); err != nil {
				s.store.Close()
				return nil, err
			}
		}
		pers, err := persist(s, w, in, sc, wr, wd, tl, nil)
		s.store.Close()
		if err != nil {
			return nil, err
		}

		meds, rates := win.sliced(win.reads, 1)
		readMeds, readRates = append(readMeds, meds...), append(readRates, rates...)
		reads = append(reads, durations(win.reads)...)
		if w.writer {
			// The Adds ran beside the readers; a cycle's rate counts its
			// Removes and its Checkpoint in the time.
			meds, _ = win.sliced(win.writes, batchSize)
			writeMeds, writeRates = append(writeMeds, meds...), append(writeRates, win.cycleRates...)
			writes = append(writes, durations(win.writes)...)
		} else {
			writeMeds, writeRates = append(writeMeds, pers.chunkMeds...), append(writeRates, pers.chunkRates...)
			writes = append(writes, pers.writes...)
		}
		reopens = append(reopens, pers.reopens...)
		setups = append(setups, s.times.total.Seconds())
		disk = append(disk, float64(pers.diskBytes)/float64(pers.liveGraphs))
	}
	if len(readMeds) == 0 || len(writeMeds) == 0 || len(writeRates) == 0 {
		return nil, fmt.Errorf("the windows completed %d reads, %d writes and %d write cycles; they are too short",
			len(reads), len(writes), len(writeRates))
	}

	sort.Float64s(reads)
	sort.Float64s(writes)
	fmt.Fprintf(cfg.log, "%s seed %d: %d clients, %d repetitions with %.2f s windows, %d reads, %d durable adds\n",
		w.name, cfg.seed, clientCount(w), sc.repeats, cfg.seconds/float64(sc.repeats), len(reads), len(writes))
	fmt.Fprintf(cfg.log, "  tails (not end-to-end metrics, see README): read p99 %s, write p99 %s\n",
		tailText(reads), tailText(writes))
	fmt.Fprintf(cfg.log, "  read ms at p10/p25/p50/p75/p90 of all samples: %.4g %.4g %.4g %.4g %.4g\n",
		percentile(reads, 0.1), percentile(reads, 0.25), percentile(reads, 0.5), percentile(reads, 0.75), percentile(reads, 0.9))
	if w.pipes {
		fmt.Fprintf(cfg.log, "  %.1f%% of a client's draws repeat an earlier pipeline\n", 100*repeatShare(in.draws[0]))
	}
	for _, p := range []struct {
		name  string
		parts []float64
	}{
		{"read_p50_ms", readMeds}, {"read_ops_s", readRates}, {"write_p50_ms", writeMeds},
		{"write_graphs_s", writeRates}, {"reopen_ms", reopens}, {"setup_s", setups},
	} {
		q1, q2, q3 := percentile(sortedCopy(p.parts), 0.25), median(p.parts), percentile(sortedCopy(p.parts), 0.75)
		fmt.Fprintf(cfg.log, "  %-15s %3d parts, quartiles %.5g %.5g %.5g\n", p.name, len(p.parts), q1, q2, q3)
	}
	return map[string]float64{
		"read_p50_ms":          calm(readMeds),
		"read_ops_s":           brisk(readRates),
		"write_p50_ms":         calm(writeMeds),
		"write_graphs_s":       brisk(writeRates),
		"reopen_ms":            calm(reopens),
		"disk_bytes_per_graph": median(disk),
		"precision_at_10":      precision,
		"heap_live_mb":         median(heaps),
		"setup_s":              calm(setups),
	}, nil
}

// fillCache puts the query cache into the state a long-running server's
// is in before the warm-up begins: full, holding the most popular
// cacheable pipelines, the most popular most recently used. (A document's
// index is its popularity rank.) Left to fill from empty, the cache's hit
// ratio would still be climbing through the window, at a pace set by how
// many reads the box completes.
func fillCache(s *served, in *inputs, sc scale, tl *tally) {
	docs := in.docs[pipeSearch]
	for k := min(sc.cacheEntries, len(docs)) - 1; k >= 0; k-- {
		_, err := runPipeline(s.coll, docs[k])
		tl.note("read", err)
	}
}

// tailText prints a p99 only when at least ten samples lie beyond it.
func tailText(sorted []float64) string {
	if len(sorted) < 1000 {
		return fmt.Sprintf("n/a (%d samples)", len(sorted))
	}
	return fmt.Sprintf("%.3f ms (%d samples)", percentile(sorted, 0.99), len(sorted))
}

func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// preflight runs the workload's correctness check before anything is
// timed: sc.checks answers compared with the harness's own oracle.
func preflight(s *served, w workloadSpec, in *inputs, sc scale, tl *tally) {
	ctx := context.Background()
	if w.engine == graphdim.EngineVerified {
		graphOf := func(id int) *graphdim.Graph { g, _ := s.coll.Graph(id); return g }
		for i := 0; i < sc.checks; i++ {
			q := in.queries[i%len(in.queries)]
			res, err := s.coll.Search(ctx, q, w.searchOptions())
			if err == nil {
				err = checkVerified(res.Results, q, graphOf, topK)
			}
			tl.note("verified search", err)
		}
		return
	}
	graphs := append(append([]*graphdim.Graph{}, in.sample...), in.corpus...)
	orc := newOracle(s.index.Dimensions(), graphs)
	for i := 0; i < sc.checks; i++ {
		if !w.pipes {
			q := in.queries[i%len(in.queries)]
			res, err := s.coll.Search(ctx, q, w.searchOptions())
			if err == nil {
				err = checkTopK(res.Results, orc.bruteTopK(q, topK, nil))
			}
			tl.note("mapped search", err)
			continue
		}
		docs := in.docs[i%pipeKinds]
		doc := docs[(i/pipeKinds)%len(docs)]
		got, err := runPipeline(s.coll, doc)
		if err == nil {
			err = orc.checkDoc(doc, got)
		}
		tl.note("pipeline", err)
	}
}

// precisionAt10 is the paper's accuracy measure on this workload's own
// index: the mean overlap of the engine's top 10 with EngineExact's, both
// restricted to ids [0, truthIDs) so that the exact ranking stays cheap.
func precisionAt10(c *graphdim.Collection, in *inputs, engine graphdim.Engine, tl *tally) (float64, error) {
	truth := func(id int, _ *graphdim.Graph) bool { return id < truthIDs }
	sum := 0.0
	n := min(truthQueries, len(in.queries))
	for _, q := range in.queries[:n] {
		exact, err := c.Search(context.Background(), q, graphdim.SearchOptions{K: topK, Engine: graphdim.EngineExact, Predicate: truth})
		tl.note("exact search", err)
		if err != nil {
			return 0, err
		}
		got, err := c.Search(context.Background(), q, graphdim.SearchOptions{K: topK, Engine: engine, VerifyFactor: verifyFac, Predicate: truth})
		tl.note("truth-subset search", err)
		if err != nil {
			return 0, err
		}
		sum += overlapAt10(got.Results, exact.Results)
	}
	return sum / float64(n), nil
}

// tracedRun is the separate, single-client run that decomposes the
// end-to-end numbers by layer. It yields the per-layer metrics.
func tracedRun(cfg runConfig, w workloadSpec, wd *workDir, tl *tally) (map[string]float64, error) {
	sc := cfg.scale()
	in := generate(w, cfg.seed, sc)
	lp := &layerProbe{tr: newTracer(), w: w, in: in, sc: sc, tl: tl, seed: cfg.seed}
	defer lp.close()

	s, err := setUp(in, w, sc, wd.next("data"), lp.onSync)
	if err != nil {
		return nil, err
	}
	defer s.store.Close()
	lp.build(s)

	// The untraced baseline runs on a volatile twin with the same shards
	// and cache, so both passes start from a cold cache and see the same
	// hits. One P: a parent span is then the sum of its shards' work, not
	// their overlap, and the replayed children add up to it.
	twinStore := graphdim.NewStore(graphdim.StoreOptions{})
	defer twinStore.Close()
	copt := graphdim.CollectionOptions{Shards: shards, Build: buildOptions()}
	if w.cache {
		copt.Cache = graphdim.CacheOptions{MaxEntries: sc.cacheEntries}
	}
	twin, err := twinStore.CreateFromIndex("untraced", s.index, copt)
	if err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	var m0, m1, mEnd runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	untraced := lp.untracedPass(twin, sc.tracedOps)
	runtime.ReadMemStats(&m1)
	lp.tracedPass(s, sc.tracedOps)
	runtime.GOMAXPROCS(procs)
	if lp.ops == 0 {
		return nil, fmt.Errorf("no traced op succeeded")
	}
	if lp.replayMismatches > 0 {
		tl.fail("replay", fmt.Errorf("%d of %d replayed searches ranked differently from the collection", lp.replayMismatches, lp.ops))
	}

	lp.probeOffPath(s)
	if err := lp.probeCacheHit(s); err != nil {
		return nil, err
	}
	kern := lp.probeKernel()
	fsyncFloor, err := probeFsyncFloor(s.dir, 4*sc.probeOps)
	if err != nil {
		return nil, err
	}
	mappedPrecision, err := precisionAt10(s.coll, in, graphdim.EngineMapped, tl)
	if err != nil {
		return nil, err
	}
	if err := lp.prepareWrites(s, wd); err != nil {
		return nil, err
	}
	pers, err := persist(s, w, in, sc, newWriter(in, 0), wd, tl, lp)
	if err != nil {
		return nil, err
	}
	if !cfg.smoke {
		if err := lp.tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}

	runtime.ReadMemStats(&mEnd)
	tr := lp.tr
	ops := float64(lp.ops)
	p := float64(lp.orc.mapper.Dim())
	us := func(ns float64) float64 { return ns / 1e3 }
	ms := func(ns float64) float64 { return ns / 1e6 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	sort.Float64s(untraced)
	tracedReads := sortedCopy(values(tr.perOp(true, spanRead)))
	adds := sortedCopy(pers.writes)
	inCkpt := sortedCopy(pers.readsInCkpt)
	segOpen := tr.perOp(true, spanSegOpen)[0]
	walReplay := tr.perOp(true, spanReplay)[0]
	reopen := median(pers.reopens)

	m := map[string]float64{
		"vecspace.map_us":             us(tr.spanMedian(spanMap)),
		"subiso.contains_ns":          tr.spanMedian(spanMap) / p,
		"subiso.vf2_calls_per_op":     float64(lp.mapCalls) * p / ops,
		"vecspace.matched_dims":       float64(lp.matchedDims) / ops,
		"graphdim.add_map_us":         us(tr.opMedian(spanAddMap)),
		"posting.plan_us":             us(tr.spanMedian(spanPlan)),
		"posting.pruned_ratio":        ratio(float64(lp.planPruned), float64(lp.planCalls)),
		"posting.matched_ids_per_op":  float64(lp.matchedIDs) / ops,
		"topk.scan_us":                us(tr.spanMedian(spanScan)),
		"topk.candidates_per_op":      float64(lp.candidates) / ops,
		"topk.scored_ratio":           ratio(float64(lp.candidates), float64(lp.liveAtOps)),
		"vecspace.hamming_ns_per_vec": kern.hammingNsPerVec,
		"vecspace.scan_gbps":          kern.scanGBps,
		"bench.copy_gbps":             kern.copyGBps,

		"mcs.verify_us":               us(tr.opMedian(spanVerify)),
		"mcs.calls_per_op":            float64(lp.mcsCalls) / ops,
		"mcs.call_us":                 us(tr.spanMedian(spanCall)),
		"mcs.nodes_per_call":          ratio(float64(lp.mcsNodes), float64(lp.mcsCalls)),
		"mcs.budget_exhausted_ratio":  ratio(float64(lp.mcsExhausted), float64(lp.mcsCalls)),
		"topk.precision_at_10_mapped": mappedPrecision,

		"graphdim.index_search_us":      us(tr.spanMedian(spanIndexSearch)),
		"graphdim.collection_search_us": us(median(tracedReads)),
		"graphdim.cache_hit_ratio":      ratio(float64(lp.cacheHits), float64(lp.cacheLookups)),
		"graphdim.cache_hit_us":         us(tr.spanMedian(spanCacheHit)),
		"graphdim.cache_evictions":      float64(lp.cacheEvictions),

		"pipeline.parse_us":            us(tr.spanMedian(spanParse)),
		"pipeline.compile_us":          us(tr.spanMedian(spanCompile)),
		"pipeline.pushed_ratio":        ratio(float64(lp.pushed), float64(lp.pushed+lp.fallback)),
		"pipeline.rows_matched_per_op": float64(lp.rowsMatched) / ops,
		"pipeline.aggregate_us":        us(tr.opMedian(spanAggregate)),

		"graphdim.add_durable_us":  1e3 * percentile(adds, 0.5),
		"graphdim.add_volatile_us": us(tr.spanMedian(spanVolatile)),
		"wal.append_us":            us(tr.spanMedian(spanAppend)),
		"wal.fsync_us":             median(lp.fsyncs),
		"wal.records_per_fsync":    ratio(float64(pers.walAppends), float64(pers.walSyncs)),
		"wal.bytes_per_graph":      ratio(float64(pers.walBytes), float64(pers.burstGraphs)),
		"bench.fsync_floor_us":     fsyncFloor,

		"graphdim.checkpoint_ms":             ms(float64(pers.checkpoint.Nanoseconds())),
		"segment.write_mb_s":                 float64(pers.segmentBytes) / 1e6 / pers.checkpoint.Seconds(),
		"segment.bytes_per_graph":            float64(pers.segmentBytes) / float64(pers.totalGraphs),
		"graphdim.read_p99_in_checkpoint_ms": percentile(inCkpt, 0.99),
		"graphdim.reopen_ms":                 reopen,
		"segment.open_ms":                    ms(segOpen),
		"segment.graph_decode_us":            us(tr.spanMedian(spanDecode)),
		"wal.replay_ms":                      ms(walReplay),
		"graphdim.replay_apply_ms":           reopen - ms(segOpen) - ms(walReplay),

		"gspan.mine_s":            s.times.mine.Seconds(),
		"core.select_s":           s.times.sel.Seconds(),
		"vecspace.mapall_s":       s.times.vectors.Seconds(),
		"graphdim.load_add_s":     s.times.add.Seconds(),
		"graphdim.create_store_s": s.times.create.Seconds(),
		"go.allocs_per_op":        float64(m1.Mallocs-m0.Mallocs) / float64(len(untraced)),
		"go.alloc_bytes_per_op":   float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(untraced)),
		"go.gc_pause_ms":          ms(float64(mEnd.PauseTotalNs)), // the whole traced run

		"bench.read_p99_ms":  ms(percentile(untraced, 0.99)),
		"bench.write_p99_ms": percentile(adds, 0.99),

		"bench.attributed_share":       tr.share(spanRead, readChildren...),
		"bench.write_attributed_share": tr.share(spanWrite, spanAppend, spanVolatile),
		"bench.trace_overhead":         median(tracedReads)/median(untraced) - 1,
	}
	report(cfg.log, w, cfg.seed, lp, m)
	return m, nil
}

// report prints the layer table of a traced run: each layer's median, its
// share of the parent, and beside the numbers they bound, the ceilings.
func report(out io.Writer, w workloadSpec, seed int64, lp *layerProbe, m map[string]float64) {
	tr := lp.tr
	parent := median(values(tr.perOp(true, spanRead)))
	fmt.Fprintf(out, "%s seed %d, traced: %d ops, one client, GOMAXPROCS 1\n", w.name, seed, lp.ops)
	fmt.Fprintf(out, "  %-28s %10.1f us  (parent)\n", spanRead, parent/1e3)
	for _, name := range readChildren {
		onPath := tr.perOp(true, name)
		if len(onPath) == 0 {
			fmt.Fprintf(out, "  %-28s %10.1f us  off this workload's path (probed)\n", name, tr.spanMedian(name)/1e3)
			continue
		}
		med := median(values(onPath))
		fmt.Fprintf(out, "  %-28s %10.1f us  %5.1f%% of the parent, on %d ops\n", name, med/1e3, 100*med/parent, len(onPath))
	}
	fmt.Fprintf(out, "  attributed %.1f%% of the parent; tracing overhead %+.1f%%\n",
		100*m["bench.attributed_share"], 100*m["bench.trace_overhead"])
	fmt.Fprintf(out, "  scan kernel %.2f GB/s of tiles, memory copy on this box %.2f GB/s\n",
		m["vecspace.scan_gbps"], m["bench.copy_gbps"])
	fmt.Fprintf(out, "  wal fsync %.0f us, a bare 4 KB write+fsync here %.0f us\n",
		m["wal.fsync_us"], m["bench.fsync_floor_us"])
}
