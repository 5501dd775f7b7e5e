package graphdim

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/segment"
	"repro/internal/vecspace"
	"repro/internal/wal"
)

// TestStoreModel is the store's model-based test. One seeded history
// drives a durable collection of 1–3 shards, with a query cache and
// small log segments, through random steps: adds, removes, searches with
// every engine and filter kind, pipeline queries, checkpoints,
// compactions, an add whose fsync fails, crashes (a close with no
// checkpoint, some with a torn record) and their reopens, and a follower
// that bootstraps, catches up and restarts.
//
// The model is a flat Index that sees every acknowledged add and remove
// and never compacts, crashes or shards. After every step the collection
// — and the follower, whenever it changed — must agree with it on
// NextID, Live and every id's graph and liveness, and every search or
// query must return the model's answer bit for bit.
//
// A plain `go test` runs storeModelSeed; each further run in one process
// (-count) draws a fresh seed and logs it. Replay one with
//
//	GRAPHDIM_EQUIV_SEED=<seed> go test -run TestStoreModel ./graphdim
func TestStoreModel(t *testing.T) {
	seed := int64(storeModelSeed)
	if os.Getenv("GRAPHDIM_EQUIV_SEED") != "" || storeModelRuns.Add(1) > 1 {
		seed = equivSeed(t)
	}
	m := newStoreModel(t, seed)
	for step := 0; step < storeModelSteps; step++ {
		name, run := m.pick()
		m.label = fmt.Sprintf("seed %d step %d (%s)", m.seed, step, name)
		run()
		m.checkContent("collection", m.c, m.reclaimed)
	}
}

// storeModelSteps is the length of one history; longer runs use -count.
const storeModelSteps = 400

// storeModelSeed is the history a plain `go test` runs. storeModelRuns
// counts this process's runs: every run after the first draws a seed.
const storeModelSeed = 1

var storeModelRuns atomic.Int64

var errModelSync = errors.New("injected fsync failure")

type storeModel struct {
	t     *testing.T
	ctx   context.Context
	seed  int64
	rng   *rand.Rand
	label string // names the step in failures

	model *Index
	// A reclaimed slot stops resolving: reclaimed holds the ids the
	// collection reclaimed, ckptReclaimed those its last checkpoint did,
	// which is what a crash reverts to. compacted reports a reclaim since
	// that checkpoint, which a crash loses along with the stale ratios.
	reclaimed, ckptReclaimed map[int]bool
	compacted                bool
	ckptSeq                  uint64

	dir      string
	opt      StoreOptions
	failSync atomic.Bool
	s        *Store
	c        *Collection
	shards   int

	// The follower, nil until the first follow step; it never compacts,
	// so fReclaimed is what its bootstrap image holds reclaimed.
	fs         *Store
	fc         *Collection
	rep        *ReplicaApplier
	fdir       string
	fReclaimed map[int]bool

	pool    []*Graph // add inputs, drawn in turn
	next    int
	queries []*Graph
	checked map[*Graph]int // id+1 of a graph already compared to the model's
}

func newStoreModel(t *testing.T, seed int64) *storeModel {
	rng := rand.New(rand.NewSource(seed))
	model, db := equivBuild(t, rng, 24+rng.Intn(40))
	m := &storeModel{
		t: t, ctx: context.Background(), seed: seed, rng: rng,
		label:         fmt.Sprintf("seed %d create", seed),
		model:         model,
		reclaimed:     map[int]bool{},
		ckptReclaimed: map[int]bool{},
		dir:           t.TempDir(),
		shards:        1 + rng.Intn(3),
		pool:          dataset.Synthetic(dataset.SynthConfig{N: storeModelSteps, AvgEdges: 9, Labels: 5, Seed: rng.Int63()}),
		checked:       map[*Graph]int{},
	}
	m.queries = append([]*Graph{db[rng.Intn(len(db))], db[rng.Intn(len(db))]},
		dataset.Synthetic(dataset.SynthConfig{N: 3, AvgEdges: 6, Labels: 7, Seed: rng.Int63()})...)
	m.opt.WAL = WALOptions{segmentBytes: 1 << 11, failSync: func() error {
		if m.failSync.Load() {
			return errModelSync
		}
		return nil
	}}
	var err error
	if m.s, err = CreateStore(m.dir, m.opt); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.s.Close()
		if m.fs != nil {
			m.fs.Close()
		}
	})
	m.c, err = m.s.CreateFromIndex("c", model, CollectionOptions{Shards: m.shards, Cache: CacheOptions{MaxEntries: 64}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("seed %d: %d graphs, %d dimensions, %d shards", seed, len(db), len(model.Dimensions()), m.shards)
	return m
}

// pick draws the next step by weight.
func (m *storeModel) pick() (string, func()) {
	steps := []struct {
		weight int
		name   string
		run    func()
	}{
		{6, "add", m.add}, {3, "remove", m.remove}, {6, "search", m.search}, {3, "query", m.query},
		{2, "checkpoint", m.checkpoint}, {2, "compact", m.compact}, {1, "failed add", m.failedAdd},
		{2, "crash", m.crash}, {2, "follow", m.follow},
	}
	r := m.rng.Intn(27)
	for _, s := range steps {
		if r -= s.weight; r < 0 {
			return s.name, s.run
		}
	}
	panic("weights do not sum to 27")
}

func (m *storeModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("%s: %s", m.label, fmt.Sprintf(format, args...))
}

func (m *storeModel) must(err error) {
	m.t.Helper()
	if err != nil {
		m.fatalf("%v", err)
	}
}

func (m *storeModel) fresh() []*Graph {
	gs := make([]*Graph, 1+m.rng.Intn(3))
	for i := range gs {
		gs[i] = m.pool[m.next%len(m.pool)]
		m.next++
	}
	return gs
}

// live lists the model's live ids in ascending order.
func (m *storeModel) live() []int {
	var ids []int
	s := m.model.snap.Load()
	for id := range s.db {
		if !s.isDead(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

func (m *storeModel) add() {
	gs := m.fresh()
	want, err := m.model.Add(gs...)
	m.must(err)
	got, err := m.c.Add(m.ctx, gs...)
	m.must(err)
	if !reflect.DeepEqual(got, want) {
		m.fatalf("Add assigned ids %v, the model %v", got, want)
	}
}

func (m *storeModel) remove() {
	live := m.live()
	if len(live) <= 2 {
		return
	}
	m.rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	ids := live[:1+m.rng.Intn(2)]
	m.must(m.model.removeGlobal(ids))
	m.must(m.c.Remove(ids...))
}

// failedAdd runs an add whose log fsync fails: it must return the
// injected error and leave no trace — no id taken (checkContent), no
// shard published, no record committed.
func (m *storeModel) failedAdd() {
	gens, appends := m.c.generations(), m.c.Stats().WAL.Appends
	m.failSync.Store(true)
	_, err := m.c.Add(m.ctx, m.fresh()...)
	m.failSync.Store(false)
	if !errors.Is(err, errModelSync) {
		m.fatalf("Add with a failing fsync = %v, want the injected failure", err)
	}
	if got := m.c.generations(); !reflect.DeepEqual(got, gens) || m.c.Stats().WAL.Appends != appends {
		m.fatalf("a failed add published (generations %v -> %v) or committed a record", gens, got)
	}
}

func (m *storeModel) checkpoint() {
	m.must(m.s.Checkpoint())
	w := m.c.Stats().WAL
	if w.CheckpointSeq != w.LastSeq {
		m.fatalf("the checkpoint covers seq %d, the log ends at %d", w.CheckpointSeq, w.LastSeq)
	}
	m.ckptSeq, m.ckptReclaimed, m.compacted = w.LastSeq, maps.Clone(m.reclaimed), false
}

// compact must repack exactly the shards holding a tombstone and append
// nothing to the log; the checks after it hold its answers unchanged.
func (m *storeModel) compact() {
	dirty := map[int]bool{}
	s := m.model.snap.Load()
	for id := range s.db {
		if s.isDead(id) && !m.reclaimed[id] {
			dirty[placeID(id, m.shards)] = true
			m.reclaimed[id] = true
		}
	}
	appends := m.c.Stats().WAL.Appends
	n, err := m.c.Compact(m.ctx)
	m.must(err)
	if got := m.c.Stats().WAL.Appends; n != len(dirty) || got != appends {
		m.fatalf("Compact repacked %d shards (%d hold tombstones) and appended %d log records", n, len(dirty), got-appends)
	}
	m.compacted = m.compacted || n > 0
}

// crash closes the store without a checkpoint — all a kill -9 leaves is
// the directory — sometimes tears a record onto the log's tail, and
// reopens.
func (m *storeModel) crash() {
	stale := m.c.StaleRatios()
	m.s.Close()
	if m.rng.Intn(2) == 0 {
		tearWAL(m.t, m.dir, "c")
	}
	m.s, m.c = m.reopen(m.dir, m.opt)
	m.reclaimed = maps.Clone(m.ckptReclaimed)
	if got := m.c.StaleRatios(); !m.compacted && !reflect.DeepEqual(got, stale) {
		m.fatalf("stale ratios %v after the crash, %v before", got, stale)
	}
	m.compacted = false
	if m.rep != nil {
		m.c.WALRetain("follower", m.rep.AckSeq()) // retention holds are in-memory
	}
}

// reopen opens the store at dir and checks its collection before any
// query runs.
func (m *storeModel) reopen(dir string, opt StoreOptions) (*Store, *Collection) {
	s, err := OpenStore(dir, opt)
	m.must(err)
	c, _ := s.Collection("c")
	m.checkOpened(c)
	return s, c
}

// checkOpened checks what an open must establish: the one collection
// with its shard count and dimension set; each shard served
// from a mapping wherever the platform can map, with no graph of its
// segment decoded yet; one vector store per shard.
func (m *storeModel) checkOpened(c *Collection) {
	if got := c.store.Collections(); !reflect.DeepEqual(got, []string{"c"}) {
		m.fatalf("the store holds collections %v", got)
	}
	if c.Shards() != m.shards {
		m.fatalf("opened with %d shards, created with %d", c.Shards(), m.shards)
	}
	for sh, ix := range c.shards {
		if ix.dims != m.model.dims || !reflect.DeepEqual(ix.weights, m.model.weights) {
			m.fatalf("shard %d opened with another dimension set or weights", sh)
		}
		snap := ix.snap.Load()
		if mapped := snap.seg != nil && snap.seg.r.Mapped(); mapped != segment.CanMap() {
			m.fatalf("shard %d is served from a mapping: %v; the platform maps: %v", sh, mapped, segment.CanMap())
		}
		for i := 0; snap.seg != nil && i < len(snap.seg.graphs); i++ {
			if snap.db[i] != nil {
				m.fatalf("mapped open of shard %d decoded base slot %d", sh, i)
			}
		}
		assertOneVectorStore(m.t, fmt.Sprintf("%s shard %d", m.label, sh), ix)
	}
}

// follow bootstraps the follower on its first step, and again when the
// primary no longer holds the records it needs (a restarted primary
// forgets retention holds); other steps restart it now and then. Every
// step then catches it up and checks it.
func (m *storeModel) follow() {
	if m.fs != nil && m.truncated() {
		m.fs.Close()
		m.fs = nil
	}
	switch {
	case m.fs == nil:
		m.fs, m.fc, m.rep, m.fdir = bootstrapFollower(m.t, m.s, "c")
		m.fReclaimed = maps.Clone(m.ckptReclaimed)
		if got := m.rep.AckSeq(); got != m.ckptSeq {
			m.fatalf("bootstrapped follower acks %d, the checkpoint covers %d", got, m.ckptSeq)
		}
		m.checkOpened(m.fc)
	case m.rng.Intn(3) == 0:
		ack := m.rep.AckSeq()
		m.fs.Close()
		m.fs, m.fc = m.reopen(m.fdir, StoreOptions{})
		var err error
		m.rep, err = m.fc.Replica()
		m.must(err)
		if got := m.rep.AckSeq(); got != ack {
			m.fatalf("restarted follower acks %d, it acked %d", got, ack)
		}
	}
	pump(m.t, m.c, m.rep)
	m.c.WALRetain("follower", m.rep.AckSeq())
	if got, want := m.rep.AppliedSeq(), m.c.AppliedSeq(); got != want {
		m.fatalf("follower applied %d, the primary %d", got, want)
	}
	m.checkContent("follower", m.fc, m.fReclaimed)
	m.compareSearch("follower", m.fc, m.query1(), m.options(1+m.rng.Intn(12)))
}

// truncated reports whether the primary's log lost records the follower
// has not mirrored.
func (m *storeModel) truncated() bool {
	st, err := m.c.StreamWAL(m.rep.AckSeq())
	m.must(err)
	defer st.Close()
	_, _, err = st.Next(m.c.AppliedSeq())
	if err != nil && !errors.Is(err, wal.ErrTruncated) {
		m.fatalf("stream: %v", err)
	}
	return err != nil
}

// checkContent holds c to the model: NextID, Live, the slot count, and
// for every id whether it resolves, whether it is live, and its graph.
func (m *storeModel) checkContent(who string, c *Collection, reclaimed map[int]bool) {
	st, model := c.Stats(), m.model.snap.Load()
	n := len(model.db)
	slots := 0
	for _, sh := range st.Shards {
		slots += sh.Total
	}
	if st.NextID != n || st.Live != model.live() || slots != n-len(reclaimed) {
		m.fatalf("%s: NextID %d, Live %d, %d slots; the model has %d, %d, and %d reclaimed",
			who, st.NextID, st.Live, slots, n, model.live(), len(reclaimed))
	}
	for id := -1; id <= n; id++ {
		g, ok := c.Graph(id)
		if want := id >= 0 && id < n && !reclaimed[id]; ok != want {
			m.fatalf("%s: Graph(%d) resolves %v, want %v", who, id, ok, want)
		}
		if _, live := liveGraph(c, id); ok && live == model.isDead(id) {
			m.fatalf("%s: id %d live %v, the model's %v", who, id, live, !live)
		}
		if ok && m.checked[g] != id+1 {
			if g.String() != graphOf(m.model, id).String() {
				m.fatalf("%s: id %d holds another graph than the model's", who, id)
			}
			m.checked[g] = id + 1
		}
	}
}

// query1 draws a query: a fixed database member or unseen graph, or any
// graph the model holds (its own id then ties at distance 0).
func (m *storeModel) query1() *Graph {
	if m.rng.Intn(2) == 0 {
		return m.queries[m.rng.Intn(len(m.queries))]
	}
	return graphOf(m.model, m.rng.Intn(len(m.model.snap.Load().db)))
}

// options draws search options: an engine — a verified pool always
// covers the database, the one case a sharded verified search ranks
// like a flat one — and, with some chance, a Delta1 metric override, a
// predicate or a filter.
func (m *storeModel) options(k int) SearchOptions {
	opt := SearchOptions{K: k}
	switch m.rng.Intn(3) {
	case 1:
		opt.Engine, opt.VerifyFactor = EngineVerified, len(m.model.snap.Load().db)
	case 2:
		opt.Engine = EngineExact
	}
	switch m.rng.Intn(5) {
	case 1:
		opt.Metric = MetricDelta1
	case 2:
		opt.Predicate = func(id int, _ *Graph) bool { return id%3 != 0 }
	case 3, 4:
		opt.Filters = []*pipeline.Filter{m.filter()}
	}
	return opt
}

// search compares one search, then repeats it, which must hit the cache
// unless a predicate keeps it out.
func (m *storeModel) search() {
	q, opt := m.query1(), m.options(1+m.rng.Intn(len(m.model.snap.Load().db)+3))
	m.compareSearch("collection", m.c, q, opt)
	if opt.Predicate == nil {
		st, _ := m.c.CacheStats()
		m.compareSearch("collection (cached)", m.c, q, opt)
		if after, _ := m.c.CacheStats(); after.Hits != st.Hits+1 {
			m.fatalf("a repeated search did not hit the cache: %+v -> %+v", st, after)
		}
	}
}

// compareSearch requires c's answer to q to be the model's: the same
// ranking with bitwise-equal distances, the same matched dimensions and,
// for the MCS engines, as many graphs scored. searchChecked also holds
// the model's mapped ranking to the scalar reference scan.
func (m *storeModel) compareSearch(who string, c *Collection, q *Graph, opt SearchOptions) {
	want := searchChecked(m.t, m.label+" model", m.model, q, opt)
	got, err := c.Search(m.ctx, q, opt)
	m.must(err)
	if !reflect.DeepEqual(got.Results, want.Results) || !reflect.DeepEqual(got.Matched, want.Matched) ||
		(opt.Engine != EngineMapped && got.Candidates != want.Candidates) {
		m.fatalf("%s %v search diverges from the model:\ngot:   %v (matched %v, %d scored)\nmodel: %v (matched %v, %d scored)",
			who, opt.Engine, got.Results, got.Matched, got.Candidates, want.Results, want.Matched, want.Candidates)
	}
}

// filter draws a filter from a model graph (see randomFilter).
func (m *storeModel) filter() *pipeline.Filter {
	snap := m.model.snap.Load()
	vecs := make([]*vecspace.BitVector, len(snap.db))
	for id := range vecs {
		vecs[id] = snap.block.Vector(id)
	}
	return randomFilter(m.rng, m.model, vecs)
}

// query runs a pipeline — a filter, then a search or a scan, then
// nothing, a count or a group_by — and requires the aggregate of the
// model's rows: its search results, or its live graphs that pass the
// filter oracle.
func (m *storeModel) query() {
	f := m.filter()
	p := &pipeline.Pipeline{Stages: []pipeline.Stage{{Filter: f}}}
	var q *Graph
	opt := m.options(1 + m.rng.Intn(12))
	if m.rng.Intn(2) == 0 {
		q, opt.Metric, opt.Predicate, opt.Filters = m.query1(), 0, nil, []*pipeline.Filter{f}
		p.Stages = append(p.Stages, pipeline.Stage{Search: &pipeline.Search{
			K: opt.K, G: q, Engine: opt.Engine.String(), VerifyFactor: opt.VerifyFactor,
		}})
	}
	switch m.rng.Intn(3) {
	case 1:
		p.Stages = append(p.Stages, pipeline.Stage{Count: &pipeline.Count{}})
	case 2:
		key := [...]string{"vertex_label", "edge_label"}[m.rng.Intn(2)]
		p.Stages = append(p.Stages, pipeline.Stage{GroupBy: &pipeline.GroupBy{Key: key}})
	}
	got, err := m.c.Query(m.ctx, p)
	m.must(err)
	pl, err := p.Plan()
	m.must(err)
	agg := pipeline.NewAggregator(pl)
	if q != nil {
		for _, r := range searchChecked(m.t, m.label+" model", m.model, q, opt).Results {
			agg.Add(pipeline.Row{ID: r.ID, Distance: r.Distance, HasDistance: true, Engine: opt.Engine.String(), G: graphOf(m.model, r.ID)})
		}
	} else {
		snap := m.model.snap.Load()
		for _, id := range m.live() {
			if filterHolds(f, snap.db[id], snap.block.Vector(id)) {
				agg.Add(pipeline.Row{ID: id, G: snap.db[id]})
			}
		}
	}
	want := agg.Finish()
	if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Count, want.Count) ||
		!reflect.DeepEqual(got.Groups, want.Groups) || got.Stats.Matched != agg.Matched() {
		m.fatalf("pipeline diverges from the model:\ngot:   %+v %v %+v (matched %d)\nmodel: %+v %v %+v (matched %d)",
			got.Rows, got.Count, got.Groups, got.Stats.Matched, want.Rows, want.Count, want.Groups, agg.Matched())
	}
}
