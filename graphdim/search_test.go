package graphdim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/topk"
	"repro/internal/vecspace"
)

func TestOptionsValidation(t *testing.T) {
	db := dataset.Chemical(dataset.ChemConfig{N: 10, Seed: 1})
	cases := []struct {
		name string
		opt  Options
	}{
		{"negative dimensions", Options{Dimensions: -1}},
		{"negative tau", Options{Tau: -0.1}},
		{"tau above one", Options{Tau: 1.5}},
		{"NaN tau", Options{Tau: math.NaN()}},
		{"negative pattern edges", Options{MaxPatternEdges: -2}},
		{"negative candidates", Options{MaxCandidates: -1}},
		{"unknown metric", Options{Metric: Metric(7)}},
		{"unknown algorithm", Options{Algorithm: Algorithm(9)}},
		{"negative partition", Options{PartitionSize: -5}},
		{"negative budget", Options{MCSBudget: -1}},
		{"negative iterations", Options{Iterations: -3}},
	}
	for _, tc := range cases {
		if err := tc.opt.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.opt)
		}
		if _, err := Build(db, tc.opt); err == nil {
			t.Errorf("%s: Build accepted %+v", tc.name, tc.opt)
		}
	}
	// Zero values mean "paper default" and must validate.
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero Options rejected: %v", err)
	}
}

func TestSearchOptionsValidation(t *testing.T) {
	idx, db := buildSmall(t, DSPM)
	ctx := context.Background()
	cases := []struct {
		name string
		opt  SearchOptions
	}{
		{"zero k", SearchOptions{}},
		{"negative k", SearchOptions{K: -2}},
		{"unknown engine", SearchOptions{K: 3, Engine: Engine(42)}},
		{"negative factor", SearchOptions{K: 3, VerifyFactor: -1}},
		{"negative candidates", SearchOptions{K: 3, MaxCandidates: -1}},
		{"unknown metric", SearchOptions{K: 3, Metric: MetricChoice(9)}},
	}
	for _, tc := range cases {
		if err := tc.opt.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.opt)
		}
		if _, err := idx.Search(ctx, db[0], tc.opt); err == nil {
			t.Errorf("%s: Search accepted %+v", tc.name, tc.opt)
		}
	}
	if _, err := idx.Search(ctx, nil, SearchOptions{K: 3}); err == nil {
		t.Error("nil query accepted")
	}
}

func TestSearchEnginesOnSelfQuery(t *testing.T) {
	idx, db := buildSmall(t, DSPM)
	ctx := context.Background()
	for _, engine := range []Engine{EngineMapped, EngineVerified, EngineExact} {
		res, err := idx.Search(ctx, db[6], SearchOptions{K: 4, Engine: engine})
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if res.Engine != engine {
			t.Errorf("%v: result reports engine %v", engine, res.Engine)
		}
		if len(res.Results) != 4 {
			t.Fatalf("%v: got %d results", engine, len(res.Results))
		}
		if res.Results[0].Distance != 0 {
			t.Errorf("%v: self query distance %v, want 0", engine, res.Results[0].Distance)
		}
		if res.Candidates <= 0 {
			t.Errorf("%v: candidates = %d", engine, res.Candidates)
		}
		if res.Elapsed <= 0 {
			t.Errorf("%v: elapsed = %v", engine, res.Elapsed)
		}
	}
}

// TestVerifiedEngineAtLeastAsAccurate pins the acceptance criterion: on
// the experiments workload, EngineVerified's precision against exact
// ground truth is at least EngineMapped's for every query.
func TestVerifiedEngineAtLeastAsAccurate(t *testing.T) {
	idx, db := buildSmall(t, DSPM)
	queries := dataset.Chemical(dataset.ChemConfig{N: 8, MinVertices: 8, MaxVertices: 14, Seed: 99})
	ctx := context.Background()
	const k = 5
	for qi, q := range queries {
		exact, err := idx.Search(ctx, q, SearchOptions{K: len(db), Engine: EngineExact})
		if err != nil {
			t.Fatal(err)
		}
		truth := make(topk.Ranking, len(exact.Results))
		for i, r := range exact.Results {
			truth[i] = topk.Item{ID: r.ID, Score: r.Distance}
		}
		mapped, err := idx.Search(ctx, q, SearchOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		verified, err := idx.Search(ctx, q, SearchOptions{K: k, Engine: EngineVerified, VerifyFactor: len(db)})
		if err != nil {
			t.Fatal(err)
		}
		pm := topk.Precision(resultIDs(mapped.Results), truth, k)
		pv := topk.Precision(resultIDs(verified.Results), truth, k)
		if pv < pm {
			t.Errorf("query %d: verified precision %v < mapped %v", qi, pv, pm)
		}
		if pv != 1 {
			t.Errorf("query %d: fully verified precision %v, want 1", qi, pv)
		}
	}
}

func resultIDs(rs []Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

func TestSearchPredicate(t *testing.T) {
	idx, db := buildSmall(t, DSPM)
	ctx := context.Background()
	even := func(id int, g *Graph) bool { return id%2 == 0 }
	res, err := idx.Search(ctx, db[0], SearchOptions{K: len(db), Predicate: even})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != (len(db)+1)/2 {
		t.Fatalf("predicate result count %d, want %d", len(res.Results), (len(db)+1)/2)
	}
	for _, r := range res.Results {
		if r.ID%2 != 0 {
			t.Errorf("predicate admitted id %d", r.ID)
		}
	}
}

func TestSearchMetricOverride(t *testing.T) {
	idx, db := buildSmall(t, DSPM)
	ctx := context.Background()
	q := db[4]
	res, err := idx.Search(ctx, q, SearchOptions{K: 3, Engine: EngineExact, Metric: MetricDelta1})
	if err != nil {
		t.Fatal(err)
	}
	// Every score must be the Delta1 dissimilarity of its graph.
	for _, r := range res.Results {
		want := Delta1.DissimilarityBudget(q, db[r.ID], idx.mcsOpt)
		if r.Distance != want {
			t.Errorf("id %d: score %v, want delta1 %v", r.ID, r.Distance, want)
		}
	}
}

func TestSearchMatchedDimensions(t *testing.T) {
	idx, db := buildSmall(t, DSPM)
	res, err := idx.Search(context.Background(), db[11], SearchOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := res.Matched
	if b.Len() != len(idx.Dimensions()) {
		t.Fatalf("Matched.Len = %d, want %d", b.Len(), len(idx.Dimensions()))
	}
	// Cross-check the bitset against direct containment tests.
	count := 0
	for r, f := range idx.Dimensions() {
		want := Contains(db[11], f)
		if b.Contains(r) != want {
			t.Errorf("dimension %d: Contains = %v, want %v", r, b.Contains(r), want)
		}
		if want {
			count++
		}
	}
	if b.Count() != count {
		t.Errorf("Count = %d, want %d", b.Count(), count)
	}
	if len(b.Indices()) != count {
		t.Errorf("Indices has %d entries, want %d", len(b.Indices()), count)
	}
	if b.Contains(-1) || b.Contains(b.Len()) {
		t.Error("out-of-range Contains returned true")
	}
}

func TestSearchCancellation(t *testing.T) {
	idx, db := buildSmall(t, DSPM)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, engine := range []Engine{EngineMapped, EngineVerified, EngineExact} {
		if _, err := idx.Search(ctx, db[0], SearchOptions{K: 3, Engine: engine}); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: cancelled Search err = %v, want context.Canceled", engine, err)
		}
	}
}

func TestBuildCancellation(t *testing.T) {
	db := dataset.Chemical(dataset.ChemConfig{N: 40, MinVertices: 8, MaxVertices: 14, Seed: 5})
	for _, algo := range []Algorithm{DSPM, DSPMap} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		_, err := BuildContext(ctx, db, Options{Dimensions: 20, Tau: 0.1, Algorithm: algo})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("algo %v: cancelled Build err = %v, want context.Canceled", algo, err)
		}
		// "Promptly": a pre-cancelled build must not pay for the offline
		// pipeline (which takes seconds at this size).
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("algo %v: cancelled Build took %v", algo, elapsed)
		}
	}
}

func TestBuildProgress(t *testing.T) {
	db := dataset.Chemical(dataset.ChemConfig{N: 25, MinVertices: 8, MaxVertices: 12, Seed: 7})
	var mu sync.Mutex
	type event struct {
		stage       BuildStage
		done, total int
	}
	var events []event
	_, err := Build(db, Options{
		Dimensions: 10,
		Tau:        0.2,
		MCSBudget:  1500,
		Progress: func(stage BuildStage, done, total int) {
			mu.Lock()
			events = append(events, event{stage, done, total})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	// Stages must appear in pipeline order and each stage must end with
	// done == total.
	last := make(map[BuildStage]event)
	prevStage := BuildStage(-1)
	for _, e := range events {
		if e.stage < prevStage {
			t.Fatalf("stage %v reported after %v", e.stage, prevStage)
		}
		prevStage = e.stage
		last[e.stage] = e
	}
	for _, stage := range []BuildStage{StageMining, StageMatrix, StageDSPM, StageVectors} {
		e, ok := last[stage]
		if !ok {
			t.Errorf("stage %v never reported", stage)
			continue
		}
		if e.done != e.total {
			t.Errorf("stage %v ended at %d/%d", stage, e.done, e.total)
		}
	}
	if e := last[StageMatrix]; e.total != len(db) {
		t.Errorf("matrix total = %d, want %d rows", e.total, len(db))
	}
}

// TestSearchBatchPropagatesError pins the fixed TopKBatch error path: a
// per-query failure surfaces as the batch error instead of a silent nil
// row. Cancellation mid-batch is the per-query failure mode.
func TestSearchBatchPropagatesError(t *testing.T) {
	idx, db := buildSmall(t, DSPM)
	c := serveIndex(t, idx, 2)
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	// The predicate runs inside each query's scan; cancelling from it
	// guarantees every later query observes ctx.Done.
	trip := func(id int, g *Graph) bool {
		once.Do(cancel)
		return true
	}
	queries := db[:8]
	res, err := c.SearchBatch(ctx, queries, SearchOptions{K: 3, Predicate: trip})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("got partial results alongside error")
	}
}

func TestSearchBatchMatchesSearch(t *testing.T) {
	idx, db := buildSmall(t, DSPM)
	c := serveIndex(t, idx, 2)
	ctx := context.Background()
	queries := db[:6]
	batch, err := c.SearchBatch(ctx, queries, SearchOptions{K: 4, Engine: EngineVerified})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		single, err := c.Search(ctx, q, SearchOptions{K: 4, Engine: EngineVerified})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i].Results, single.Results) {
			t.Errorf("query %d: batch and single answers differ", i)
		}
	}
	// A nil query anywhere fails the batch before any query runs: the
	// predicate of the valid query ahead of it is never asked.
	var asked atomic.Int64
	count := func(int, *Graph) bool { asked.Add(1); return true }
	if _, err := c.SearchBatch(ctx, []*Graph{db[0], nil}, SearchOptions{K: 3, Predicate: count}); err == nil {
		t.Error("nil query in batch accepted")
	}
	if n := asked.Load(); n != 0 {
		t.Errorf("a batch with a nil query ran a query first (%d predicate calls)", n)
	}
	empty, err := c.SearchBatch(ctx, nil, SearchOptions{K: 3})
	if err != nil || len(empty) != 0 {
		t.Errorf("SearchBatch(nil) = %v, %v; want empty, nil", empty, err)
	}
}

func TestEngineParseAndString(t *testing.T) {
	for _, e := range []Engine{EngineMapped, EngineVerified, EngineExact} {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Error("ParseEngine accepted garbage")
	}
}

// TestEngineStringUnknown pins the fallback formatting of out-of-domain
// engines — they must still print something greppable and never parse.
func TestEngineStringUnknown(t *testing.T) {
	if got := Engine(42).String(); got != "engine(42)" {
		t.Errorf("Engine(42).String() = %q, want \"engine(42)\"", got)
	}
	if _, err := ParseEngine(Engine(42).String()); err == nil {
		t.Error("ParseEngine accepted the unknown-engine placeholder")
	}
	if _, err := ParseEngine(""); err == nil {
		t.Error("ParseEngine accepted the empty string")
	}
}

func dimensionBitsFrom(p int, set ...int) DimensionBits {
	v := vecspace.NewBitVector(p)
	for _, r := range set {
		v.Set(r)
	}
	return dimensionBits(v)
}

func TestDimensionBitsEmpty(t *testing.T) {
	for _, p := range []int{0, 1, 64, 65, 130} {
		b := dimensionBitsFrom(p)
		if b.Len() != p {
			t.Errorf("p=%d: Len() = %d", p, b.Len())
		}
		if b.Count() != 0 {
			t.Errorf("p=%d: Count() = %d, want 0", p, b.Count())
		}
		if got := b.Indices(); len(got) != 0 {
			t.Errorf("p=%d: Indices() = %v, want empty", p, got)
		}
		for _, r := range []int{-1, 0, p - 1, p, p + 64} {
			if b.Contains(r) {
				t.Errorf("p=%d: empty set Contains(%d)", p, r)
			}
		}
	}
}

func TestDimensionBitsFull(t *testing.T) {
	for _, p := range []int{1, 63, 64, 65, 130} {
		all := make([]int, p)
		for i := range all {
			all[i] = i
		}
		b := dimensionBitsFrom(p, all...)
		if b.Count() != p {
			t.Errorf("p=%d: Count() = %d, want %d", p, b.Count(), p)
		}
		got := b.Indices()
		if len(got) != p {
			t.Fatalf("p=%d: Indices() has %d entries, want %d", p, len(got), p)
		}
		for i, r := range got {
			if r != i {
				t.Fatalf("p=%d: Indices()[%d] = %d, want %d", p, i, r, i)
			}
		}
		for i := 0; i < p; i++ {
			if !b.Contains(i) {
				t.Errorf("p=%d: full set missing %d", p, i)
			}
		}
		// Out-of-range stays false even on the full set.
		if b.Contains(-1) || b.Contains(p) {
			t.Errorf("p=%d: Contains out of range returned true", p)
		}
	}
}

func TestDimensionBitsSparse(t *testing.T) {
	b := dimensionBitsFrom(130, 0, 63, 64, 129)
	if b.Count() != 4 {
		t.Errorf("Count() = %d, want 4", b.Count())
	}
	want := []int{0, 63, 64, 129}
	if got := b.Indices(); !reflect.DeepEqual(got, want) {
		t.Errorf("Indices() = %v, want %v", got, want)
	}
	for _, r := range want {
		if !b.Contains(r) {
			t.Errorf("Contains(%d) = false", r)
		}
	}
	for _, r := range []int{1, 62, 65, 128} {
		if b.Contains(r) {
			t.Errorf("Contains(%d) = true", r)
		}
	}
}
