package main

import (
	"context"
	"sync"
	"testing"

	"repro/graphdim"
	"repro/internal/graph"
)

// fixture is one smoke-scale pipeline_hot set-up shared by the oracle
// tests: it has a collection, its unsharded index and pipeline documents.
type fixture struct {
	w   workloadSpec
	in  *inputs
	s   *served
	orc *oracle
}

var (
	fixtureOnce sync.Once
	fixtureVal  *fixture
	fixtureErr  error
	fixtureDir  *workDir
)

func sharedFixture(t *testing.T) *fixture {
	t.Helper()
	fixtureOnce.Do(func() {
		w, _ := specOf(wPipelineHot)
		in := generate(w, 1, smokeScale)
		if fixtureDir, fixtureErr = newWorkDir(tempRoot); fixtureErr != nil {
			return
		}
		s, err := setUp(in, w, smokeScale, fixtureDir.next("data"), nil)
		if err != nil {
			fixtureErr = err
			return
		}
		graphs := append(append([]*graph.Graph{}, in.sample...), in.corpus...)
		fixtureVal = &fixture{w: w, in: in, s: s, orc: newOracle(s.index.Dimensions(), graphs)}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureVal
}

func TestMappedOracleAcceptsTheAnswerAndRejectsAWrongOne(t *testing.T) {
	f := sharedFixture(t)
	q := f.in.queries[0]
	res, err := f.s.coll.Search(context.Background(), q, graphdim.SearchOptions{K: topK})
	if err != nil {
		t.Fatal(err)
	}
	want := f.orc.bruteTopK(q, topK, nil)
	if err := checkTopK(res.Results, want); err != nil {
		t.Fatalf("the collection's answer fails the oracle: %v", err)
	}
	wrong := append([]graphdim.Result(nil), res.Results...)
	wrong[0], wrong[1] = wrong[1], wrong[0]
	if checkTopK(wrong, want) == nil && wrong[0] != wrong[1] {
		t.Error("two swapped ranks pass the oracle")
	}
	wrong = append([]graphdim.Result(nil), res.Results...)
	wrong[3].Distance += 1e-9
	if checkTopK(wrong, want) == nil {
		t.Error("a nudged distance passes the oracle")
	}
	if checkTopK(res.Results[:topK-1], want) == nil {
		t.Error("a short answer passes the oracle")
	}
}

func TestVerifiedCheckAcceptsTheAnswerAndRejectsAWrongOne(t *testing.T) {
	f := sharedFixture(t)
	q := f.in.queries[1]
	res, err := f.s.coll.Search(context.Background(), q, graphdim.SearchOptions{K: topK, Engine: graphdim.EngineVerified, VerifyFactor: verifyFac})
	if err != nil {
		t.Fatal(err)
	}
	graphOf := func(id int) *graph.Graph { g, _ := f.s.coll.Graph(id); return g }
	if err := checkVerified(res.Results, q, graphOf, topK); err != nil {
		t.Fatalf("the collection's answer fails the check: %v", err)
	}
	wrong := append([]graphdim.Result(nil), res.Results...)
	last := len(wrong) - 1
	wrong[last].Distance += 0.01 // still sorted, no longer the MCS dissimilarity
	if checkVerified(wrong, q, graphOf, topK) == nil {
		t.Error("a distance that is not the MCS dissimilarity passes")
	}
	wrong = append([]graphdim.Result(nil), res.Results...)
	wrong[0], wrong[last] = wrong[last], wrong[0]
	if checkVerified(wrong, q, graphOf, topK) == nil && wrong[0].Distance != wrong[last].Distance {
		t.Error("an unsorted answer passes")
	}
}

func TestPipelineOracleAcceptsTheAnswerAndRejectsAWrongOne(t *testing.T) {
	f := sharedFixture(t)
	for kind := 0; kind < pipeKinds; kind++ {
		doc := f.in.docs[kind][0]
		got, err := runPipeline(f.s.coll, doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.orc.checkDoc(doc, got); err != nil {
			t.Fatalf("kind %d: the collection's answer fails the oracle: %v", kind, err)
		}
		switch kind {
		case pipeSearch:
			if len(got.Rows) == 0 {
				t.Fatal("search pipeline returned no rows to corrupt")
			}
			got.Rows[0].ID++
		case pipeCount:
			*got.Count++
		case pipeGroup:
			if len(got.Groups) == 0 {
				t.Fatal("group-by pipeline returned no groups to corrupt")
			}
			got.Groups[0].Count++
		}
		if f.orc.checkDoc(doc, got) == nil {
			t.Errorf("kind %d: a corrupted answer passes the oracle", kind)
		}
	}
}

func TestLiveInvariant(t *testing.T) {
	rs := []graphdim.Result{{ID: 3, Distance: 0.1}, {ID: 9, Distance: 0.2}}
	never := func(int) bool { return false }
	if err := checkLive(rs, topK, 10, never); err != nil {
		t.Fatal(err)
	}
	if checkLive(rs, topK, 9, never) == nil {
		t.Error("an id that was never assigned passes")
	}
	if checkLive(rs, topK, 10, func(id int) bool { return id == 9 }) == nil {
		t.Error("an id removed before the search passes")
	}
	if checkLive(rs, 1, 10, never) == nil {
		t.Error("more than k results pass")
	}
	if checkLive([]graphdim.Result{rs[1], rs[0]}, topK, 10, never) == nil {
		t.Error("an unsorted answer passes")
	}
}

func TestRecoveryCheck(t *testing.T) {
	removed := map[int]bool{2: true}
	if err := checkRecovered([]int{0, 1, 3, 4}, 5, removed); err != nil {
		t.Fatal(err)
	}
	if checkRecovered([]int{0, 1, 3}, 5, removed) == nil {
		t.Error("a lost acknowledged write passes")
	}
	if checkRecovered([]int{0, 1, 2, 3}, 5, removed) == nil {
		t.Error("a resurrected removed id passes")
	}
	if checkRecovered([]int{0, 1, 3, 7}, 5, removed) == nil {
		t.Error("an id that was never acknowledged passes")
	}
}

func TestLiveIDsEnumeratesTheCollection(t *testing.T) {
	f := sharedFixture(t)
	live, err := liveIDs(f.s.coll, f.in.baseN())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRecovered(live, f.in.baseN(), nil); err != nil {
		t.Error(err)
	}
}
