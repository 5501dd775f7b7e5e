package main

import (
	"io"
	"os"
	"regexp"
	"testing"
)

// tempRoot holds every scratch directory the tests make.
var tempRoot string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "graphdim-bench-test-")
	if err != nil {
		panic(err)
	}
	tempRoot = dir
	code := m.Run()
	if fixtureVal != nil {
		fixtureVal.s.store.Close()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

var nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every workload runs at smoke scale, measured and traced: its checks must
// pass, and the metric names and units it prints must be exactly those
// BENCHMARK.json lists.
func TestEveryWorkloadPassesItsChecksAndPrintsTheManifestsMetrics(t *testing.T) {
	man, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(man.Workloads), len(workloadNames))
	}
	for i, w := range man.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
		if !nameRule.MatchString(w.Name) {
			t.Errorf("workload name %q breaks the naming rule", w.Name)
		}
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := run(runConfig{workload: name, seed: 1, seconds: 0.3, trace: traced, smoke: true, outDir: tempRoot, log: io.Discard})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			listed := man.EndToEnd
			if traced {
				listed = man.PerLayer
			}
			if len(listed) != len(res.Metrics) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(listed))
			}
			seen := map[string]bool{}
			for _, m := range listed {
				if seen[m.Name] {
					t.Errorf("BENCHMARK.json lists %s twice", m.Name)
				}
				seen[m.Name] = true
				if !nameRule.MatchString(m.Name) {
					t.Errorf("metric name %q breaks the naming rule", m.Name)
				}
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: BENCHMARK.json lists %s, the program does not print it", name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: unit %q in the program, %q in BENCHMARK.json", m.Name, got.Unit, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s %s = %v: an end-to-end metric must never be 0", name, m.Name, got.Value)
				}
			}
			if traced {
				checkPredictions(t, name, res)
			}
		}
	}
}

// checkPredictions holds a traced run to what README.md says of its
// workload: a workload that bypasses a layer says so in that layer's
// counts.
func checkPredictions(t *testing.T, name string, res *runResult) {
	t.Helper()
	v := func(metric string) float64 { return res.Metrics[metric].Value }
	wantCalls := 0.0
	if name == wVerifyTopK {
		wantCalls = shards * topK * verifyFac
	}
	if got := v("mcs.calls_per_op"); got != wantCalls {
		t.Errorf("%s pays %v MCS calls per op, want %v", name, got, wantCalls)
	}
	if hit := v("graphdim.cache_hit_ratio"); (name == wPipelineHot) != (hit > 0) {
		t.Errorf("%s: cache hit ratio %v", name, hit)
	}
	if pushed := v("pipeline.pushed_ratio"); (name == wPipelineHot) != (pushed > 0) {
		t.Errorf("%s: pushed-predicate ratio %v", name, pushed)
	}
	if got := v("wal.records_per_fsync"); got != 1 {
		t.Errorf("%s: %v records per fsync with a single writer, want 1", name, got)
	}
}
