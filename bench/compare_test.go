package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v, v * 1.005} }
	noisy := []float64{50, 100, 150, 200, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady(100), steady(101), "lower", verdictOK},
		{"slower latency", steady(100), steady(120), "lower", verdictRegressed},
		{"faster latency", steady(100), steady(80), "lower", verdictImproved},
		{"less throughput", steady(100), steady(80), "higher", verdictRegressed},
		{"more throughput", steady(100), steady(120), "higher", verdictImproved},
		{"noise hides the change", noisy, steady(150), "lower", verdictUnresolved},
	} {
		if got, _, _, _ := judge(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRecordsExitCode(t *testing.T) {
	man := &manifestFile{EndToEnd: []manifestMetric{{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}}}
	man.Workloads = append(man.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: wScanDense})
	rec := func(v float64, failed int64) record {
		return record{Workload: wScanDense, runResult: runResult{Attempted: 100, Failed: failed,
			Metrics: map[string]metricValue{"read_p50_ms": {Value: v, Unit: "ms"}}}}
	}
	var out bytes.Buffer
	if code := compareRecords(man, []record{rec(1, 0)}, []record{rec(1.02, 0)}, &out); code != 0 {
		t.Errorf("a 2%% move inside a 10%% bound exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRecords(man, []record{rec(1, 0)}, []record{rec(1.5, 0)}, &out); code == 0 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("a 50%% regression exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRecords(man, []record{rec(1, 0)}, []record{rec(1, 3)}, &out); code == 0 || !strings.Contains(out.String(), "fail_ratio rose") {
		t.Errorf("a rise in failures exits %d:\n%s", code, out.String())
	}
	// Traced records carry per-layer metrics and are not judged.
	traced := rec(9, 0)
	traced.Trace = true
	out.Reset()
	if code := compareRecords(man, []record{rec(1, 0)}, []record{rec(1, 0), traced}, &out); code != 0 {
		t.Errorf("a traced record changed the verdict:\n%s", out.String())
	}
}
