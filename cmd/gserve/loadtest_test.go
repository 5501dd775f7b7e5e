package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/graphdim"
	"repro/internal/dataset"
	"repro/internal/loadgen"
)

// TestLoadSmoke drives the open-loop generator against an in-process
// gserve with the default mixed workload. It is the `make loadtest`
// entry point: GLOAD_DURATION stretches the run (CI uses 5s), and
// GLOAD_MAX_P99_MS optionally turns the p99 into a hard guardrail. The
// invariant checked unconditionally is error-rate zero — shed 429s are
// fine, failed requests are not.
func TestLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke is not a -short test")
	}
	dur := 1500 * time.Millisecond
	if v := os.Getenv("GLOAD_DURATION"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("GLOAD_DURATION %q: %v", v, err)
		}
		dur = d
	}
	const rate = 150.0
	ts, _ := newTestServer(t, 4, 30*time.Second)

	rep, err := loadgen.Run(t.Context(), loadgen.Config{
		BaseURL:     ts.URL,
		Collection:  "default",
		Rate:        rate,
		Ops:         int(dur.Seconds() * rate),
		Concurrency: 16,
		Mix:         loadgen.DefaultMix,
		K:           5,
		IngestBatch: 32,
		Seed:        7,
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatalf("loadgen.Run: %v", err)
	}
	t.Logf("ops=%d errors=%d rejected=%d p50=%.2fms p99=%.2fms p999=%.2fms achieved=%.1f/s",
		rep.Ops, rep.Errors, rep.Rejected, rep.P50Ms, rep.P99Ms, rep.P999Ms, rep.AchievedRate)
	for kind, op := range rep.PerOp {
		t.Logf("  %-7s count=%d errors=%d rejected=%d p50=%.2fms p99=%.2fms", kind, op.Count, op.Errors, op.Rejected, op.P50Ms, op.P99Ms)
	}
	if rep.Errors > 0 {
		t.Fatalf("%d of %d requests errored under mixed load (first: %s)", rep.Errors, rep.Ops, rep.SampleError)
	}
	if rep.Ops == 0 {
		t.Fatal("load run completed zero operations")
	}
	if v := os.Getenv("GLOAD_MAX_P99_MS"); v != "" {
		max, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("GLOAD_MAX_P99_MS %q: %v", v, err)
		}
		if rep.P99Ms > max {
			t.Fatalf("overall p99 %.2fms exceeds GLOAD_MAX_P99_MS=%.2f", rep.P99Ms, max)
		}
	}
}

// TestLoadReplSmoke drives the mixed workload against a two-node
// primary/follower pair — writes and a search share on the primary,
// the follower_search share on the replica — and gates on zero errors
// plus a replication-lag guardrail: the follower must drain the write
// stream within GLOAD_MAX_LAG (default 10s) of the load stopping. It is
// the `make loadtest-repl` entry point; GLOAD_DURATION stretches the
// run and GLOAD_MAX_P99_MS adds the latency guardrail, as in
// TestLoadSmoke.
func TestLoadReplSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("repl load smoke is not a -short test")
	}
	dur := 1500 * time.Millisecond
	if v := os.Getenv("GLOAD_DURATION"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("GLOAD_DURATION %q: %v", v, err)
		}
		dur = d
	}
	maxLag := 10 * time.Second
	if v := os.Getenv("GLOAD_MAX_LAG"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("GLOAD_MAX_LAG %q: %v", v, err)
		}
		maxLag = d
	}
	const rate = 150.0

	pts, _, pstore := newPrimaryServer(t, t.TempDir())
	defer pts.Close()
	defer pstore.Close()
	pc, _ := pstore.Collection("default")
	fp := startFollowerProc(t, pts.URL, t.TempDir())
	defer fp.kill()

	rep, err := loadgen.Run(t.Context(), loadgen.Config{
		BaseURL:     pts.URL,
		FollowerURL: fp.ts.URL,
		Collection:  "default",
		Rate:        rate,
		Ops:         int(dur.Seconds() * rate),
		Concurrency: 16,
		Mix:         loadgen.Mix{SearchPct: 40, AddPct: 15, IngestPct: 5, FollowerSearchPct: 40},
		K:           5,
		IngestBatch: 32,
		Seed:        7,
		Client:      pts.Client(),
	})
	if err != nil {
		t.Fatalf("loadgen.Run: %v", err)
	}
	t.Logf("ops=%d errors=%d rejected=%d p50=%.2fms p99=%.2fms p999=%.2fms achieved=%.1f/s",
		rep.Ops, rep.Errors, rep.Rejected, rep.P50Ms, rep.P99Ms, rep.P999Ms, rep.AchievedRate)
	for kind, op := range rep.PerOp {
		t.Logf("  %-15s count=%d errors=%d rejected=%d p50=%.2fms p99=%.2fms", kind, op.Count, op.Errors, op.Rejected, op.P50Ms, op.P99Ms)
	}
	if rep.Errors > 0 {
		t.Fatalf("%d of %d requests errored under replicated load (first: %s)", rep.Errors, rep.Ops, rep.SampleError)
	}
	if op := rep.PerOp["follower_search"]; op == nil || op.Count == 0 {
		t.Fatal("the follower served zero searches; the follower_search mix did not run")
	}

	// The lag guardrail: all load has stopped, so the follower must drain
	// the remaining WAL tail promptly or replication is falling behind in
	// a way heartbeats are hiding.
	fc, ok := fp.store.Collection("default")
	if !ok {
		t.Fatal("follower store has no default collection")
	}
	drainStart := time.Now()
	target := pc.AppliedSeq()
	waitUntil(t, maxLag, "follower to drain the write stream", func() bool {
		return fc.AppliedSeq() >= target
	})
	t.Logf("follower drained to seq %d in %v (lag guardrail %v)", fc.AppliedSeq(), time.Since(drainStart).Round(time.Millisecond), maxLag)

	if v := os.Getenv("GLOAD_MAX_P99_MS"); v != "" {
		max, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("GLOAD_MAX_P99_MS %q: %v", v, err)
		}
		if rep.P99Ms > max {
			t.Fatalf("overall p99 %.2fms exceeds GLOAD_MAX_P99_MS=%.2f", rep.P99Ms, max)
		}
	}
}

// renderAddBodies pre-renders n distinct single-graph add payloads.
func renderAddBodies(b *testing.B, n int, seed int64) []string {
	b.Helper()
	db := dataset.Chemical(dataset.ChemConfig{N: n, MinVertices: 8, MaxVertices: 12, Seed: seed})
	bodies := make([]string, 0, n)
	for _, g := range db {
		var buf bytes.Buffer
		if err := graphdim.WriteGraphs(&buf, []*graphdim.Graph{g}); err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, buf.String())
	}
	return bodies
}

func postAdd(b *testing.B, client *http.Client, baseURL, body string) {
	b.Helper()
	resp, err := client.Post(baseURL+"/v1/collections/default/add", "text/plain", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("add: status %d", resp.StatusCode)
	}
}

// BenchmarkReplicationShip measures steady-state WAL shipping: each
// iteration is one durable HTTP add on the primary while a live
// follower tails the stream, and the timer stops only after the
// follower has applied every shipped record — so records/s_shipped is
// end-to-end replication throughput, not just primary write throughput.
func BenchmarkReplicationShip(b *testing.B) {
	pts, _, pstore := newPrimaryServer(b, b.TempDir())
	defer pts.Close()
	defer pstore.Close()
	pc, _ := pstore.Collection("default")
	fp := startFollowerProc(b, pts.URL, b.TempDir())
	defer fp.kill()
	fc, ok := fp.store.Collection("default")
	if !ok {
		b.Fatal("follower store has no default collection")
	}
	waitUntil(b, 10*time.Second, "initial catch-up", func() bool {
		return fc.AppliedSeq() >= pc.AppliedSeq()
	})
	bodies := renderAddBodies(b, 64, 51)
	client := pts.Client()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postAdd(b, client, pts.URL, bodies[i%len(bodies)])
	}
	target := pc.AppliedSeq()
	waitUntil(b, 60*time.Second, "follower to drain the shipped records", func() bool {
		return fc.AppliedSeq() >= target
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s_shipped")
}

// BenchmarkReplicationCatchUp measures cold catch-up: each iteration
// builds a 32-record backlog on the primary while the follower is down,
// then restarts the follower over the same directory and times
// resume-tail-and-replay until it converges. records/s_catchup is the
// backlog drain rate including follower startup.
func BenchmarkReplicationCatchUp(b *testing.B) {
	pts, _, pstore := newPrimaryServer(b, b.TempDir())
	defer pts.Close()
	defer pstore.Close()
	pc, _ := pstore.Collection("default")
	fdir := b.TempDir()
	// Bootstrap once; every timed restart resumes from the local offset.
	fp := startFollowerProc(b, pts.URL, fdir)
	fc, _ := fp.store.Collection("default")
	waitUntil(b, 10*time.Second, "initial catch-up", func() bool {
		return fc.AppliedSeq() >= pc.AppliedSeq()
	})
	fp.kill()
	const backlog = 32
	bodies := renderAddBodies(b, backlog, 53)
	client := pts.Client()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, body := range bodies {
			postAdd(b, client, pts.URL, body)
		}
		target := pc.AppliedSeq()
		b.StartTimer()
		fp := startFollowerProc(b, pts.URL, fdir)
		fc, _ := fp.store.Collection("default")
		waitUntil(b, 30*time.Second, "backlog catch-up", func() bool {
			return fc.AppliedSeq() >= target
		})
		b.StopTimer()
		fp.kill()
		b.StartTimer()
	}
	b.ReportMetric(float64(backlog)*float64(b.N)/b.Elapsed().Seconds(), "records/s_catchup")
}

// BenchmarkServedMixedLoad reports end-to-end served latency under the
// default open-loop mix: b.N operations at a fixed arrival rate against
// an in-process server. The interesting output is the reported
// p50/p99/p999 (milliseconds, scheduled-arrival based so queue delay
// counts), not ns/op.
func BenchmarkServedMixedLoad(b *testing.B) {
	db := dataset.Chemical(dataset.ChemConfig{N: 25, MinVertices: 8, MaxVertices: 12, Seed: 7})
	idx, err := graphdim.Build(db, graphdim.Options{Dimensions: 12, Tau: 0.2, MCSBudget: 1500})
	if err != nil {
		b.Fatal(err)
	}
	store := graphdim.NewStore(graphdim.StoreOptions{})
	defer store.Close()
	if _, err := store.CreateFromIndex("default", idx, graphdim.CollectionOptions{
		Shards: 4,
		Cache:  graphdim.CacheOptions{MaxEntries: 256},
	}); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(newServerCfg(store, serverConfig{defaultK: 10, timeout: 30 * time.Second}))
	defer ts.Close()

	// Percentiles from a handful of samples are noise: drive at least 400
	// operations (one second at the target rate) even when -benchtime asks
	// for a single iteration, as the smoke pipeline does. ns/op then reads
	// as "time per declared iteration" — the reported quantiles are the
	// point of this benchmark.
	ops := b.N
	if ops < 400 {
		ops = 400
	}
	b.ResetTimer()
	rep, err := loadgen.Run(b.Context(), loadgen.Config{
		BaseURL:     ts.URL,
		Collection:  "default",
		Rate:        400,
		Ops:         ops,
		Concurrency: 32,
		Mix:         loadgen.DefaultMix,
		K:           5,
		IngestBatch: 32,
		Seed:        11,
		Client:      ts.Client(),
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if rep.Errors > 0 {
		b.Fatalf("%d errors under load (first: %s)", rep.Errors, rep.SampleError)
	}
	b.ReportMetric(rep.P50Ms, "p50_ms")
	b.ReportMetric(rep.P99Ms, "p99_ms")
	b.ReportMetric(rep.P999Ms, "p999_ms")
	b.ReportMetric(rep.AchievedRate, "ops/s_achieved")
}
