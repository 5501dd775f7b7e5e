// Command gload is the load harness for gserve: it drives an open-loop
// mixed workload (search/add/ingest/pipeline) at a fixed arrival rate
// against a running server and prints the latency distribution as JSON —
// p50, p99, p999 per operation and overall, with 429-shed requests
// counted separately from errors. The fifth mix component sends
// composable pipeline documents to /query (filtered grouped searches
// and filtered counts).
//
// Open-loop means arrival times are fixed in advance at -rate: a
// stalling server piles queue delay into the reported percentiles
// instead of slowing the generator (closed-loop harnesses under-report
// tail latency exactly when it matters).
//
// Usage:
//
//	dspm -gen 200 -out /tmp/g
//	gserve -data /tmp/g -addr :8080 &
//	gload -addr http://127.0.0.1:8080 -collection default \
//	  -duration 30s -rate 200 -mix 80,15,5 | jq .
//
// With a replication follower running, a fourth mix component routes
// that share of searches to the follower:
//
//	gserve -data /tmp/f -follow http://127.0.0.1:8080 -addr :8081 &
//	gload -addr http://127.0.0.1:8080 -follower http://127.0.0.1:8081 \
//	  -collection default -mix 40,15,5,40 | jq .
//
// Exit status is non-zero when any request errored (shed 429s do not
// count) or when -max-p99 is set and overall p99 exceeded it — so CI
// can gate on a latency guardrail.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

func parseMix(s string) (loadgen.Mix, error) {
	parts := strings.Split(s, ",")
	if len(parts) < 3 || len(parts) > 5 {
		return loadgen.Mix{}, fmt.Errorf("mix must be three to five comma-separated percentages (search,add,ingest[,follower_search[,pipeline]]), got %q", s)
	}
	var pct [5]int
	total := 0
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return loadgen.Mix{}, fmt.Errorf("mix component %q must be a non-negative integer", p)
		}
		pct[i] = n
		total += n
	}
	if total == 0 {
		return loadgen.Mix{}, fmt.Errorf("mix %q sums to zero", s)
	}
	return loadgen.Mix{SearchPct: pct[0], AddPct: pct[1], IngestPct: pct[2], FollowerSearchPct: pct[3], PipelinePct: pct[4]}, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gload: ")
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "gserve base URL")
		coll     = flag.String("collection", "default", "target collection")
		duration = flag.Duration("duration", 10*time.Second, "nominal run length (ops = duration * rate)")
		rate     = flag.Float64("rate", 100, "open-loop arrival rate, operations/second")
		mixFlag  = flag.String("mix", "75,15,5,0,5", "workload mix as search,add,ingest[,follower_search[,pipeline]] percentages")
		follower = flag.String("follower", "", "follower gserve base URL for the follower_search mix component (falls back to -addr when empty)")
		conc     = flag.Int("concurrency", 32, "max outstanding requests")
		k        = flag.Int("k", 5, "results per search")
		batch    = flag.Int("ingest-batch", 64, "graphs per ingest request")
		seed     = flag.Int64("seed", 1, "workload seed (same seed = same op sequence and payloads)")
		maxP99   = flag.Float64("max-p99", 0, "fail (exit 1) if overall p99 exceeds this many milliseconds (0 = no guardrail)")
	)
	flag.Parse()

	ops := int(duration.Seconds() * *rate)
	if ops <= 0 {
		log.Fatalf("duration %v at rate %v yields no operations", *duration, *rate)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mix, err := parseMix(*mixFlag)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:     *addr,
		Collection:  *coll,
		Rate:        *rate,
		Ops:         ops,
		Concurrency: *conc,
		Mix:         mix,
		K:           *k,
		IngestBatch: *batch,
		FollowerURL: *follower,
		Seed:        *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	if rep.Errors > 0 {
		log.Fatalf("%d of %d requests errored (first: %s)", rep.Errors, rep.Ops, rep.SampleError)
	}
	if *maxP99 > 0 && rep.P99Ms > *maxP99 {
		log.Fatalf("overall p99 %.1fms exceeds the -max-p99 guardrail %.1fms", rep.P99Ms, *maxP99)
	}
}
