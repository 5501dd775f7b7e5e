// Command bench is the repository's benchmark: four closed-loop workloads
// over the public graphdim API, each ending with the same persistence
// phase, plus a traced run that decomposes the end-to-end numbers by
// layer. BENCHMARK.json at the repository root names it; README.md in this
// directory says why each workload exists and how to read the output.
//
//	go run ./bench                      # every workload, measured and traced
//	go run ./bench -workload scan_dense -seed 3
//	go run ./bench -workload scan_dense -trace 1
//	go run ./bench -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "run one workload: "+fmt.Sprint(workloadNames)+" (default: all, measured then traced)")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json, 2 with -smoke)")
		trace    = flag.Int("trace", 0, "0 = measured run printing the end-to-end metrics, 1 = traced run printing the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "shrink corpora x20 and windows to 2 s; results are not recorded")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for scratch data, trace files and results.jsonl")
		compare  = flag.Bool("compare", false, "compare two results files: bench -compare a.jsonl b.jsonl")
		manifest = flag.String("manifest", "BENCHMARK.json", "the benchmark's manifest (bounds for -compare, run_seconds)")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(*manifest, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %v\n", flag.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *seconds == 0 {
		*seconds = 2
		if !*smoke {
			man, err := readManifest(*manifest)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: -seconds not given and %v\n", err)
				return 2
			}
			*seconds = float64(man.RunSeconds)
		}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: *outDir, log: os.Stderr}

	if *workload != "" {
		cfg.workload, cfg.trace = *workload, *trace == 1
		return runOne(cfg, true)
	}
	// The full default run: every workload measured, then traced.
	start := time.Now()
	code := 0
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg.workload, cfg.trace = name, traced
			if c := runOne(cfg, false); c != 0 {
				code = c
			}
		}
	}
	fmt.Fprintf(os.Stderr, "full run: %s wall time, %g s windows\n", elapsed(time.Since(start)), *seconds)
	return code
}

// runOne performs one run, prints every metric by name and unit, appends
// the record to the results file, and — for the driver — ends standard
// output with the one-line JSON result.
func runOne(cfg runConfig, jsonLine bool) int {
	start := time.Now()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(cfg.log, "  %-36s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(cfg.log, "  attempted %d, failed %d, fail_ratio %g; run took %s\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), elapsed(time.Since(start)))
	if !cfg.smoke {
		if err := appendRecord(filepath.Join(cfg.outDir, "results.jsonl"), cfg, res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: recording the result: %v\n", err)
			return 1
		}
	}
	if jsonLine {
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// elapsed formats a duration for the human report.
func elapsed(d time.Duration) string { return d.Round(10 * time.Millisecond).String() }
