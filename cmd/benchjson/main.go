// Command benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON document — what `make bench` writes to
// $(BENCH_OUT) and CI's bench-smoke job greps. Each benchmark line becomes one record with the op name,
// iteration count, ns/op, and — when -benchmem is on — B/op and
// allocs/op; context lines (goos, goarch, cpu, pkg) become header fields.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson -out /tmp/graphdim-bench.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type record struct {
	Package string  `json:"package,omitempty"`
	Op      string  `json:"op"`
	Iters   int64   `json:"iterations"`
	NsPerOp float64 `json:"ns_per_op"`
	BPerOp  float64 `json:"bytes_per_op,omitempty"`
	Allocs  float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units (e.g. "precision").
	Extra map[string]float64 `json:"extra,omitempty"`
}

type document struct {
	GeneratedAt string   `json:"generated_at"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos,omitempty"`
	GOARCH      string   `json:"goarch,omitempty"`
	CPU         string   `json:"cpu,omitempty"`
	Benchmarks  []record `json:"benchmarks"`
}

// benchLine matches "BenchmarkFoo/sub-8   100   123456 ns/op[ ...]".
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

// metricPair matches the trailing "<value> <unit>" pairs after ns/op.
var metricPair = regexp.MustCompile(`([0-9.]+)\s+(\S+)`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	doc := document{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
	}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		rec := record{Package: pkg, Op: m[1], Iters: iters, NsPerOp: ns}
		for _, pair := range metricPair.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(pair[1], 64)
			if err != nil {
				continue
			}
			switch pair[2] {
			case "B/op":
				rec.BPerOp = v
			case "allocs/op":
				rec.Allocs = v
			default:
				if rec.Extra == nil {
					rec.Extra = map[string]float64{}
				}
				rec.Extra[pair[2]] = v
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, rec)
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(doc.Benchmarks) == 0 {
		log.Fatal("no benchmark lines found on stdin (pipe `go test -bench` output in)")
	}

	data, err := json.MarshalIndent(&doc, "", " ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
}
