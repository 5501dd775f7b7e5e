package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// manifestFile is the part of BENCHMARK.json the program reads.
type manifestFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifestFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifestFile
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// record is one line of a results file: one run, with where it ran.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	runResult
	Env environment `json:"env"`
}

// environment is what a number cannot be read without.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Filesystem string `json:"filesystem"` // of the directory the stores log to
	Commit     string `json:"git_commit"`
	WALSync    string `json:"wal_flush_policy"`
}

func currentEnvironment(dir string) environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Filesystem: filesystemOf(dir),
		Commit:     "unknown",
		WALSync:    "fsync per commit (group commit), 64 MiB segments",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

func appendRecord(path string, cfg runConfig, res *runResult) error {
	rec := record{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		runResult: *res, Env: currentEnvironment(filepath.Dir(path))}
	line, err := json.Marshal(&rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
)

// judge applies the rule later changes are held to. a and b are the
// metric's values over the runs of the parent and of the change. The
// change is worse by the share of the parent's median it moved in the bad
// direction; beyond the bound that is a regression, beyond it in the good
// direction an improvement. When either set's own spread (interquartile
// distance over median) exceeds the bound, the row cannot tell a change
// from noise and is unresolved.
func judge(a, b []float64, better string, bound float64) (verdict string, worse, spreadA, spreadB float64) {
	ma, mb := median(a), median(b)
	spreadA, spreadB = spread(a), spread(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if better == "higher" {
			worse = -worse
		}
	}
	switch {
	case spreadA > bound || spreadB > bound:
		verdict = verdictUnresolved
	case worse > bound:
		verdict = verdictRegressed
	case worse < -bound:
		verdict = verdictImproved
	default:
		verdict = verdictOK
	}
	return verdict, worse, spreadA, spreadB
}

// compareFiles judges every (end-to-end metric, workload) row of two
// results files. It returns 1 on any regression or rise in failures.
func compareFiles(manifestPath, pathA, pathB string, out io.Writer) int {
	man, err := readManifest(manifestPath)
	if err == nil {
		var a, b []record
		if a, err = readRecords(pathA); err == nil {
			b, err = readRecords(pathB)
		}
		if err == nil {
			return compareRecords(man, a, b, out)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

func compareRecords(man *manifestFile, a, b []record, out io.Writer) int {
	type key struct{ workload, metric string }
	collect := func(rs []record) (map[key][]float64, map[string]float64) {
		vals, failRatio := map[key][]float64{}, map[string]float64{}
		attempted, failed := map[string]int64{}, map[string]int64{}
		for _, r := range rs {
			if r.Trace {
				continue
			}
			attempted[r.Workload] += r.Attempted
			failed[r.Workload] += r.Failed
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				vals[k] = append(vals[k], v.Value)
			}
		}
		for w, n := range attempted {
			failRatio[w] = float64(failed[w]) / float64(n)
		}
		return vals, failRatio
	}
	va, fa := collect(a)
	vb, fb := collect(b)

	code := 0
	fmt.Fprintf(out, "%-14s %-22s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "a median", "b median", "worse", "spread a", "spread b", "verdict")
	for _, w := range man.Workloads {
		for _, m := range man.EndToEnd {
			k := key{w.Name, m.Name}
			if len(va[k]) == 0 || len(vb[k]) == 0 {
				fmt.Fprintf(out, "%-14s %-22s missing from one file\n", w.Name, m.Name)
				code = 1
				continue
			}
			verdict, worse, sa, sb := judge(va[k], vb[k], m.Better, m.Bound)
			if verdict == verdictRegressed {
				code = 1
			}
			fmt.Fprintf(out, "%-14s %-22s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%%  %s (bound %.0f%%, n=%d/%d)\n",
				w.Name, m.Name, median(va[k]), median(vb[k]), 100*worse, 100*sa, 100*sb,
				verdict, 100*m.Bound, len(va[k]), len(vb[k]))
		}
	}
	workloads := make([]string, 0, len(fb))
	for w := range fb {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		if fb[w] > fa[w] {
			fmt.Fprintf(out, "%-14s fail_ratio rose from %g to %g: regressed\n", w, fa[w], fb[w])
			code = 1
		}
	}
	return code
}
