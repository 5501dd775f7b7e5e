package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/graphdim"
)

// served is one set-up collection: a durable 2-shard store in its own
// data directory, as `gserve -data` would run it.
type served struct {
	dir   string
	store *graphdim.Store
	coll  *graphdim.Collection
	// index is the unsharded index the collection was split from. It is
	// only read afterwards (CreateFromIndex shares its graphs and vectors).
	index *graphdim.Index
	times setupTimes
}

// setupTimes splits one set-up by layer; total is what setup_s reports.
type setupTimes struct {
	mine, sel, vectors, add, create, total time.Duration
}

// setUp runs the whole offline path for one workload: select the
// dimensions from the sample (gSpan + DSPMap), map the corpus onto them
// with Index.Add, and split the index into a durable sharded collection
// (which writes the first checkpoint). onSync observes WAL fsyncs.
func setUp(in *inputs, w workloadSpec, sc scale, dir string, onSync func(time.Duration, int)) (*served, error) {
	var t setupTimes
	start := time.Now()

	opt := buildOptions()
	var edge [4]time.Time // when each build stage was first reported
	var last time.Time
	opt.Progress = func(stage graphdim.BuildStage, _, _ int) {
		now := time.Now()
		if edge[stage].IsZero() {
			edge[stage] = now
		}
		last = now
	}
	ix, err := graphdim.Build(in.sample, opt)
	if err != nil {
		return nil, fmt.Errorf("building the index: %w", err)
	}
	t.mine = edge[graphdim.StageDSPM].Sub(edge[graphdim.StageMining])
	t.sel = edge[graphdim.StageVectors].Sub(edge[graphdim.StageDSPM])
	t.vectors = last.Sub(edge[graphdim.StageVectors])

	t0 := time.Now()
	if _, err := ix.Add(in.corpus...); err != nil {
		return nil, fmt.Errorf("adding the corpus: %w", err)
	}
	t.add = time.Since(t0)

	t0 = time.Now()
	store, err := graphdim.CreateStore(dir, storeOptions(onSync))
	if err != nil {
		return nil, err
	}
	copt := graphdim.CollectionOptions{Shards: shards, Build: buildOptions()}
	if w.cache {
		copt.Cache = graphdim.CacheOptions{MaxEntries: sc.cacheEntries}
	}
	coll, err := store.CreateFromIndex(collectionName, ix, copt)
	if err != nil {
		store.Close()
		return nil, err
	}
	t.create = time.Since(t0)
	t.total = time.Since(start)
	return &served{dir: dir, store: store, coll: coll, index: ix, times: t}, nil
}

// workDir hands out fresh directories under one root inside the checkout
// and removes them all at the end of the run.
type workDir struct {
	root string
	n    int
}

func newWorkDir(outDir string) (*workDir, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	return &workDir{root: root}, nil
}

func (w *workDir) next(name string) string {
	w.n++
	return filepath.Join(w.root, fmt.Sprintf("%s-%d", name, w.n))
}

func (w *workDir) remove() { os.RemoveAll(w.root) }

// copyTree copies a data directory file by file while its store is still
// open — what a crash leaves behind, short of losing the OS cache.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// treeBytes sums the sizes of the regular files under dir whose name
// matches the glob pattern ("*" = all).
func treeBytes(dir, pattern string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if ok, _ := filepath.Match(pattern, d.Name()); !ok {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
