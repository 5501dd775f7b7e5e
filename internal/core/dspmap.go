package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/pool"
	"repro/internal/vecspace"
)

// Dissim supplies the graph dissimilarity δ(g_i, g_j) for global database
// indices on demand. DSPMap only ever evaluates it within partitions and
// merge samples, which is the source of its scalability: the full n×n
// matrix is never materialized (Theorem 5.3's O(b(b+m')) memory).
// DSPMap runs its sub-problems on up to MapConfig.Workers goroutines, so
// a Dissim is called from several goroutines at once and must be safe
// for that.
type Dissim func(i, j int) float64

// MapConfig controls a DSPMap run.
type MapConfig struct {
	// Core configures the DSPM sub-runs (P is the final dimension count).
	Core Config
	// B is the partition size b. Must be >= 2.
	B int
	// SampleSize is n_o, the number of graphs sampled to build the two
	// center sets during partitioning. Zero means the default 20.
	SampleSize int
	// Seed drives the random choices (center sampling, merge sampling).
	Seed int64
	// RandomPartition replaces Algorithm 7's similarity-driven
	// partitioning with a uniformly random one — exposed for the ablation
	// bench that quantifies the value of grouping similar graphs.
	RandomPartition bool
	// Workers bounds how many DSPM sub-runs (partitions and overlap
	// samples) run at once; zero or negative means one per CPU. The
	// result is bit-identical for every value. Core.OnIteration, if set,
	// is called from the sub-runs' goroutines, concurrently when Workers
	// is above one.
	Workers int
}

// DSPMap runs Algorithm 5: partition the database into ⌈n/b⌉ parts of
// similar graphs (Algorithm 7), then recursively combine per-partition
// DSPM weight vectors (Algorithm 6). The result's C accumulates the
// sub-run weights; Selected is the final top-p dimension set.
func DSPMap(idx *vecspace.Index, dis Dissim, cfg MapConfig) (*Result, error) {
	return DSPMapContext(context.Background(), idx, dis, cfg)
}

// DSPMapContext is DSPMap with cancellation: ctx is checked between
// dissimilarity evaluations (the dominant cost) and before each DSPM
// sub-run, and a cancelled run returns (nil, ctx.Err()).
func DSPMapContext(ctx context.Context, idx *vecspace.Index, dis Dissim, cfg MapConfig) (*Result, error) {
	if cfg.B < 2 {
		return nil, fmt.Errorf("core: DSPMap partition size B=%d, want >= 2", cfg.B)
	}
	if idx.N == 0 || idx.P == 0 {
		return nil, fmt.Errorf("core: empty problem (n=%d, m=%d)", idx.N, idx.P)
	}
	if cfg.Core.P <= 0 || cfg.Core.P > idx.P {
		return nil, fmt.Errorf("core: P=%d out of range (0, %d]", cfg.Core.P, idx.P)
	}
	if cfg.SampleSize == 0 {
		cfg.SampleSize = 20
	}
	cfg.Workers = pool.DefaultWorkers(cfg.Workers)
	rng := rand.New(rand.NewSource(cfg.Seed))

	d := &dspmap{ctx: ctx, idx: idx, dis: dis, cfg: cfg, rng: rng}
	all := make([]int, idx.N)
	for i := range all {
		all[i] = i
	}
	d.vectors = make([]*vecspace.BitVector, idx.N)
	for i := range d.vectors {
		d.vectors[i] = idx.Vector(i)
	}

	var parts [][]int
	if cfg.RandomPartition {
		parts = d.randomPartition(all)
	} else {
		parts = d.partition(all)
	}
	c := d.computeC(parts)
	if err := ctx.Err(); err != nil {
		// A cancelled run leaves skipped or zeroed sub-runs; discard the
		// partial weights.
		return nil, err
	}

	return &Result{
		C:        c,
		Selected: TopWeights(c, cfg.Core.P),
	}, nil
}

type dspmap struct {
	ctx     context.Context
	idx     *vecspace.Index
	dis     Dissim
	cfg     MapConfig
	rng     *rand.Rand
	vectors []*vecspace.BitVector
}

// partition is Algorithm 7: recursively split ids into parts of at most b
// graphs, grouping graphs with similar binary vectors and balancing so
// every left subtree holds a multiple of b graphs.
func (d *dspmap) partition(ids []int) [][]int {
	b := d.cfg.B
	if len(ids) <= b {
		return [][]int{ids}
	}
	// Sample n_o graphs and split them into two center sets.
	no := d.cfg.SampleSize
	if no > len(ids) {
		no = len(ids)
	}
	if no < 2 {
		no = 2
	}
	perm := d.rng.Perm(len(ids))
	sample := make([]int, no)
	for i := 0; i < no; i++ {
		sample[i] = ids[perm[i]]
	}
	ol, or := d.splitCenters(sample)

	inSample := make(map[int]bool, no)
	for _, id := range sample {
		inSample[id] = true
	}
	left := append([]int(nil), ol...)
	right := append([]int(nil), or...)
	for _, id := range ids {
		if inSample[id] {
			continue
		}
		if d.centerDistance(id, ol) <= d.centerDistance(id, or) {
			left = append(left, id)
		} else {
			right = append(right, id)
		}
	}

	// Balance: the left subtree must hold n_l = ⌊n_p/2⌋ × b graphs.
	np := (len(ids) + b - 1) / b
	nl := (np / 2) * b
	if len(left) > nl {
		d.moveFarthest(&left, &right, len(left)-nl, ol)
	} else if len(left) < nl {
		d.moveFarthest(&right, &left, nl-len(left), or)
	}

	out := d.partition(left)
	return append(out, d.partition(right)...)
}

// randomPartition shuffles ids and cuts them into ⌈n/b⌉ chunks — the
// ablation counterpart of partition.
func (d *dspmap) randomPartition(ids []int) [][]int {
	b := d.cfg.B
	shuffled := append([]int(nil), ids...)
	d.rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var out [][]int
	for len(shuffled) > 0 {
		end := b
		if end > len(shuffled) {
			end = len(shuffled)
		}
		out = append(out, shuffled[:end])
		shuffled = shuffled[end:]
	}
	return out
}

// splitCenters clusters the sampled graphs into two center sets by their
// binary vectors (two-means on the Hamming geometry).
func (d *dspmap) splitCenters(sample []int) (ol, or []int) {
	if len(sample) < 2 {
		return sample, nil
	}
	// Seed with the pair realizing the max distance within a scan budget,
	// then assign each sample to the closer seed.
	s0, s1 := sample[0], sample[1]
	bestD := -1.0
	for i := 0; i < len(sample); i++ {
		for j := i + 1; j < len(sample); j++ {
			dd := d.vectors[sample[i]].Distance(d.vectors[sample[j]])
			if dd > bestD {
				bestD, s0, s1 = dd, sample[i], sample[j]
			}
		}
	}
	for _, id := range sample {
		if d.vectors[id].Distance(d.vectors[s0]) <= d.vectors[id].Distance(d.vectors[s1]) {
			ol = append(ol, id)
		} else {
			or = append(or, id)
		}
	}
	if len(or) == 0 { // degenerate: all vectors identical
		or = append(or, ol[len(ol)-1])
		ol = ol[:len(ol)-1]
	}
	return ol, or
}

// centerDistance is the graph-center distance d(g_i, O) = mean distance
// from g_i to the members of O.
func (d *dspmap) centerDistance(id int, centers []int) float64 {
	if len(centers) == 0 {
		return 1
	}
	s := 0.0
	for _, c := range centers {
		s += d.vectors[id].Distance(d.vectors[c])
	}
	return s / float64(len(centers))
}

// moveFarthest moves k graphs with the largest distance to the source's
// center set from src to dst (the balancing step of Algorithm 7).
func (d *dspmap) moveFarthest(src, dst *[]int, k int, centers []int) {
	type scored struct {
		id int
		d  float64
	}
	sc := make([]scored, len(*src))
	for i, id := range *src {
		sc[i] = scored{id, d.centerDistance(id, centers)}
	}
	sort.Slice(sc, func(i, j int) bool { return sc[i].d > sc[j].d })
	moved := make(map[int]bool, k)
	for i := 0; i < k && i < len(sc); i++ {
		moved[sc[i].id] = true
		*dst = append(*dst, sc[i].id)
	}
	keep := (*src)[:0]
	for _, id := range *src {
		if !moved[id] {
			keep = append(keep, id)
		}
	}
	*src = keep
}

// combine is one node of Algorithm 6's recursion: a partition at a leaf,
// or the overlap sample bridging two halves, whose weight vector is
// summed with the halves'.
type combine struct {
	ids         []int     // the graphs of this node's DSPM sub-run
	left, right *combine  // nil at a leaf
	c           []float64 // the sub-run's weights over all m features
}

// computeC is Algorithm 6: recursively compute the weight vector of the
// left and right halves of the partition list, run DSPM on an overlap
// sample bridging the halves, and sum the three vectors. The sub-runs
// are independent, so it plans the recursion first (drawing the rng in
// the recursive order: left half, right half, then this node's sample),
// runs every sub-run on the worker pool, and sums in tree order — the
// weights are bit-identical to a sequential recursion. It returns nil if
// ctx ends during the run.
func (d *dspmap) computeC(parts [][]int) []float64 {
	var runs []*combine
	root := d.plan(parts, &runs)
	if err := pool.ForContext(d.ctx, d.cfg.Workers, len(runs), func(i int) {
		runs[i].c = d.runDSPM(runs[i].ids)
	}); err != nil {
		return nil
	}
	return root.sum()
}

// plan builds parts' combine tree and appends its nodes to runs.
func (d *dspmap) plan(parts [][]int, runs *[]*combine) *combine {
	if len(parts) == 1 {
		leaf := &combine{ids: parts[0]}
		*runs = append(*runs, leaf)
		return leaf
	}
	mid := (len(parts) + 1) / 2
	left := d.plan(parts[:mid], runs)
	right := d.plan(parts[mid:], runs)

	// Overlap: b graphs sampled from one random part of each half.
	pl := parts[d.rng.Intn(mid)]
	pr := parts[mid+d.rng.Intn(len(parts)-mid)]
	sample := append(append([]int(nil), pl...), pr...)
	d.rng.Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
	if len(sample) > d.cfg.B {
		sample = sample[:d.cfg.B]
	}
	node := &combine{ids: sample, left: left, right: right}
	*runs = append(*runs, node)
	return node
}

// sum returns c_l + c_r + c_o over the subtree rooted at n.
func (n *combine) sum() []float64 {
	if n.left == nil {
		return n.c
	}
	cl, cr := n.left.sum(), n.right.sum()
	c := make([]float64, len(n.c))
	for r := range c {
		c[r] = cl[r] + cr[r] + n.c[r]
	}
	return c
}

// runDSPM solves the restricted problem on the given global graph ids,
// using only features with non-empty local support (F' in Algorithm 6),
// and scatters the local weights back into a global-length vector.
func (d *dspmap) runDSPM(ids []int) []float64 {
	c := make([]float64, d.idx.P)
	if len(ids) < 2 || d.ctx.Err() != nil {
		return c
	}
	// F': the features some graph of ids contains, ascending, and each
	// one's local index plus one (zero marks a feature outside F').
	localOf := make([]int, d.idx.P)
	for _, id := range ids {
		for _, r := range d.idx.IG[id] {
			localOf[r] = 1
		}
	}
	var feats []int
	for r, in := range localOf {
		if in != 0 {
			feats = append(feats, r)
			localOf[r] = len(feats)
		}
	}
	if len(feats) == 0 {
		return c
	}
	// Local inverted lists. IG lists ascend, and the renumbering keeps
	// their order, so every local list comes out sorted.
	local := &vecspace.Index{N: len(ids), P: len(feats), IF: make([][]int, len(feats)), IG: make([][]int, len(ids))}
	for li, id := range ids {
		list := make([]int, len(d.idx.IG[id]))
		for x, r := range d.idx.IG[id] {
			lr := localOf[r] - 1
			list[x] = lr
			local.IF[lr] = append(local.IF[lr], li)
		}
		local.IG[li] = list
	}
	delta := make([][]float64, len(ids))
	for i := range delta {
		delta[i] = make([]float64, len(ids))
	}
	for i := 0; i < len(ids); i++ {
		if d.ctx.Err() != nil {
			return c
		}
		for j := i + 1; j < len(ids); j++ {
			v := d.dis(ids[i], ids[j])
			delta[i][j] = v
			delta[j][i] = v
		}
	}
	p := d.cfg.Core.P
	if p > len(feats) {
		p = len(feats)
	}
	sub := d.cfg.Core
	sub.P = p
	res, err := DSPMContext(d.ctx, local, delta, sub)
	if err != nil {
		if d.ctx.Err() != nil {
			return c
		}
		// Restricted problems are non-empty by construction; an error here
		// is a programming bug, not a data condition.
		panic(fmt.Sprintf("core: restricted DSPM failed: %v", err))
	}
	for lr, r := range feats {
		c[r] += res.C[lr]
	}
	return c
}
