// Package core implements the paper's primary contribution: the DSPM
// algorithm (Section 5.1) that selects a small set of frequent subgraphs
// ("graph dimensions") whose binary containment vectors preserve the
// MCS-based graph dissimilarity under Euclidean distance, and the
// approximate, partition-based DSPMap algorithm (Section 5.2) that scales
// the computation to large graph databases.
//
// DSPM minimizes the stress objective of Eq. (4)
//
//	E = Σ_{i,j} (d(x_i, x_j) − δ_ij)^2,   x_ir = y_ir · c_r
//
// by the majorization (SMACOF-style) iteration of Eqs. (6)–(8), with the
// simplified weight update of Theorem 5.1 and the inverted-list
// optimizations of Algorithms 2–4. The p features with largest weight c_r
// form the selected dimension F.
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/vecspace"
)

// Config controls a DSPM run.
type Config struct {
	// P is the number of dimensions to select (p in the paper).
	P int
	// Epsilon is the convergence threshold ε on the objective decrease.
	// Zero means the default 1e-4.
	Epsilon float64
	// MaxIter caps the number of majorization iterations. Zero means the
	// default 30.
	MaxIter int
	// NaiveUpdateC switches the weight update from the simplified Eq. (9)
	// to the direct Eq. (7) computation — exposed for the ablation bench
	// and the Theorem 5.1 equivalence test.
	NaiveUpdateC bool
	// DenseObjective switches Computeobj from the inverted-list Algorithm
	// 4 to a dense scan — exposed for the ablation bench.
	DenseObjective bool
	// DenseXbar switches Updatexbar from the IF-list Algorithm 3 to a
	// dense scan over all graphs — exposed for the ablation bench.
	DenseXbar bool
	// OnIteration, when non-nil, is called after every majorization
	// iteration with the 1-based iteration number and the objective value
	// it reached — the hook behind build-progress reporting. It is always
	// called from the goroutine running DSPM.
	OnIteration func(iteration int, objective float64)
}

// DefaultMaxIter is the majorization-iteration cap a zero Config.MaxIter
// resolves to — exported so callers planning progress totals agree with
// the run.
const DefaultMaxIter = 30

func (c Config) withDefaults() Config {
	if c.Epsilon == 0 {
		c.Epsilon = 1e-4
	}
	if c.MaxIter == 0 {
		c.MaxIter = DefaultMaxIter
	}
	return c
}

// Result reports a DSPM run.
type Result struct {
	// C is the final weight vector over all m candidate features.
	C []float64
	// Selected lists the indices of the p features with largest weight,
	// in descending weight order.
	Selected []int
	// Objectives records the objective value per iteration (including the
	// initial configuration), a monotone non-increasing sequence.
	Objectives []float64
	// Iterations is the number of majorization iterations executed.
	Iterations int
}

// DSPM runs Algorithm 1 on a database described by its feature index (the
// binary matrix Y via inverted lists) and a full pairwise dissimilarity
// matrix delta. It returns the weight vector and the selected dimensions.
func DSPM(idx *vecspace.Index, delta [][]float64, cfg Config) (*Result, error) {
	return DSPMContext(context.Background(), idx, delta, cfg)
}

// DSPMContext is DSPM with cancellation: ctx is checked before every
// majorization iteration (each iteration is O(n²) pair distances), and a
// cancelled run returns (nil, ctx.Err()) rather than a partial result.
func DSPMContext(ctx context.Context, idx *vecspace.Index, delta [][]float64, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	n, m := idx.N, idx.P
	if n == 0 || m == 0 {
		return nil, fmt.Errorf("core: empty problem (n=%d, m=%d)", n, m)
	}
	if len(delta) != n {
		return nil, fmt.Errorf("core: delta is %d×?, want %d×%d", len(delta), n, n)
	}
	if cfg.P <= 0 || cfg.P > m {
		return nil, fmt.Errorf("core: P=%d out of range (0, %d]", cfg.P, m)
	}

	s := newState(idx, delta, cfg)
	for r := range s.c {
		s.c[r] = 1 / math.Sqrt(float64(m))
	}
	s.fillDist()

	res := &Result{}
	prev := math.Inf(1)
	cur := s.computeObj()
	res.Objectives = append(res.Objectives, cur)
	for k := 1; prev-cur > cfg.Epsilon && k <= cfg.MaxIter; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		xbar := s.updateXbar()
		s.c, s.spare = s.updateC(xbar), s.c
		s.fillDist()
		prev, cur = cur, s.computeObj()
		res.Objectives = append(res.Objectives, cur)
		res.Iterations = k
		if cfg.OnIteration != nil {
			cfg.OnIteration(k, cur)
		}
	}

	res.C = append([]float64(nil), s.c...)
	res.Selected = TopWeights(s.c, cfg.P)
	return res, nil
}

// TopWeights returns the indices of the p largest weights, descending,
// breaking ties by ascending index for determinism.
func TopWeights(c []float64, p int) []int {
	idx := make([]int, len(c))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if c[idx[a]] != c[idx[b]] {
			return c[idx[a]] > c[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if p > len(idx) {
		p = len(idx)
	}
	return append([]int(nil), idx[:p]...)
}

// state carries one DSPM run. The configuration z of Algorithm 1 is not
// materialized: z_ir = y_ir * c_r, so the feature sets plus c determine
// it implicitly.
type state struct {
	idx   *vecspace.Index
	delta [][]float64
	cfg   Config
	n, m  int
	c     []float64
	// spare is the weight buffer updateC fills; it swaps with c.
	spare []float64

	// words is ⌈m/64⌉; graph i's feature set Y_i is packed into
	// feats[i*words : (i+1)*words], bit r set when g_i contains f_r.
	words int
	feats []uint64
	// c2[r] = c[r]², and dist holds d(z_i, z_j) for every pair i < j in
	// row-major upper-triangle order; fillDist refreshes both whenever c
	// changes, so computeObj and the next updateXbar share one pass.
	c2   []float64
	dist []float64
	// b (n×n, row-major) and xbar (n×m) are updateXbar's buffers, reused
	// across iterations.
	b    []float64
	xbar [][]float64
}

func newState(idx *vecspace.Index, delta [][]float64, cfg Config) *state {
	n, m := idx.N, idx.P
	s := &state{idx: idx, delta: delta, cfg: cfg, n: n, m: m}
	s.words = (m + 63) / 64
	s.feats = make([]uint64, n*s.words)
	for i, list := range idx.IG {
		row := s.feats[i*s.words:]
		for _, r := range list {
			row[r>>6] |= 1 << (r & 63)
		}
	}
	s.c = make([]float64, m)
	s.spare = make([]float64, m)
	s.c2 = make([]float64, m)
	s.dist = make([]float64, n*(n-1)/2)
	s.b = make([]float64, n*n)
	flat := make([]float64, n*m)
	s.xbar = make([][]float64, n)
	for i := range s.xbar {
		s.xbar[i] = flat[i*m : (i+1)*m : (i+1)*m]
	}
	return s
}

// has reports y_ir: whether graph i contains feature r.
func (s *state) has(i, r int) bool {
	return s.feats[i*s.words+r>>6]>>(r&63)&1 != 0
}

// fillDist computes d(z_i, z_j) = sqrt(Σ_{r: y_ir≠y_jr} c_r²) for every
// pair under the current c (Algorithm 4's inner loop). The XOR of the two
// packed feature sets is the symmetric difference; its set bits are
// visited in ascending r — the order a merge walk of the two sorted
// feature lists adds in — so every distance is bit-identical to that walk.
func (s *state) fillDist() {
	for r, cr := range s.c {
		s.c2[r] = cr * cr
	}
	w, k := s.words, 0
	for i := 0; i < s.n; i++ {
		fi := s.feats[i*w : (i+1)*w]
		for j := i + 1; j < s.n; j++ {
			fj := s.feats[j*w : (j+1)*w]
			sum := 0.0
			for x, word := range fi {
				c2 := s.c2[x*64:]
				for diff := word ^ fj[x]; diff != 0; diff &= diff - 1 {
					sum += c2[bits.TrailingZeros64(diff)]
				}
			}
			s.dist[k] = math.Sqrt(sum)
			k++
		}
	}
}

// pairDistanceDense computes the same distance by scanning all m features.
func (s *state) pairDistanceDense(i, j int) float64 {
	inI := memberSet(s.idx.IG[i], s.m)
	inJ := memberSet(s.idx.IG[j], s.m)
	sum := 0.0
	for r := 0; r < s.m; r++ {
		if inI[r] != inJ[r] {
			sum += s.c[r] * s.c[r]
		}
	}
	return math.Sqrt(sum)
}

func memberSet(list []int, m int) []bool {
	b := make([]bool, m)
	for _, r := range list {
		b[r] = true
	}
	return b
}

// computeObj is Algorithm 4: E(z) = Σ_{i,j} (d(z_i,z_j) − δ_ij)^2 over
// ordered pairs (the paper's double sum), i.e. twice the i<j sum.
func (s *state) computeObj() float64 {
	e := 0.0
	k := 0
	for i := 0; i < s.n; i++ {
		for j := i + 1; j < s.n; j++ {
			d := s.dist[k]
			k++
			if s.cfg.DenseObjective {
				d = s.pairDistanceDense(i, j)
			}
			diff := d - s.delta[i][j]
			e += 2 * diff * diff
		}
	}
	return e
}

// updateXbar is Algorithm 3: x̄_ir = (1/n) Σ_k b_ik z_kr with the Guttman
// transform weights b of Eq. (8); the sum only ranges over g_k ∈ IF_r
// because z_kr = 0 elsewhere. It reads the distances fillDist left for
// the current c and returns its reused xbar buffer.
func (s *state) updateXbar() [][]float64 {
	n := s.n
	// b matrix (Eq. 8).
	b := s.b
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := s.dist[k]
			k++
			var v float64
			if d != 0 {
				v = -s.delta[i][j] / d
			}
			b[i*n+j] = v
			b[j*n+i] = v
		}
	}
	for i := 0; i < n; i++ {
		row := b[i*n : (i+1)*n]
		diag := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				diag -= row[j]
			}
		}
		row[i] = diag
	}

	xbar := s.xbar
	if s.cfg.DenseXbar {
		// Ablation: ignore the IF lists and walk every graph for every
		// feature, multiplying by z_kr (mostly zero).
		for i := 0; i < n; i++ {
			row := b[i*n : (i+1)*n]
			for r := 0; r < s.m; r++ {
				sum := 0.0
				for k := 0; k < n; k++ {
					sum += row[k] * s.z(k, r)
				}
				xbar[i][r] = sum / float64(n)
			}
		}
		return xbar
	}
	// Algorithm 3: skip graphs outside IF_r (their z_kr is zero).
	inv := 1 / float64(n)
	for r := 0; r < s.m; r++ {
		cr := s.c[r]
		if cr == 0 {
			for i := 0; i < n; i++ {
				xbar[i][r] = 0
			}
			continue
		}
		list := s.idx.IF[r]
		for i := 0; i < n; i++ {
			sum := 0.0
			bi := b[i*n : (i+1)*n]
			for _, k := range list {
				sum += bi[k]
			}
			xbar[i][r] = sum * cr * inv
		}
	}
	return xbar
}

// z returns z_kr = y_kr * c_r.
func (s *state) z(k, r int) float64 {
	list := s.idx.IG[k]
	pos := sort.SearchInts(list, r)
	if pos < len(list) && list[pos] == r {
		return s.c[r]
	}
	return 0
}

// updateC computes the next weight vector. The default path is Algorithm 2
// (the simplified Eq. (9) of Theorem 5.1), written into s.spare; the naive
// path evaluates Eq. (7) directly over all graph pairs.
func (s *state) updateC(xbar [][]float64) []float64 {
	if s.cfg.NaiveUpdateC {
		return s.updateCNaive(xbar)
	}
	n := s.n
	c := s.spare
	for r := 0; r < s.m; r++ {
		sup := len(s.idx.IF[r])
		if sup == 0 || sup == n {
			// Degenerate feature: y_ir is constant, Eq. (7)'s denominator
			// vanishes and the feature carries no distance information.
			c[r] = 0
			continue
		}
		denom := float64(sup) * float64(n-sup)
		num := 0.0
		for i := 0; i < n; i++ {
			y := 0.0
			if s.has(i, r) {
				y = 1
			}
			num += xbar[i][r] * (float64(n)*y - float64(sup))
		}
		c[r] = num / denom
	}
	return c
}

// updateCNaive evaluates Eq. (7) directly:
// c_r = Σ_{i,j} (x̄_ir − x̄_jr)(y_ir − y_jr) / Σ_{i,j} (y_ir − y_jr)^2.
func (s *state) updateCNaive(xbar [][]float64) []float64 {
	n := s.n
	c := make([]float64, s.m)
	for r := 0; r < s.m; r++ {
		inIF := memberSet(s.idx.IF[r], n)
		num, den := 0.0, 0.0
		for i := 0; i < n; i++ {
			yi := 0.0
			if inIF[i] {
				yi = 1
			}
			for j := 0; j < n; j++ {
				yj := 0.0
				if inIF[j] {
					yj = 1
				}
				num += (xbar[i][r] - xbar[j][r]) * (yi - yj)
				den += (yi - yj) * (yi - yj)
			}
		}
		if den == 0 {
			c[r] = 0
			continue
		}
		c[r] = num / den
	}
	return c
}
