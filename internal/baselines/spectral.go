package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/linalg"
	"repro/internal/vecspace"
)

// Shared spectral machinery for MCFS, UDFS and NDFS: the data matrix X
// (graphs × features, binary), a k-nearest-neighbour similarity graph
// with heat-kernel weights, and its (normalized) Laplacian.

// dataMatrix materializes the n×m binary matrix Y.
func dataMatrix(idx *vecspace.Index) *linalg.Matrix {
	x := linalg.NewMatrix(idx.N, idx.P)
	for r := 0; r < idx.P; r++ {
		for _, i := range idx.IF[r] {
			x.Set(i, r, 1)
		}
	}
	return x
}

// knnAffinity builds a symmetric kNN affinity matrix with heat-kernel
// weights exp(-||xi-xj||^2 / (2σ^2)), σ = mean pairwise distance.
func knnAffinity(x *linalg.Matrix, k int) *linalg.Matrix {
	n := x.Rows
	if k >= n {
		k = n - 1
	}
	dist := make([][]float64, n)
	total, cnt := 0.0, 0
	for i := 0; i < n; i++ {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := 0.0
			ri, rj := x.Row(i), x.Row(j)
			for t := range ri {
				dd := ri[t] - rj[t]
				d += dd * dd
			}
			d = math.Sqrt(d)
			dist[i][j] = d
			dist[j][i] = d
			total += d
			cnt++
		}
	}
	sigma := 1.0
	if cnt > 0 && total > 0 {
		sigma = total / float64(cnt)
	}
	w := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		// k nearest neighbours of i.
		type nd struct {
			j int
			d float64
		}
		ds := make([]nd, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				ds = append(ds, nd{j, dist[i][j]})
			}
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a].d < ds[b].d })
		for t := 0; t < k && t < len(ds); t++ {
			j := ds[t].j
			wij := math.Exp(-dist[i][j] * dist[i][j] / (2 * sigma * sigma))
			if wij > w.At(i, j) {
				w.Set(i, j, wij)
				w.Set(j, i, wij)
			}
		}
	}
	return w
}

// laplacian returns L = D − W and the degree vector.
func laplacian(w *linalg.Matrix) (*linalg.Matrix, []float64) {
	n := w.Rows
	l := linalg.NewMatrix(n, n)
	deg := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += w.At(i, j)
			l.Set(i, j, -w.At(i, j))
		}
		deg[i] = s
		l.Set(i, i, s+l.At(i, i))
	}
	return l, deg
}

// spectralEmbedding computes the K eigenvectors of the normalized
// Laplacian D^{-1/2} L D^{-1/2} with the smallest nontrivial eigenvalues.
func spectralEmbedding(w *linalg.Matrix, k int) (*linalg.Matrix, error) {
	n := w.Rows
	l, deg := laplacian(w)
	norm := linalg.NewMatrix(n, n)
	inv := make([]float64, n)
	for i := range inv {
		if deg[i] > 0 {
			inv[i] = 1 / math.Sqrt(deg[i])
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			norm.Set(i, j, inv[i]*l.At(i, j)*inv[j])
		}
	}
	vals, vecs, err := linalg.EigSym(norm)
	if err != nil {
		return nil, err
	}
	_ = vals
	if k > n-1 {
		k = n - 1
	}
	if k < 1 {
		k = 1
	}
	// Skip the trivial (near-zero) first eigenvector.
	f := linalg.NewMatrix(n, k)
	for c := 0; c < k; c++ {
		v := vecs[c+1]
		for i := 0; i < n; i++ {
			f.Set(i, c, v[i])
		}
	}
	return f, nil
}

// MCFS is Multi-Cluster Feature Selection (Cai, Zhang, He; KDD 2010):
// embed the graphs with the K smallest nontrivial Laplacian eigenvectors,
// regress each eigenvector on the features with an L1 penalty, and score
// each feature by its largest absolute coefficient across eigenvectors.
type MCFS struct {
	// Clusters is K, the number of spectral dimensions. Zero means 5.
	Clusters int
	// KNN is the neighbourhood size; zero means 5 (the paper's default,
	// also used by the VLDB experiments).
	KNN int
	// Lambda is the lasso penalty; zero means 0.01.
	Lambda float64
}

// Name implements Selector.
func (MCFS) Name() string { return "MCFS" }

// Select implements Selector.
func (mc MCFS) Select(idx *vecspace.Index, _ [][]float64, p int) ([]int, error) {
	if mc.Clusters == 0 {
		mc.Clusters = 5
	}
	if mc.KNN == 0 {
		mc.KNN = 5
	}
	if mc.Lambda == 0 {
		mc.Lambda = 0.01
	}
	if idx.N < 3 {
		return nil, fmt.Errorf("baselines: MCFS needs at least 3 graphs, got %d", idx.N)
	}
	x := dataMatrix(idx)
	w := knnAffinity(x, mc.KNN)
	f, err := spectralEmbedding(w, mc.Clusters)
	if err != nil {
		return nil, err
	}
	// Center the binary columns so the (implicitly intercept-free) lasso
	// regression is unbiased.
	xc := x.Clone()
	for j := 0; j < xc.Cols; j++ {
		mean := 0.0
		for i := 0; i < xc.Rows; i++ {
			mean += xc.At(i, j)
		}
		mean /= float64(xc.Rows)
		for i := 0; i < xc.Rows; i++ {
			xc.Set(i, j, xc.At(i, j)-mean)
		}
	}
	score := make([]float64, idx.P)
	for c := 0; c < f.Cols; c++ {
		coef := linalg.Lasso(xc, f.Col(c), mc.Lambda, 300, 1e-7)
		for r, v := range coef {
			if a := math.Abs(v); a > score[r] {
				score[r] = a
			}
		}
	}
	return topScores(score, p), nil
}

// UDFS is Unsupervised Discriminative Feature Selection (Yang et al.,
// IJCAI 2011): minimize Tr(Wᵀ M W) + γ‖W‖₂,₁ subject to WᵀW = I, where
// M = Xᵀ L X couples the feature weights to the local data structure.
// The ℓ2,1 term is handled by iteratively reweighted least squares: W is
// the c smallest eigenvectors of M + γ·D with D diagonal 1/(2‖w_i‖).
// Features are ranked by ‖w_i‖₂.
type UDFS struct {
	// Gamma is the regularization weight; zero means 0.1.
	Gamma float64
	// Clusters is c, the subspace dimension; zero means 5.
	Clusters int
	// KNN is the neighbourhood size; zero means 5.
	KNN int
	// Iters is the number of reweighting iterations; zero means 5.
	Iters int
}

// Name implements Selector.
func (UDFS) Name() string { return "UDFS" }

// Select implements Selector.
func (u UDFS) Select(idx *vecspace.Index, _ [][]float64, p int) ([]int, error) {
	if u.Gamma == 0 {
		u.Gamma = 0.1
	}
	if u.Clusters == 0 {
		u.Clusters = 5
	}
	if u.KNN == 0 {
		u.KNN = 5
	}
	if u.Iters == 0 {
		u.Iters = 5
	}
	if idx.N < 3 {
		return nil, fmt.Errorf("baselines: UDFS needs at least 3 graphs, got %d", idx.N)
	}
	x := dataMatrix(idx)
	w := knnAffinity(x, u.KNN)
	l, _ := laplacian(w)
	m := x.T().Mul(l).Mul(x) // m×m
	dim := idx.P
	d := make([]float64, dim)
	for i := range d {
		d[i] = 1
	}
	c := u.Clusters
	if c > dim {
		c = dim
	}
	var wmat [][]float64
	for it := 0; it < u.Iters; it++ {
		a := m.Clone()
		for i := 0; i < dim; i++ {
			a.Set(i, i, a.At(i, i)+u.Gamma*d[i])
		}
		// Symmetrize against accumulated numeric noise.
		for i := 0; i < dim; i++ {
			for j := i + 1; j < dim; j++ {
				v := (a.At(i, j) + a.At(j, i)) / 2
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		_, vecs, err := linalg.EigSym(a)
		if err != nil {
			return nil, err
		}
		wmat = vecs[:c] // c smallest eigenvectors, each length dim
		for i := 0; i < dim; i++ {
			norm := 0.0
			for k := 0; k < c; k++ {
				norm += wmat[k][i] * wmat[k][i]
			}
			norm = math.Sqrt(norm)
			if norm < 1e-8 {
				norm = 1e-8
			}
			d[i] = 1 / (2 * norm)
		}
	}
	score := make([]float64, dim)
	for i := 0; i < dim; i++ {
		for k := 0; k < c; k++ {
			score[i] += wmat[k][i] * wmat[k][i]
		}
	}
	return topScores(score, p), nil
}

// NDFS is Nonnegative Discriminative Feature Selection (Li et al., AAAI
// 2012): jointly learn nonnegative spectral cluster indicators F and a
// sparse regression W from features to F,
//
//	min_{F≥0,W} Tr(FᵀLF) + α(‖XW − F‖² + β‖W‖₂,₁)
//
// solved by alternating a closed-form W update (reweighted ridge) with a
// multiplicative nonnegative update on F. Features are ranked by ‖w_i‖₂.
type NDFS struct {
	// Alpha couples the spectral and regression terms; zero means 1.
	Alpha float64
	// Beta is the sparsity weight; zero means 0.1.
	Beta float64
	// Clusters is the number of latent clusters; zero means 5.
	Clusters int
	// KNN is the neighbourhood size; zero means 5.
	KNN int
	// Iters is the number of alternations; zero means 10.
	Iters int
	// Seed drives the k-means initialization of F.
	Seed int64
}

// Name implements Selector.
func (NDFS) Name() string { return "NDFS" }

// Select implements Selector.
func (nd NDFS) Select(idx *vecspace.Index, _ [][]float64, p int) ([]int, error) {
	if nd.Alpha == 0 {
		nd.Alpha = 1
	}
	if nd.Beta == 0 {
		nd.Beta = 0.1
	}
	if nd.Clusters == 0 {
		nd.Clusters = 5
	}
	if nd.KNN == 0 {
		nd.KNN = 5
	}
	if nd.Iters == 0 {
		nd.Iters = 10
	}
	if idx.N < 3 {
		return nil, fmt.Errorf("baselines: NDFS needs at least 3 graphs, got %d", idx.N)
	}
	n, m := idx.N, idx.P
	x := dataMatrix(idx)
	wAff := knnAffinity(x, nd.KNN)
	l, _ := laplacian(wAff)

	c := nd.Clusters
	if c > n {
		c = n
	}
	// Initialize F from k-means cluster indicators (+ small floor to stay
	// strictly positive for the multiplicative updates).
	rng := rand.New(rand.NewSource(nd.Seed))
	assign, _ := linalg.KMeans(x, c, 30, rng)
	f := linalg.NewMatrix(n, c)
	for i := 0; i < n; i++ {
		for k := 0; k < c; k++ {
			f.Set(i, k, 0.1)
		}
		f.Set(i, assign[i], 1)
	}

	d := make([]float64, m)
	for i := range d {
		d[i] = 1
	}
	var wmat *linalg.Matrix
	for it := 0; it < nd.Iters; it++ {
		// W = (XᵀX + β D)^{-1} Xᵀ F, column by column via Cholesky.
		a := x.T().Mul(x)
		for i := 0; i < m; i++ {
			a.Set(i, i, a.At(i, i)+nd.Beta*d[i]+1e-8)
		}
		chol, err := linalg.Factor(a)
		if err != nil {
			return nil, err
		}
		xt := x.T()
		wmat = linalg.NewMatrix(m, c)
		for k := 0; k < c; k++ {
			col, err := chol.Solve(xt.MulVec(f.Col(k)))
			if err != nil {
				return nil, err
			}
			for i := 0; i < m; i++ {
				wmat.Set(i, k, col[i])
			}
		}
		// Update the reweighting diagonal from the row norms of W.
		for i := 0; i < m; i++ {
			norm := linalg.Norm2(wmat.Row(i))
			if norm < 1e-8 {
				norm = 1e-8
			}
			d[i] = 1 / (2 * norm)
		}
		// Multiplicative update of F ≥ 0:
		// F ← F ⊙ (αXW + [LF]⁻) / (LF⁺ + αF), splitting L into positive
		// and negative parts to keep both numerator and denominator
		// nonnegative.
		xw := x.Mul(wmat)
		lf := l.Mul(f)
		for i := 0; i < n; i++ {
			for k := 0; k < c; k++ {
				pos, neg := 0.0, 0.0
				if v := lf.At(i, k); v > 0 {
					pos = v
				} else {
					neg = -v
				}
				num := nd.Alpha*math.Max(xw.At(i, k), 0) + neg
				den := pos + nd.Alpha*f.At(i, k) + 1e-12
				f.Set(i, k, f.At(i, k)*num/den)
			}
		}
	}
	score := make([]float64, m)
	for i := 0; i < m; i++ {
		score[i] = linalg.Norm2(wmat.Row(i))
	}
	return topScores(score, p), nil
}

// topScores returns the indices of the p largest scores, descending, ties
// broken by index.
func topScores(score []float64, p int) []int {
	idx := make([]int, len(score))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if score[idx[a]] != score[idx[b]] {
			return score[idx[a]] > score[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if p > len(idx) {
		p = len(idx)
	}
	return append([]int(nil), idx[:p]...)
}
