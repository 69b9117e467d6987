package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"

	"donorsense/internal/mat"
)

// KMeansResult is the outcome of one K-Means run.
type KMeansResult struct {
	K          int
	Centroids  [][]float64
	Labels     []int
	Inertia    float64 // sum of squared distances to assigned centroids
	Iterations int
	Sizes      []int // points per cluster
}

// KMeansConfig parameterizes a K-Means run.
type KMeansConfig struct {
	K int
	// MaxIterations bounds Lloyd iterations (default 100).
	MaxIterations int
	// Tolerance stops iteration when no centroid moves more than this
	// (squared distance; default 1e-9).
	Tolerance float64
	// Seed drives the k-means++ initialization.
	Seed uint64
	// Restarts runs the algorithm this many times with different seeds
	// and keeps the lowest-inertia result (default 1).
	Restarts int
	// Workers bounds the concurrency of the assignment pass and of the
	// restarts (0 = GOMAXPROCS). Any worker count produces bit-identical
	// results: the assignment pass reduces over fixed-size row chunks
	// whose partial sums are folded in chunk order, never in scheduling
	// order.
	Workers int
}

// assignChunkRows is the fixed row-chunk granularity of the assignment
// pass. It is deliberately independent of the worker count: the chunk
// decomposition (and therefore every floating-point fold) is identical
// whether one goroutine walks the chunks or eight do.
const assignChunkRows = 1024

// KMeans clusters the rows into cfg.K clusters using k-means++
// initialization and Lloyd's algorithm with Hamerly's triangle-
// inequality pruning. This is the algorithm behind the paper's Figure 7
// user clustering (k = 12, chosen via silhouette / inertia /
// average-cluster-size sweeps). It copies rows into a flat matrix once;
// callers that already hold a *mat.Dense should use KMeansDense, which
// runs zero-copy.
func KMeans(rows [][]float64, cfg KMeansConfig) (*KMeansResult, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("cluster: kmeans on empty data")
	}
	m, err := denseFromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("cluster: kmeans: %w", err)
	}
	return KMeansDense(m, cfg)
}

// KMeansDense is KMeans over a flat row-major matrix, without copying
// the data. It runs on the matrix's weighted distinct-row view (see
// rowView): the same k-means++ picks, labels, sizes and — to the last
// few ulps — inertia and centroids as Lloyd over every row, at a cost
// that scales with the distinct rows rather than the users.
func KMeansDense(m *mat.Dense, cfg KMeansConfig) (*KMeansResult, error) {
	if err := checkK(cfg.K, m.Rows()); err != nil {
		return nil, err
	}
	v := newRowView(m, nil)
	res := kmeansView(&v, cfg)
	res.Labels = v.expand(res.Labels)
	return res, nil
}

// checkK rejects a cluster count outside [1, n].
func checkK(k, n int) error {
	if k < 1 || k > n {
		return fmt.Errorf("cluster: kmeans k=%d with n=%d", k, n)
	}
	return nil
}

// kmeansView runs cfg.Restarts cold K-Means restarts over the view and
// returns the lowest-inertia one, with labels per distinct row.
// cfg.K must already be validated against v.users.
func kmeansView(v *rowView, cfg KMeansConfig) *KMeansResult {
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = 100
	}
	tol := cfg.Tolerance
	if tol <= 0 {
		tol = 1e-9
	}
	restarts := cfg.Restarts
	if restarts <= 0 {
		restarts = 1
	}
	workers := resolveWorkers(cfg.Workers)

	// Restarts are independent runs (each owns its PCG stream), so they
	// run concurrently; each still chunk-parallelizes its assignment
	// pass. The best pick scans attempts in order with a strict <, so
	// the earliest attempt wins inertia ties exactly as a sequential
	// loop would.
	results := make([]*KMeansResult, restarts)
	parallelChunks(restarts, workers, func(attempt int) {
		r := rand.New(rand.NewPCG(cfg.Seed, uint64(attempt)))
		results[attempt] = kmeansOnce(v, cfg.K, maxIter, tol, r, workers)
	})
	best := results[0]
	for _, res := range results[1:] {
		if res.Inertia < best.Inertia {
			best = res
		}
	}
	return best
}

// kmeansRun is the per-restart state of the pruned Lloyd iteration. All
// per-point slices are chunk-owned during parallel passes; all global
// reductions fold per-chunk partials in chunk index order, making every
// run bit-identical for any worker count.
type kmeansRun struct {
	data    []float64 // n×dim row-major points
	weight  []int     // multiplicity per point; nil means every weight is 1
	n, dim  int
	k       int
	workers int

	pos    []float64 // k×dim current centroid positions
	oldPos []float64 // k×dim scratch for the previous positions
	sums   []float64 // k×dim running per-cluster vector sums
	counts []int     // weighted points per cluster (maintained incrementally)

	labels []int
	upper  []float64 // u(i): upper bound on d(x_i, pos[labels[i]])
	lower  []float64 // l(i): lower bound on d(x_i, second-closest centroid)

	half  []float64 // s(c): half the distance from c to its nearest other centroid
	drift []float64 // per-centroid movement of the last update

	parts []kmeansChunk
}

// kmeansChunk is one chunk's contribution to a pass: vector-sum and
// count deltas from reassignments, plus the chunk's farthest-point
// candidate for empty-cluster repair.
type kmeansChunk struct {
	deltaSums []float64 // k×dim
	deltaCnt  []int     // k
	farIdx    int
	farD      float64
}

// newKMeansRun allocates the per-run state for n×dim points (weight
// nil = unweighted) starting from the given k×dim centroid positions.
func newKMeansRun(data []float64, weight []int, n, dim, k, workers int, pos []float64) *kmeansRun {
	run := &kmeansRun{
		data: data, weight: weight, n: n, dim: dim, k: k, workers: workers,
		pos:    pos,
		oldPos: make([]float64, k*dim),
		sums:   make([]float64, k*dim),
		counts: make([]int, k),
		labels: make([]int, n),
		upper:  make([]float64, n),
		lower:  make([]float64, n),
		half:   make([]float64, k),
		drift:  make([]float64, k),
	}
	nChunks := (n + assignChunkRows - 1) / assignChunkRows
	run.parts = make([]kmeansChunk, nChunks)
	for i := range run.parts {
		run.parts[i] = kmeansChunk{deltaSums: make([]float64, k*dim), deltaCnt: make([]int, k)}
	}
	return run
}

// kmeansOnce is one cold restart over the view: k-means++ over the
// users, then weighted Lloyd over the distinct rows. Labels are per
// distinct row.
func kmeansOnce(v *rowView, k, maxIter int, tol float64, r *rand.Rand, workers int) *KMeansResult {
	dim := v.dim
	run := newKMeansRun(v.data, v.weight, v.rows, dim, k, workers, kmeansPlusPlusInit(v, k, r))
	run.initialAssign()
	iter := 0
	for ; iter < maxIter; iter++ {
		run.refreshHalf()
		run.assignPruned()
		if moved := run.updateCentroids(); moved <= tol {
			break
		}
	}
	labels, sizes, inertia := run.finalAssign()
	cents := make([][]float64, k)
	for c := range cents {
		cents[c] = run.pos[c*dim : c*dim+dim : c*dim+dim]
	}
	return &KMeansResult{
		K:          k,
		Centroids:  cents,
		Labels:     labels,
		Inertia:    inertia,
		Iterations: iter + 1,
		Sizes:      sizes,
	}
}

// initialAssign runs one exact pass: every point finds its two closest
// centroids, seeding labels, both bounds, and the per-cluster sums.
func (run *kmeansRun) initialAssign() {
	parallelChunks(len(run.parts), run.workers, func(c int) {
		p := &run.parts[c]
		lo, hi := run.chunkBounds(c)
		run.resetChunk(p)
		for i := lo; i < hi; i++ {
			row := run.row(i)
			bi, bd, sd := run.closestTwo(row)
			run.labels[i] = bi
			run.upper[i] = math.Sqrt(bd)
			run.lower[i] = math.Sqrt(sd)
			w := run.w(i)
			p.deltaCnt[bi] += w
			addScaled(p.deltaSums[bi*run.dim:(bi+1)*run.dim], row, float64(w))
		}
	})
	run.foldDeltas()
}

// assignPruned is the Hamerly-pruned assignment pass. A point whose
// upper bound stays below max(s(label), lower) provably keeps its
// assignment and skips the centroid scan entirely; everything else
// tightens its upper bound and, if still unresolved, rescans exactly.
// Reassignments are folded as per-chunk sum/count deltas in chunk order.
func (run *kmeansRun) assignPruned() {
	parallelChunks(len(run.parts), run.workers, func(c int) {
		p := &run.parts[c]
		lo, hi := run.chunkBounds(c)
		run.resetChunk(p)
		maxDrift := 0.0
		for _, d := range run.drift {
			if d > maxDrift {
				maxDrift = d
			}
		}
		for i := lo; i < hi; i++ {
			a := run.labels[i]
			// Carry the bounds across the last centroid move.
			u := run.upper[i] + run.drift[a]
			l := run.lower[i] - maxDrift
			m := run.half[a]
			if l > m {
				m = l
			}
			if u <= m {
				run.upper[i], run.lower[i] = u, l
				if u > p.farD {
					p.farD, p.farIdx = u, i
				}
				continue
			}
			row := run.row(i)
			// Tighten: the exact distance may already satisfy the bound.
			u = math.Sqrt(sqDistTo(row, run.pos[a*run.dim:(a+1)*run.dim]))
			if u <= m {
				run.upper[i], run.lower[i] = u, l
				if u > p.farD {
					p.farD, p.farIdx = u, i
				}
				continue
			}
			bi, bd, sd := run.closestTwo(row)
			run.upper[i] = math.Sqrt(bd)
			run.lower[i] = math.Sqrt(sd)
			if run.upper[i] > p.farD {
				p.farD, p.farIdx = run.upper[i], i
			}
			if bi != a {
				run.labels[i] = bi
				w := run.w(i)
				p.deltaCnt[a] -= w
				p.deltaCnt[bi] += w
				dim := run.dim
				addScaled(p.deltaSums[a*dim:(a+1)*dim], row, -float64(w))
				addScaled(p.deltaSums[bi*dim:(bi+1)*dim], row, float64(w))
			}
		}
	})
	run.foldDeltas()
}

// updateCentroids recomputes positions from the running sums, repairs
// empty clusters at the farthest-by-bound point, and records per-
// centroid drift for the next pass's bound updates. It returns the
// total squared movement (the Lloyd convergence measure).
func (run *kmeansRun) updateCentroids() float64 {
	dim := run.dim
	copy(run.oldPos, run.pos)
	// Farthest candidate folded in chunk order: lowest index wins ties.
	farIdx, farD := 0, -1.0
	for c := range run.parts {
		if run.parts[c].farD > farD {
			farD, farIdx = run.parts[c].farD, run.parts[c].farIdx
		}
	}
	moved := 0.0
	for c := 0; c < run.k; c++ {
		nc := run.pos[c*dim : (c+1)*dim]
		if run.counts[c] == 0 {
			// Empty cluster: re-seed at the point farthest from its
			// centroid (by the maintained bound), the standard repair.
			copy(nc, run.row(farIdx))
			run.drift[c] = math.Sqrt(sqDistTo(run.oldPos[c*dim:(c+1)*dim], nc))
			moved += 1 // force another iteration
			continue
		}
		inv := 1 / float64(run.counts[c])
		sums := run.sums[c*dim : (c+1)*dim]
		for j := range nc {
			nc[j] = sums[j] * inv
		}
		d2 := sqDistTo(run.oldPos[c*dim:(c+1)*dim], nc)
		run.drift[c] = math.Sqrt(d2)
		moved += d2
	}
	return moved
}

// finalAssign runs one exact pass against the final centroids and
// returns fresh labels, weighted sizes, and the exact inertia Σ w·d²,
// folded in chunk order.
func (run *kmeansRun) finalAssign() ([]int, []int, float64) {
	type finalPart struct {
		sizes   []int
		inertia float64
	}
	parts := make([]finalPart, len(run.parts))
	parallelChunks(len(run.parts), run.workers, func(c int) {
		parts[c].sizes = make([]int, run.k)
		lo, hi := run.chunkBounds(c)
		for i := lo; i < hi; i++ {
			bi, bd, _ := run.closestTwo(run.row(i))
			run.labels[i] = bi
			w := run.w(i)
			parts[c].sizes[bi] += w
			parts[c].inertia += float64(w) * bd
		}
	})
	sizes := make([]int, run.k)
	inertia := 0.0
	for c := range parts {
		inertia += parts[c].inertia
		for i, s := range parts[c].sizes {
			sizes[i] += s
		}
	}
	return run.labels, sizes, inertia
}

// refreshHalf recomputes s(c), half the distance from each centroid to
// its nearest other centroid — the cheap O(k²) part of the Hamerly
// bound.
func (run *kmeansRun) refreshHalf() {
	dim := run.dim
	for c := 0; c < run.k; c++ {
		best := math.Inf(1)
		pc := run.pos[c*dim : (c+1)*dim]
		for o := 0; o < run.k; o++ {
			if o == c {
				continue
			}
			if d := sqDistTo(pc, run.pos[o*dim:(o+1)*dim]); d < best {
				best = d
			}
		}
		run.half[c] = 0.5 * math.Sqrt(best)
	}
}

func (run *kmeansRun) chunkBounds(c int) (int, int) {
	lo := c * assignChunkRows
	hi := lo + assignChunkRows
	if hi > run.n {
		hi = run.n
	}
	return lo, hi
}

func (run *kmeansRun) row(i int) []float64 {
	return run.data[i*run.dim : (i+1)*run.dim]
}

// w returns point i's weight.
func (run *kmeansRun) w(i int) int {
	if run.weight == nil {
		return 1
	}
	return run.weight[i]
}

func (run *kmeansRun) resetChunk(p *kmeansChunk) {
	for i := range p.deltaSums {
		p.deltaSums[i] = 0
	}
	for i := range p.deltaCnt {
		p.deltaCnt[i] = 0
	}
	p.farIdx, p.farD = 0, -1
}

// foldDeltas applies every chunk's sum/count deltas in chunk index
// order — the only place assignment results meet shared state.
func (run *kmeansRun) foldDeltas() {
	for c := range run.parts {
		p := &run.parts[c]
		for i, v := range p.deltaSums {
			run.sums[i] += v
		}
		for i, v := range p.deltaCnt {
			run.counts[i] += v
		}
	}
}

// closestTwo returns the nearest centroid index and the squared
// distances to the nearest and second-nearest centroids.
func (run *kmeansRun) closestTwo(row []float64) (int, float64, float64) {
	if run.dim == 6 {
		return closestTwo6(row, run.pos, run.k)
	}
	return closestTwoGeneric(row, run.pos, run.k, run.dim)
}

// closestTwo6 is the dim=6 scan kernel — the paper's matrices are six
// organs wide, so the Figure 7 hot loop runs fully unrolled with the
// same left-to-right summation order as the generic kernel.
func closestTwo6(row []float64, centroids []float64, k int) (int, float64, float64) {
	x := [6]float64(row[:6])
	bi, bd, sd := 0, math.Inf(1), math.Inf(1)
	for c := 0; c < k; c++ {
		cl := [6]float64(centroids[c*6 : c*6+6])
		d0 := x[0] - cl[0]
		d1 := x[1] - cl[1]
		d2 := x[2] - cl[2]
		d3 := x[3] - cl[3]
		d4 := x[4] - cl[4]
		d5 := x[5] - cl[5]
		s := d0*d0 + d1*d1 + d2*d2 + d3*d3 + d4*d4 + d5*d5
		if s < bd {
			sd, bd, bi = bd, s, c
		} else if s < sd {
			sd = s
		}
	}
	return bi, bd, sd
}

// closestTwoGeneric is the any-dimension scan kernel.
func closestTwoGeneric(row, centroids []float64, k, dim int) (int, float64, float64) {
	bi, bd, sd := 0, math.Inf(1), math.Inf(1)
	for c := 0; c < k; c++ {
		cent := centroids[c*dim : (c+1)*dim]
		s := 0.0
		for j, v := range row {
			d := v - cent[j]
			s += d * d
		}
		if s < bd {
			sd, bd, bi = bd, s, c
		} else if s < sd {
			sd = s
		}
	}
	return bi, bd, sd
}

// sqDistTo is the squared Euclidean distance between two equal-length
// flat vectors, without the public Distance guard (callers here slice
// from the same matrices).
func sqDistTo(a, b []float64) float64 {
	s := 0.0
	for j, v := range a {
		d := v - b[j]
		s += d * d
	}
	return s
}

// addScaled adds w·src to dst. A weight of ±1 is exact (w·x = ±x), so
// an unweighted run sums exactly as plain additions would.
func addScaled(dst, src []float64, w float64) {
	for j, v := range src {
		dst[j] += w * v
	}
}

// kmeansPlusPlusInit seeds centroids with the k-means++ scheme: first
// centroid uniform, each next one sampled proportionally to the squared
// distance from the nearest already-chosen centroid. The draw walks the
// users, not the distinct rows, looking each user's d² up by its row:
// the RNG calls, the order of the total's summation and every pick are
// those of the historical per-user implementation, so seeds keep
// selecting the same starting points. Only the d² updates run per row.
func kmeansPlusPlusInit(v *rowView, k int, r *rand.Rand) []float64 {
	n, dim := v.users, v.dim
	centroids := make([]float64, dim, k*dim)
	copy(centroids, v.row(v.rowOf(r.IntN(n))))

	d2 := make([]float64, v.rows)
	last := centroids[:dim]
	for i := range d2 {
		d2[i] = sqDistTo(v.row(i), last)
	}
	for chosen := 1; chosen < k; chosen++ {
		total := 0.0
		for i := 0; i < n; i++ {
			total += d2[v.rowOf(i)]
		}
		var idx int
		if total == 0 {
			// All remaining points coincide with centroids; pick uniform.
			idx = r.IntN(n)
		} else {
			x := r.Float64() * total
			for i := 0; i < n; i++ {
				x -= d2[v.rowOf(i)]
				if x <= 0 {
					idx = i
					break
				}
			}
		}
		centroids = append(centroids, v.row(v.rowOf(idx))...)
		last = centroids[chosen*dim : (chosen+1)*dim]
		for i := range d2 {
			if d := sqDistTo(v.row(i), last); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}
