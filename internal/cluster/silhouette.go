package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"

	"donorsense/internal/mat"
)

// silhouetteChunkPoints is the fixed sample-chunk granularity of the
// silhouette pass. Like assignChunkRows it is independent of the worker
// count, so the decomposition is identical for any parallelism.
const silhouetteChunkPoints = 64

// Silhouette computes the mean silhouette coefficient of a labelling
// under the given distance, exactly.
func Silhouette(rows [][]float64, labels []int, d Distance) (float64, error) {
	return silhouetteRows(rows, labels, d, nil)
}

// SilhouetteDense is Silhouette over a flat row-major matrix, without
// copying the data, fanned out across workers (0 = GOMAXPROCS). Results
// are bit-identical for every worker count. The cost is O(r²) distance
// evaluations for r distinct (row, label) pairs, so a matrix of few
// distinct rows is cheap at any user count.
func SilhouetteDense(m *mat.Dense, labels []int, d Distance, workers int) (float64, error) {
	return silhouetteDense(m, labels, d, nil, workers)
}

// SilhouetteSampled averages the silhouette coefficient over a random
// sample of at most sampleSize points (deterministic for a given seed).
// Each sampled point's coefficient is still exact — a(i)/b(i) run over
// the whole dataset — only the averaging is sampled.
func SilhouetteSampled(rows [][]float64, labels []int, d Distance, sampleSize int, seed uint64) (float64, error) {
	return silhouetteRows(rows, labels, d, sampleUsers(len(rows), sampleSize, seed))
}

// SilhouetteSampledDense is SilhouetteSampled over a flat matrix.
func SilhouetteSampledDense(m *mat.Dense, labels []int, d Distance, sampleSize int, seed uint64, workers int) (float64, error) {
	return silhouetteDense(m, labels, d, sampleUsers(m.Rows(), sampleSize, seed), workers)
}

// sampleUsers draws the silhouette sample: sampleSize seeded user
// indices, or nil (every user) when sampleSize is 0 or covers them all.
func sampleUsers(n, sampleSize int, seed uint64) []int {
	if sampleSize <= 0 || sampleSize >= n {
		return nil
	}
	r := rand.New(rand.NewPCG(seed, 0x51))
	return r.Perm(n)[:sampleSize]
}

func silhouetteRows(rows [][]float64, labels []int, d Distance, sample []int) (float64, error) {
	if len(rows) != len(labels) {
		return 0, fmt.Errorf("cluster: %d rows, %d labels", len(rows), len(labels))
	}
	m, err := denseFromRows(rows)
	if err != nil {
		return 0, fmt.Errorf("cluster: silhouette: %w", err)
	}
	return silhouetteDense(m, labels, d, sample, 0)
}

// silhouetteDense validates a per-user labelling and scores it on the
// (row, label) view of m.
func silhouetteDense(m *mat.Dense, labels []int, d Distance, sample []int, workers int) (float64, error) {
	if m.Rows() != len(labels) {
		return 0, fmt.Errorf("cluster: %d rows, %d labels", m.Rows(), len(labels))
	}
	v := newRowView(m, labels)
	return silhouetteView(&v, v.labels, d, sample, workers)
}

// labelCount returns max label + 1, rejecting negative labels and
// labellings with fewer than two clusters.
func labelCount(labels []int) (int, error) {
	k := 0
	for _, l := range labels {
		if l < 0 {
			return 0, fmt.Errorf("cluster: negative label")
		}
		if l+1 > k {
			k = l + 1
		}
	}
	if k < 2 {
		return 0, fmt.Errorf("cluster: silhouette needs at least 2 clusters")
	}
	return k, nil
}

// silhouetteView computes the mean silhouette over the given sampled
// users (nil means all users) of a view whose row r carries label
// labels[r]. Every user of a view row shares its row and label, hence
// its coefficient, so the pass scores each needed view row once:
// against another row the distance counts with that row's weight, and
// against its own row with weight − 1 (the user's duplicates, not the
// user itself). With no repeats every weight is 1, and the pass is the
// plain per-user O(n²) silhouette, float for float.
//
// The scoring is a chunked parallel sweep: each chunk of needed rows
// accumulates per-cluster distance sums (O(workers·k) scratch) over all
// view rows in ascending order and writes per-row coefficients into its
// own slots. The mean then folds the coefficients user by user, in user
// (or sample) order. Every float operation therefore happens in the same
// order for any worker count.
func silhouetteView(v *rowView, labels []int, d Distance, sample []int, workers int) (float64, error) {
	k, err := labelCount(labels)
	if err != nil {
		return 0, err
	}
	counts := make([]int, k)
	for r, l := range labels {
		counts[l] += v.w(r)
	}
	// targets lists the rows the sampled users map to; nil means every
	// row is needed.
	var targets []int32
	if sample != nil {
		needed := make([]bool, v.rows)
		targets = make([]int32, 0, len(sample))
		for _, i := range sample {
			if r := v.rowOf(i); !needed[r] {
				needed[r] = true
				targets = append(targets, int32(r))
			}
		}
	}
	nTargets := v.rows
	if targets != nil {
		nTargets = len(targets)
	}

	data, dim, weight := v.data, v.dim, v.weight
	vals := make([]float64, v.rows)
	valid := make([]bool, v.rows)
	nChunks := (nTargets + silhouetteChunkPoints - 1) / silhouetteChunkPoints
	parallelChunks(nChunks, resolveWorkers(workers), func(c int) {
		sums := make([]float64, k)
		lo := c * silhouetteChunkPoints
		hi := min(lo+silhouetteChunkPoints, nTargets)
		for t := lo; t < hi; t++ {
			i := t
			if targets != nil {
				i = int(targets[t])
			}
			li := labels[i]
			if counts[li] < 2 {
				continue // silhouette undefined for singleton's member
			}
			for c := range sums {
				sums[c] = 0
			}
			ri := data[i*dim : i*dim+dim]
			if weight == nil {
				for j, lj := range labels {
					if j != i {
						sums[lj] += d(ri, data[j*dim:j*dim+dim])
					}
				}
			} else {
				for j, lj := range labels {
					w := weight[j]
					if j == i {
						w-- // the user's duplicates, not the user
						if w == 0 {
							continue
						}
					}
					sums[lj] += float64(w) * d(ri, data[j*dim:j*dim+dim])
				}
			}
			a := sums[li] / float64(counts[li]-1)
			b := math.Inf(1)
			for c := 0; c < k; c++ {
				if c == li || counts[c] == 0 {
					continue
				}
				if x := sums[c] / float64(counts[c]); x < b {
					b = x
				}
			}
			valid[i] = true
			if den := math.Max(a, b); den > 0 {
				vals[i] = (b - a) / den
			}
		}
	})
	sum := 0.0
	used := 0
	add := func(user int) {
		if r := v.rowOf(user); valid[r] {
			sum += vals[r]
			used++
		}
	}
	if sample != nil {
		for _, i := range sample {
			add(i)
		}
	} else {
		for i := 0; i < v.users; i++ {
			add(i)
		}
	}
	if used == 0 {
		return 0, fmt.Errorf("cluster: no valid silhouette points")
	}
	return sum / float64(used), nil
}

// SweepResult summarizes one k in a model-selection sweep.
type SweepResult struct {
	K          int
	Inertia    float64
	Silhouette float64
	AvgSize    float64
	MinSize    int
}

// SweepK runs K-Means for each k in ks and reports the selection metrics
// the paper compares (inertia, silhouette coefficient, average cluster
// size). silhouetteSample bounds the silhouette computation (0 = exact).
func SweepK(rows [][]float64, ks []int, seed uint64, silhouetteSample int) ([]SweepResult, error) {
	if len(ks) == 0 {
		return nil, nil
	}
	m, err := denseFromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("cluster: sweep: %w", err)
	}
	return SweepKDense(m, ks, seed, silhouetteSample, 0)
}

// SweepKDense is SweepK over a flat matrix. It builds the matrix's
// distinct-row view once and shares it across every k: each fit is a
// weighted K-Means over the distinct rows and each silhouette scores
// distinct rows, so the sweep's cost follows the distinct rows, not the
// users (see rowView). The candidate ks are independent model fits, so
// they run concurrently across workers (0 = GOMAXPROCS); each k writes
// only its own result slot, keeping the sweep deterministic for any
// worker count.
func SweepKDense(m *mat.Dense, ks []int, seed uint64, silhouetteSample int, workers int) ([]SweepResult, error) {
	n := m.Rows()
	v := newRowView(m, nil)
	sample := sampleUsers(n, silhouetteSample, seed)
	out := make([]SweepResult, len(ks))
	errs := make([]error, len(ks))
	w := resolveWorkers(workers)
	parallelChunks(len(ks), w, func(i int) {
		k := ks[i]
		if err := checkK(k, n); err != nil {
			errs[i] = fmt.Errorf("cluster: sweep k=%d: %w", k, err)
			return
		}
		res := kmeansView(&v, KMeansConfig{K: k, Seed: seed, Restarts: 2, Workers: workers})
		// Lloyd labels are a function of the row, so the fit's per-row
		// labels key the (row, label) view directly.
		sil, err := silhouetteView(&v, res.Labels, Euclidean, sample, workers)
		if err != nil {
			errs[i] = fmt.Errorf("cluster: sweep silhouette k=%d: %w", k, err)
			return
		}
		minSize := res.Sizes[0]
		for _, s := range res.Sizes {
			if s < minSize {
				minSize = s
			}
		}
		out[i] = SweepResult{
			K:          k,
			Inertia:    res.Inertia,
			Silhouette: sil,
			AvgSize:    float64(n) / float64(k),
			MinSize:    minSize,
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
