package cluster

import (
	"fmt"
	"math"

	"donorsense/internal/mat"
)

// Warm-started clustering: the state a converged run leaves behind is
// enough to make the next run over slightly-changed data nearly free.
//
// For K-Means the state is the final centroid positions plus each
// point's label and Hamerly bounds. A caller that knows which rows
// changed keeps the survivors' entries (their bounds remain valid —
// the centroids they were proved against are exactly the positions the
// warm run starts from) and marks changed or new rows with label -1,
// which forces an exact re-assignment for just those rows. The warm run
// rebuilds the per-cluster sums in one deterministic chunk-folded pass
// and re-enters the standard pruned Lloyd loop; on an unchanged dataset
// it converges immediately, and after a small delta it typically needs
// one or two iterations in which every clean point is pruned by its
// carried bounds. Restarts are skipped — a warm run continues the
// incumbent solution rather than re-searching initializations — so
// callers fall back to the cold path (and its restarts) whenever the
// state is missing or no longer fits the data. Warm results are
// verified converged-equal, not bit-identical, against cold runs: the
// rebuilt sums can differ from the cold run's incrementally-maintained
// sums in the last ulp, so the fixed point is the same partition at
// indistinguishable inertia, reached through different float sequences.
//
// For the (≤ 51-state) agglomerative clustering the expensive part is
// the O(n²) transcendental distance evaluations, so PairwiseCache keys
// the matrix by row identity and recomputes only pairs touching dirty
// rows — the cgmlst pi/lambda idea adapted to our NN-chain: cache what
// survives, recompute what a changed row invalidates, and skip the
// chain rerun entirely when no distance changed.

// KMeansWarmState is the resumable state of a converged K-Means run.
// All slices are owned by the holder; Labels[i] == -1 marks a row whose
// data changed since the state was captured (bounds invalid, exact
// re-assignment required).
type KMeansWarmState struct {
	K         int
	Dim       int
	Centroids []float64 // k×dim final positions
	Labels    []int32   // per row; -1 = dirty/new
	Upper     []float64 // Hamerly upper bound per row
	Lower     []float64 // Hamerly lower bound per row
}

// compatible reports whether the state can seed a warm run over n×dim
// data at the configured k.
func (ws *KMeansWarmState) compatible(n, dim, k int) bool {
	return ws != nil && ws.K == k && ws.Dim == dim &&
		len(ws.Centroids) == k*dim &&
		len(ws.Labels) == n && len(ws.Upper) == n && len(ws.Lower) == n
}

// KMeansDenseWarm is KMeansDense with warm-start: when warm carries a
// compatible prior state the run resumes from it (resumed true),
// otherwise it cold-starts through KMeansDense — bit-identical to a
// direct call, restarts included. In both cases the returned state
// captures the finished run for the next resume, with exact bounds from
// the final assignment pass.
func KMeansDenseWarm(m *mat.Dense, cfg KMeansConfig, warm *KMeansWarmState) (*KMeansResult, *KMeansWarmState, bool, error) {
	n, dim := m.Rows(), m.Cols()
	if err := checkK(cfg.K, n); err != nil {
		return nil, nil, false, err
	}
	if warm.compatible(n, dim, cfg.K) {
		for _, l := range warm.Labels {
			if int(l) >= cfg.K {
				return nil, nil, false, fmt.Errorf("cluster: warm label %d out of k=%d", l, cfg.K)
			}
		}
		res, next := kmeansResume(m, cfg, warm)
		return res, next, true, nil
	}
	res, err := KMeansDense(m, cfg)
	if err != nil {
		return nil, nil, false, err
	}
	return res, captureWarm(m, res, resolveWorkers(cfg.Workers)), false, nil
}

// kmeansResume continues a run from warm state: adopt clean rows' labels
// and bounds, exactly re-assign dirty rows, rebuild sums in chunk order,
// then iterate the standard pruned loop to convergence.
func kmeansResume(m *mat.Dense, cfg KMeansConfig, warm *KMeansWarmState) (*KMeansResult, *KMeansWarmState) {
	n, dim := m.Rows(), m.Cols()
	k := cfg.K
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = 100
	}
	tol := cfg.Tolerance
	if tol <= 0 {
		tol = 1e-9
	}
	workers := resolveWorkers(cfg.Workers)

	run := newKMeansRun(m.Data(), nil, n, dim, k, workers, append([]float64(nil), warm.Centroids...))
	run.warmAssign(warm)
	iter := 0
	for ; iter < maxIter; iter++ {
		run.refreshHalf()
		run.assignPruned()
		if moved := run.updateCentroids(); moved <= tol {
			break
		}
	}
	res, next := run.finishCapture(iter + 1)
	return res, next
}

// warmAssign seeds labels, bounds, and per-cluster sums from warm state:
// clean rows adopt their stored entries, dirty rows (label -1) get an
// exact two-closest scan. Sums fold in chunk order like every other
// pass.
func (run *kmeansRun) warmAssign(warm *KMeansWarmState) {
	parallelChunks(len(run.parts), run.workers, func(c int) {
		p := &run.parts[c]
		lo, hi := run.chunkBounds(c)
		run.resetChunk(p)
		for i := lo; i < hi; i++ {
			row := run.row(i)
			if l := warm.Labels[i]; l >= 0 {
				run.labels[i] = int(l)
				run.upper[i] = warm.Upper[i]
				run.lower[i] = warm.Lower[i]
			} else {
				bi, bd, sd := run.closestTwo(row)
				run.labels[i] = bi
				run.upper[i] = math.Sqrt(bd)
				run.lower[i] = math.Sqrt(sd)
			}
			li := run.labels[i]
			p.deltaCnt[li]++
			addScaled(p.deltaSums[li*run.dim:(li+1)*run.dim], row, 1)
			if run.upper[i] > p.farD {
				p.farD, p.farIdx = run.upper[i], i
			}
		}
	})
	run.foldDeltas()
}

// finishCapture finalizes the run against the loop's last centroid
// move, building the result and the next warm state in one sweep. The
// pass is exact but Hamerly-pruned: a point whose carried bounds prove
// its label survives the final (sub-tolerance) move pays one distance
// to its own centroid — for the exact inertia term and a tight upper
// bound — instead of a k-way scan, and keeps the loop's conservative
// lower bound, which remains valid for the next resume. Only points
// the bounds cannot clear rescan exactly. On a converged run nearly
// every point prunes, making the capture O(n·dim) rather than
// O(n·k·dim) — the difference between a warm refresh that costs two
// pruned iterations and one that silently re-pays a full assignment.
func (run *kmeansRun) finishCapture(iterations int) (*KMeansResult, *KMeansWarmState) {
	k, dim := run.k, run.dim
	next := &KMeansWarmState{
		K:         k,
		Dim:       dim,
		Centroids: append([]float64(nil), run.pos...),
		Labels:    make([]int32, run.n),
		Upper:     make([]float64, run.n),
		Lower:     make([]float64, run.n),
	}
	run.refreshHalf() // half-distances against the final positions
	maxDrift := 0.0
	for _, d := range run.drift {
		if d > maxDrift {
			maxDrift = d
		}
	}
	type finalPart struct {
		sizes   []int
		inertia float64
	}
	parts := make([]finalPart, len(run.parts))
	parallelChunks(len(run.parts), run.workers, func(c int) {
		parts[c].sizes = make([]int, k)
		lo, hi := run.chunkBounds(c)
		for i := lo; i < hi; i++ {
			row := run.row(i)
			a := run.labels[i]
			u := run.upper[i] + run.drift[a]
			l := run.lower[i] - maxDrift
			m := run.half[a]
			if l > m {
				m = l
			}
			bi := a
			lower := l
			if u > m {
				// Tighten: the exact own-centroid distance may clear the
				// bound without a scan.
				u = math.Sqrt(sqDistTo(row, run.pos[a*dim:(a+1)*dim]))
				if u > m {
					var sd float64
					bi, _, sd = run.closestTwo(row)
					lower = math.Sqrt(sd)
				}
			}
			// The inertia term is always sqDistTo against the final label's
			// centroid, so the summation is identical whichever branch
			// resolved the label.
			bd := sqDistTo(row, run.pos[bi*dim:(bi+1)*dim])
			run.labels[i] = bi
			next.Labels[i] = int32(bi)
			next.Upper[i] = math.Sqrt(bd)
			next.Lower[i] = lower
			parts[c].sizes[bi]++
			parts[c].inertia += bd
		}
	})
	sizes := make([]int, k)
	inertia := 0.0
	for c := range parts {
		inertia += parts[c].inertia
		for i, s := range parts[c].sizes {
			sizes[i] += s
		}
	}
	cents := make([][]float64, k)
	for c := range cents {
		cents[c] = run.pos[c*dim : c*dim+dim : c*dim+dim]
	}
	res := &KMeansResult{
		K:          k,
		Centroids:  cents,
		Labels:     run.labels,
		Inertia:    inertia,
		Iterations: iterations,
		Sizes:      sizes,
	}
	return res, next
}

// captureWarm derives warm state from a finished cold run with one exact
// pass against its centroids — the same computation the run's own final
// pass performed, so the captured labels agree with res.Labels.
func captureWarm(m *mat.Dense, res *KMeansResult, workers int) *KMeansWarmState {
	n, dim := m.Rows(), m.Cols()
	k := res.K
	pos := make([]float64, 0, k*dim)
	for _, c := range res.Centroids {
		pos = append(pos, c...)
	}
	ws := &KMeansWarmState{
		K:         k,
		Dim:       dim,
		Centroids: pos,
		Labels:    make([]int32, n),
		Upper:     make([]float64, n),
		Lower:     make([]float64, n),
	}
	data := m.Data()
	nChunks := (n + assignChunkRows - 1) / assignChunkRows
	parallelChunks(nChunks, workers, func(c int) {
		lo := c * assignChunkRows
		hi := lo + assignChunkRows
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			row := data[i*dim : (i+1)*dim]
			var bi int
			var bd, sd float64
			if dim == 6 {
				bi, bd, sd = closestTwo6(row, pos, k)
			} else {
				bi, bd, sd = closestTwoGeneric(row, pos, k, dim)
			}
			ws.Labels[i] = int32(bi)
			ws.Upper[i] = math.Sqrt(bd)
			ws.Lower[i] = math.Sqrt(sd)
		}
	})
	return ws
}

// PairwiseCache caches a keyed pairwise-distance matrix across refreshes
// and the dendrogram built from it. Keys identify rows (state codes for
// the Figure 6 clustering); a refresh recomputes only the pairs with a
// dirty or previously-unseen endpoint and copies every clean pair from
// the cache. Distances are pure functions of their rows, so a copied
// value is bitwise what recomputation would produce — the full matrix is
// always bit-identical to PairwiseMatrixWorkers over the same rows.
type PairwiseCache struct {
	keys    []string
	index   map[string]int
	d       [][]float64
	dend    *Dendrogram
	linkage Linkage
	fresh   bool // dend matches d
}

// Refresh returns the pairwise matrix for rows/keys, reusing cached
// entries for pairs of clean keys. dirty reports whether a key's row
// changed since the previous refresh (called only for keys the cache
// knows). The returned matrix is owned by the cache; callers must not
// mutate it. changed reports whether any entry was recomputed — when
// false the matrix is the identical cached object.
func (pc *PairwiseCache) Refresh(rows [][]float64, keys []string, dirty func(key string) bool, dist Distance, workers int) (d [][]float64, changed bool, err error) {
	n := len(rows)
	if n == 0 {
		return nil, false, fmt.Errorf("cluster: pairwise of zero rows")
	}
	if len(keys) != n {
		return nil, false, fmt.Errorf("cluster: %d keys for %d rows", len(keys), n)
	}

	// Clean key = known to the cache and not dirty. If every key is
	// clean and the key order is unchanged, the cached matrix is current.
	clean := make([]bool, n)
	allSame := len(pc.keys) == n
	for i, key := range keys {
		old, known := pc.index[key]
		clean[i] = known && !dirty(key)
		if allSame && (!known || old != i || !clean[i]) {
			allSame = false
		}
	}
	if allSame {
		return pc.d, false, nil
	}

	out := make([][]float64, n)
	flat := make([]float64, n*n)
	for i := range out {
		out[i] = flat[i*n : (i+1)*n]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var v float64
			if clean[i] && clean[j] {
				v = pc.d[pc.index[keys[i]]][pc.index[keys[j]]]
			} else {
				v = dist(rows[i], rows[j])
			}
			out[i][j], out[j][i] = v, v
		}
	}

	pc.keys = append(pc.keys[:0], keys...)
	pc.index = make(map[string]int, n)
	for i, key := range keys {
		pc.index[key] = i
	}
	pc.d = out
	pc.fresh = false
	return out, true, nil
}

// Dendrogram clusters the cached matrix, rerunning the NN-chain only
// when the matrix (or linkage) changed since the last call — otherwise
// the previous dendrogram is returned as-is.
func (pc *PairwiseCache) Dendrogram(linkage Linkage) (*Dendrogram, error) {
	if pc.d == nil {
		return nil, fmt.Errorf("cluster: dendrogram before any refresh")
	}
	if pc.fresh && pc.dend != nil && pc.linkage == linkage {
		return pc.dend, nil
	}
	dg, err := Agglomerative(pc.d, linkage)
	if err != nil {
		return nil, err
	}
	pc.dend, pc.linkage, pc.fresh = dg, linkage, true
	return dg, nil
}
