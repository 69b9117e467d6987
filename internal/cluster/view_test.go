package cluster

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"donorsense/internal/gen"
	"donorsense/internal/mat"
	"donorsense/internal/pipeline"
)

// The expanded oracles below are the per-user k-means++ initialization
// and silhouette loop that the weighted distinct-row view replaced (the
// silhouette run sequentially, with the same per-user float order), so
// the differential tests can pit the view against them. The Lloyd
// iteration itself is shared: with nil weights kmeansRun performs
// exactly the unweighted float operations.

// kmeansPlusPlusInitExpanded is k-means++ over every row of m.
func kmeansPlusPlusInitExpanded(m *mat.Dense, k int, r *rand.Rand) []float64 {
	n, dim := m.Rows(), m.Cols()
	data := m.Data()
	centroids := make([]float64, dim, k*dim)
	first := r.IntN(n)
	copy(centroids, data[first*dim:(first+1)*dim])

	d2 := make([]float64, n)
	last := centroids[:dim]
	for i := range d2 {
		d2[i] = sqDistTo(data[i*dim:i*dim+dim], last)
	}
	for chosen := 1; chosen < k; chosen++ {
		total := 0.0
		for _, d := range d2 {
			total += d
		}
		var idx int
		if total == 0 {
			idx = r.IntN(n)
		} else {
			x := r.Float64() * total
			for i, d := range d2 {
				x -= d
				if x <= 0 {
					idx = i
					break
				}
			}
		}
		centroids = append(centroids, data[idx*dim:(idx+1)*dim]...)
		last = centroids[chosen*dim : (chosen+1)*dim]
		for i := range d2 {
			if d := sqDistTo(data[i*dim:i*dim+dim], last); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}

// kmeansExpanded is KMeansDense run over every row of m, restarts and
// best-pick included.
func kmeansExpanded(m *mat.Dense, cfg KMeansConfig) *KMeansResult {
	restarts := max(cfg.Restarts, 1)
	var best *KMeansResult
	for attempt := 0; attempt < restarts; attempt++ {
		r := rand.New(rand.NewPCG(cfg.Seed, uint64(attempt)))
		n, dim := m.Rows(), m.Cols()
		run := newKMeansRun(m.Data(), nil, n, dim, cfg.K, 1, kmeansPlusPlusInitExpanded(m, cfg.K, r))
		run.initialAssign()
		iter := 0
		for ; iter < 100; iter++ {
			run.refreshHalf()
			run.assignPruned()
			if moved := run.updateCentroids(); moved <= 1e-9 {
				break
			}
		}
		labels, sizes, inertia := run.finalAssign()
		cents := make([][]float64, cfg.K)
		for c := range cents {
			cents[c] = run.pos[c*dim : (c+1)*dim]
		}
		res := &KMeansResult{K: cfg.K, Centroids: cents, Labels: labels, Inertia: inertia, Iterations: iter + 1, Sizes: sizes}
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best
}

// silhouetteExpanded is the per-user silhouette: every sampled user
// (nil = all) sums distances to every other user.
func silhouetteExpanded(m *mat.Dense, labels []int, d Distance, sample []int) float64 {
	n, dim := m.Rows(), m.Cols()
	data := m.Data()
	k := 0
	for _, l := range labels {
		k = max(k, l+1)
	}
	counts := make([]int, k)
	for _, l := range labels {
		counts[l]++
	}
	indices := sample
	if indices == nil {
		indices = make([]int, n)
		for i := range indices {
			indices[i] = i
		}
	}
	sums := make([]float64, k)
	total, used := 0.0, 0
	for _, i := range indices {
		if counts[labels[i]] < 2 {
			continue
		}
		for c := range sums {
			sums[c] = 0
		}
		ri := data[i*dim : i*dim+dim]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			sums[labels[j]] += d(ri, data[j*dim:j*dim+dim])
		}
		a := sums[labels[i]] / float64(counts[labels[i]]-1)
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == labels[i] || counts[c] == 0 {
				continue
			}
			b = min(b, sums[c]/float64(counts[c]))
		}
		if den := math.Max(a, b); den > 0 {
			total += (b - a) / den
		}
		used++
	}
	return total / float64(used)
}

// dupMatrix builds n rows shaped like Û at paper scale: each user
// mentions one organ (most), two or three, a few times each, and the
// row is the normalized count vector — so rows repeat heavily.
func dupMatrix(n int, seed uint64) *mat.Dense {
	r := rand.New(rand.NewPCG(seed, 0xd0))
	popularity := []float64{0.40, 0.22, 0.15, 0.12, 0.07, 0.04}
	m := mat.New(n, len(popularity))
	data := m.Data()
	for i := 0; i < n; i++ {
		row := data[i*6 : (i+1)*6]
		organs := 1
		if u := r.Float64(); u > 0.97 {
			organs = 3
		} else if u > 0.87 {
			organs = 2
		}
		sum := 0.0
		for o := 0; o < organs; o++ {
			x, col := r.Float64(), 0
			for col < 5 && x > popularity[col] {
				x -= popularity[col]
				col++
			}
			c := 1.0
			for c < 5 && r.Float64() < 0.4 {
				c++
			}
			row[col] += c
			sum += c
		}
		for j := range row {
			row[j] /= sum
		}
	}
	return m
}

var (
	paperUOnce sync.Once
	paperU     *mat.Dense
)

// paperAttention is Û of a scale-0.05 generated corpus, the real
// distinct-row structure of the paper's Figure 7 input.
func paperAttention(t *testing.T) *mat.Dense {
	t.Helper()
	paperUOnce.Do(func() {
		d := pipeline.NewDataset()
		d.ProcessAll(gen.Generate(gen.DefaultConfig(0.05)).Tweets, 2)
		att, err := d.BuildAttention()
		if err != nil {
			t.Fatal(err)
		}
		paperU = att.Matrix()
	})
	if paperU == nil {
		t.Fatal("paper attention matrix unavailable")
	}
	return paperU
}

// viewCases are the differential inputs: real Û, a synthetic
// duplicate-heavy matrix, and a matrix in which no row repeats.
func viewCases(t *testing.T) []struct {
	name    string
	m       *mat.Dense
	repeats bool
} {
	noRepeat, err := denseFromRows(benchMatrix(1200, 6, 21))
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name    string
		m       *mat.Dense
		repeats bool
	}{
		{"paper", paperAttention(t), true},
		{"duplicates", dupMatrix(3000, 4), true},
		{"no_repeat", noRepeat, false},
	}
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// TestRowViewStructure checks the view's bookkeeping: weights sum to the
// users, every user's row is its own vector bit for bit, rows are in
// first-occurrence order, and a matrix without repeats is used as-is.
func TestRowViewStructure(t *testing.T) {
	for _, tc := range viewCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			v := newRowView(m, nil)
			if (v.index != nil) != tc.repeats {
				t.Fatalf("index present=%v, want %v", v.index != nil, tc.repeats)
			}
			if !tc.repeats {
				if v.rows != m.Rows() || &v.data[0] != &m.Data()[0] || v.weight != nil {
					t.Fatal("no-repeat view does not alias the matrix")
				}
				return
			}
			total, next := 0, 0
			for r := 0; r < v.rows; r++ {
				total += v.w(r)
			}
			if total != m.Rows() {
				t.Fatalf("weights sum to %d, want %d users", total, m.Rows())
			}
			for i := 0; i < m.Rows(); i++ {
				r := v.rowOf(i)
				if r > next {
					t.Fatalf("user %d maps to row %d before row %d appeared", i, r, next)
				}
				if r == next {
					next++
				}
				if !sameBits(v.row(r), m.Row(i)) {
					t.Fatalf("user %d row differs from its view row", i)
				}
			}
			t.Logf("%d users, %d distinct rows", m.Rows(), v.rows)
		})
	}
}

// TestKMeansViewMatchesExpanded is the differential test of the view's
// weighted Lloyd against Lloyd over every user: identical labels and
// sizes, inertia and centroids within 1e-12 relative, for every k of
// the sweep range with two restarts.
func TestKMeansViewMatchesExpanded(t *testing.T) {
	for _, tc := range viewCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			for k := 6; k <= 16; k++ {
				cfg := KMeansConfig{K: k, Seed: 1, Restarts: 2}
				got, err := KMeansDense(tc.m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := kmeansExpanded(tc.m, cfg)
				if !reflect.DeepEqual(got.Labels, want.Labels) {
					t.Fatalf("k=%d: labels differ from the expanded run", k)
				}
				if !reflect.DeepEqual(got.Sizes, want.Sizes) {
					t.Fatalf("k=%d: sizes %v, want %v", k, got.Sizes, want.Sizes)
				}
				if got.Iterations != want.Iterations {
					t.Fatalf("k=%d: %d iterations, want %d", k, got.Iterations, want.Iterations)
				}
				if !relClose(got.Inertia, want.Inertia, 1e-12) {
					t.Fatalf("k=%d: inertia %v, want %v", k, got.Inertia, want.Inertia)
				}
				for c := range want.Centroids {
					scale := 0.0
					for _, x := range want.Centroids[c] {
						scale = math.Max(scale, math.Abs(x))
					}
					for j, x := range want.Centroids[c] {
						if math.Abs(got.Centroids[c][j]-x) > 1e-12*scale {
							t.Fatalf("k=%d: centroid %d[%d] = %v, want %v", k, c, j, got.Centroids[c][j], x)
						}
					}
				}
			}
		})
	}
}

// TestSilhouetteViewMatchesExpanded checks the (row, label) silhouette
// against the per-user pass, exact and sampled, for a K-Means labelling
// (constant per row) and one that splits duplicate rows across
// clusters. Besides Euclidean it uses a dissimilarity with d(x, x) > 0,
// which is the only way to see how a row's own duplicates are weighted.
func TestSilhouetteViewMatchesExpanded(t *testing.T) {
	for _, tc := range viewCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			res, err := KMeansDense(m, KMeansConfig{K: 12, Seed: 1, Restarts: 2})
			if err != nil {
				t.Fatal(err)
			}
			split := make([]int, len(res.Labels))
			for i, l := range res.Labels {
				split[i] = (l + i%3) % 12
			}
			for _, lc := range []struct {
				name   string
				labels []int
			}{{"kmeans", res.Labels}, {"split", split}} {
				for _, dc := range []struct {
					name string
					d    Distance
				}{{"euclidean", Euclidean}, {"shifted", shiftedEuclidean}} {
					if testing.Short() && dc.name != "euclidean" {
						continue
					}
					got, err := SilhouetteDense(m, lc.labels, dc.d, 0)
					if err != nil {
						t.Fatal(err)
					}
					want := silhouetteExpanded(m, lc.labels, dc.d, nil)
					if math.Abs(got-want) > 1e-12 {
						t.Fatalf("%s/%s exact: %v, want %v", lc.name, dc.name, got, want)
					}
				}
				got, err := SilhouetteSampledDense(m, lc.labels, Euclidean, 300, 5, 0)
				if err != nil {
					t.Fatal(err)
				}
				want := silhouetteExpanded(m, lc.labels, Euclidean, sampleUsers(m.Rows(), 300, 5))
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("%s sampled: %v, want %v", lc.name, got, want)
				}
			}
		})
	}
}

// TestSweepKViewMatchesExpanded checks every sweep row against an
// expanded K-Means plus expanded silhouette at the same k.
func TestSweepKViewMatchesExpanded(t *testing.T) {
	m := paperAttention(t)
	ks := []int{6, 8, 10, 12, 14, 16}
	for _, sample := range []int{0, 400} {
		if testing.Short() && sample == 0 {
			continue
		}
		got, err := SweepKDense(m, ks, 1, sample, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range ks {
			fit := kmeansExpanded(m, KMeansConfig{K: k, Seed: 1, Restarts: 2})
			sil := silhouetteExpanded(m, fit.Labels, Euclidean, sampleUsers(m.Rows(), sample, 1))
			g := got[i]
			if g.K != k || g.AvgSize != float64(m.Rows())/float64(k) || g.MinSize != minOf(fit.Sizes) {
				t.Fatalf("sample=%d k=%d: row %+v, want min size %d", sample, k, g, minOf(fit.Sizes))
			}
			if !relClose(g.Inertia, fit.Inertia, 1e-12) || math.Abs(g.Silhouette-sil) > 1e-12 {
				t.Fatalf("sample=%d k=%d: inertia %v silhouette %v, want %v and %v",
					sample, k, g.Inertia, g.Silhouette, fit.Inertia, sil)
			}
		}
	}
}

// shiftedEuclidean is Euclidean plus a constant: a dissimilarity with a
// non-zero self-distance.
func shiftedEuclidean(a, b []float64) float64 {
	return Euclidean(a, b) + 0.25
}

func minOf(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

// TestKMeansDenseWarmNilIsCold: with no warm state, KMeansDenseWarm is
// KMeansDense exactly, and its captured state labels every user as the
// result does.
func TestKMeansDenseWarmNilIsCold(t *testing.T) {
	for _, tc := range viewCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := KMeansConfig{K: 12, Seed: 3, Restarts: 2}
			want, err := KMeansDense(tc.m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, ws, resumed, err := KMeansDenseWarm(tc.m, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if resumed {
				t.Fatal("nil warm state reported a resume")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("KMeansDenseWarm(nil) differs from KMeansDense")
			}
			for i, l := range ws.Labels {
				if int(l) != want.Labels[i] {
					t.Fatalf("warm state labels user %d as %d, result says %d", i, l, want.Labels[i])
				}
			}
		})
	}
}
