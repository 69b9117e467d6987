package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"donorsense/internal/mat"
)

// warmTestData builds n×dim rows of random simplex-ish points.
func warmTestData(rng *rand.Rand, n, dim int) *mat.Dense {
	m := mat.New(n, dim)
	data := m.Data()
	for i := 0; i < n; i++ {
		row := data[i*dim : (i+1)*dim]
		sum := 0.0
		for j := range row {
			row[j] = rng.Float64()
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
	}
	return m
}

// lloydFixedPoint asserts a result is a converged Lloyd solution on m:
// every label is the exact nearest centroid, and each centroid is the
// mean of its members to within tol.
func lloydFixedPoint(t *testing.T, m *mat.Dense, res *KMeansResult, tol float64) {
	t.Helper()
	n, dim := m.Rows(), m.Cols()
	data := m.Data()
	pos := make([]float64, 0, res.K*dim)
	for _, c := range res.Centroids {
		pos = append(pos, c...)
	}
	sums := make([]float64, res.K*dim)
	counts := make([]int, res.K)
	for i := 0; i < n; i++ {
		row := data[i*dim : (i+1)*dim]
		bi, _, _ := closestTwoGeneric(row, pos, res.K, dim)
		if bi != res.Labels[i] {
			t.Fatalf("point %d labeled %d, nearest centroid %d", i, res.Labels[i], bi)
		}
		counts[bi]++
		addScaled(sums[bi*dim:(bi+1)*dim], row, 1)
	}
	for c := 0; c < res.K; c++ {
		if counts[c] == 0 {
			t.Fatalf("cluster %d empty at convergence", c)
		}
		mean := make([]float64, dim)
		inv := 1 / float64(counts[c])
		for j := range mean {
			mean[j] = sums[c*dim+j] * inv
		}
		if d := sqDistTo(mean, pos[c*dim:(c+1)*dim]); d > tol {
			t.Fatalf("centroid %d off its member mean by %g", c, d)
		}
	}
}

// TestKMeansWarmColdPathIdentical asserts the cold fallback inside
// KMeansDenseWarm is bit-identical to a direct KMeansDense call.
func TestKMeansWarmColdPathIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := warmTestData(rng, 600, 6)
	cfg := KMeansConfig{K: 5, Seed: 11, Restarts: 2, Workers: 2}

	want, err := KMeansDense(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, ws, resumed, err := KMeansDenseWarm(m, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("nil warm state reported resumed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cold path through KMeansDenseWarm differs from KMeansDense")
	}
	for i, l := range ws.Labels {
		if int(l) != want.Labels[i] {
			t.Fatalf("captured label %d = %d, result %d", i, l, want.Labels[i])
		}
	}
}

// TestKMeansWarmUnchangedData asserts resuming on unchanged data keeps
// the partition, converges immediately, and is itself a fixed point:
// resuming twice returns bit-identical results.
func TestKMeansWarmUnchangedData(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := warmTestData(rng, 800, 6)
	cfg := KMeansConfig{K: 6, Seed: 3, Restarts: 2, Workers: 2}

	cold, ws, _, err := KMeansDenseWarm(m, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm1, ws1, resumed, err := KMeansDenseWarm(m, cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("compatible warm state not resumed")
	}
	if warm1.Iterations > 2 {
		t.Fatalf("unchanged-data resume took %d iterations", warm1.Iterations)
	}
	if !reflect.DeepEqual(warm1.Labels, cold.Labels) {
		t.Fatal("unchanged-data resume changed the partition")
	}
	if rel := math.Abs(warm1.Inertia-cold.Inertia) / cold.Inertia; rel > 1e-9 {
		t.Fatalf("inertia drifted by %g on unchanged data", rel)
	}
	lloydFixedPoint(t, m, warm1, 1e-7)

	warm2, _, _, err := KMeansDenseWarm(m, cfg, ws1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm2, warm1) {
		t.Fatal("second resume not bit-identical to first (not a fixed point)")
	}
}

// TestKMeansWarmDirtyRows perturbs a fraction of rows, marks them dirty,
// and asserts the resumed run reaches a genuine Lloyd fixed point on the
// new data while clean points' bounds stay usable.
func TestKMeansWarmDirtyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := warmTestData(rng, 1000, 6)
	cfg := KMeansConfig{K: 7, Seed: 19, Restarts: 2, Workers: 2}

	_, ws, _, err := KMeansDenseWarm(m, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Perturb 5% of rows and one brand-new-looking row pattern.
	data := m.Data()
	dim := m.Cols()
	for i := 0; i < m.Rows(); i += 20 {
		row := data[i*dim : (i+1)*dim]
		sum := 0.0
		for j := range row {
			row[j] = rng.Float64()
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
		ws.Labels[i] = -1
	}

	warm, ws2, resumed, err := KMeansDenseWarm(m, cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("dirty-row warm state not resumed")
	}
	lloydFixedPoint(t, m, warm, 1e-7)

	// The returned state must itself resume to the identical result.
	again, _, _, err := KMeansDenseWarm(m, cfg, ws2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Labels, warm.Labels) {
		t.Fatal("re-resume moved labels after convergence")
	}
}

// TestKMeansWarmIncompatibleFallsBack asserts mismatched state (wrong
// row count, wrong k) silently cold-starts.
func TestKMeansWarmIncompatibleFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := warmTestData(rng, 300, 6)
	cfg := KMeansConfig{K: 4, Seed: 2, Workers: 1}

	_, ws, _, err := KMeansDenseWarm(m, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Row count changed (e.g. users entered the matrix): fall back cold.
	grown := warmTestData(rng, 301, 6)
	_, _, resumed, err := KMeansDenseWarm(grown, cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("row-count-mismatched state resumed")
	}
	// k changed: fall back cold.
	cfg2 := cfg
	cfg2.K = 5
	_, _, resumed, err = KMeansDenseWarm(m, cfg2, ws)
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("k-mismatched state resumed")
	}
}

// TestPairwiseCacheBitIdentical asserts a cache refreshed through
// arbitrary dirty patterns always matches PairwiseMatrixWorkers from
// scratch, bit for bit, and that clean refreshes skip recomputation and
// dendrogram reruns.
func TestPairwiseCacheBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 30
	m := warmTestData(rng, n, 6)
	rows := make([][]float64, n)
	keys := make([]string, n)
	for i := range rows {
		rows[i] = m.Data()[i*6 : (i+1)*6]
		keys[i] = string(rune('A'+i/26)) + string(rune('a'+i%26))
	}

	pc := &PairwiseCache{}
	dirtySet := map[string]bool{}
	dirty := func(k string) bool { return dirtySet[k] }

	check := func(rows [][]float64, keys []string) [][]float64 {
		t.Helper()
		got, _, err := pc.Refresh(rows, keys, dirty, Bhattacharyya, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := PairwiseMatrixWorkers(rows, Bhattacharyya, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("d[%d][%d] = %g want %g", i, j, got[i][j], want[i][j])
				}
			}
		}
		return got
	}

	check(rows, keys)
	d1, err := pc.Dendrogram(AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}

	// Clean refresh: same object back, dendrogram reused.
	d, changed, err := pc.Refresh(rows, keys, dirty, Bhattacharyya, 2)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("clean refresh reported changed")
	}
	if &d[0][0] != &pc.d[0][0] {
		t.Fatal("clean refresh rebuilt the matrix")
	}
	d2, err := pc.Dendrogram(AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("clean refresh reran the dendrogram")
	}

	// Dirty a few rows, change their data.
	for _, i := range []int{3, 17} {
		rows[i][0], rows[i][1] = rows[i][1], rows[i][0]
		dirtySet[keys[i]] = true
	}
	check(rows, keys)
	dirtySet = map[string]bool{}
	d3, err := pc.Dendrogram(AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	want3, err := Agglomerative(pc.d, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d3, want3) {
		t.Fatal("post-change dendrogram differs from scratch")
	}

	// Drop a row and add a new key (state set changes between epochs).
	rows2 := append(append([][]float64{}, rows[:10]...), rows[11:]...)
	keys2 := append(append([]string{}, keys[:10]...), keys[11:]...)
	newRow := []float64{0.5, 0.1, 0.1, 0.1, 0.1, 0.1}
	rows2 = append(rows2, newRow)
	keys2 = append(keys2, "ZZ")
	check(rows2, keys2)
}
