package cluster

import (
	"math/rand/v2"
	"testing"
)

// benchMatrix builds an n×dim matrix of random discrete distributions,
// the shape of the paper's Û attention rows.
func benchMatrix(n, dim int, seed uint64) [][]float64 {
	r := rand.New(rand.NewPCG(seed, 0xbe))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = randDist(r, dim)
	}
	return rows
}

// BenchmarkKMeans is the Figure 7 workload at paper scale: 10k users ×
// 6 organs, k = 12. This benchmark (with BenchmarkAgglomerative) is the
// regression gate for the analytics engine; its archived baseline lives
// in BENCH_analytics_before.{txt,json}.
func BenchmarkKMeans(b *testing.B) {
	rows := benchMatrix(10000, 6, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(rows, KMeansConfig{K: 12, Seed: 1, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAgglomerative is the Figure 6 workload scaled up: a 500×500
// precomputed distance matrix under average linkage.
func BenchmarkAgglomerative(b *testing.B) {
	rows := benchMatrix(500, 6, 2)
	m, err := PairwiseMatrix(rows, Bhattacharyya)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Agglomerative(m, AverageLinkage); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSilhouette measures the exact (unsampled) silhouette pass
// over 2000 points, the O(n²) part of the model-selection sweep.
func BenchmarkSilhouette(b *testing.B) {
	rows := benchMatrix(2000, 6, 3)
	res, err := KMeans(rows, KMeansConfig{K: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Silhouette(rows, res.Labels, Euclidean); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairwiseMatrix measures the full symmetric distance matrix
// over 500 distribution rows (the input of BenchmarkAgglomerative).
func BenchmarkPairwiseMatrix(b *testing.B) {
	rows := benchMatrix(500, 6, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PairwiseMatrix(rows, Bhattacharyya); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepK is the model-selection sweep end to end on a reduced
// corpus: K-Means plus sampled silhouette for each candidate k.
func BenchmarkSweepK(b *testing.B) {
	rows := benchMatrix(2000, 6, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SweepK(rows, []int{4, 8, 12}, 1, 500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepKPaperShape is the analyze sweep at the paper's shape:
// 72k users × 6 organs whose normalized count rows repeat heavily (as
// Û's do), the default ks, and exact silhouettes. Unlike the continuous
// random rows above, this input exercises the distinct-row view.
func BenchmarkSweepKPaperShape(b *testing.B) {
	m := dupMatrix(72000, 1)
	ks := []int{6, 8, 10, 12, 14, 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SweepKDense(m, ks, 1, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}
