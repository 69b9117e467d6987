package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the middle two for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// rank is the 0-based nearest-rank index of quantile q among n samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// weighted is a sample that stands for w equal observations.
type weighted struct {
	v float64
	w int
}

// weightedQuantile returns the nearest-rank q-quantile of the expanded
// sample set. xs is sorted in place.
func weightedQuantile(xs []weighted, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].v < xs[j].v })
	total := 0
	for _, x := range xs {
		total += x.w
	}
	target := rank(total, q) + 1
	seen := 0
	for _, x := range xs {
		seen += x.w
		if seen >= target {
			return x.v
		}
	}
	return xs[len(xs)-1].v
}

// histBuckets is the exact-resolution range of a latencyHist: 1 ns
// buckets up to about 1 ms. Slower samples are kept individually.
const histBuckets = 1 << 20

// latencyHist records nanosecond latencies exactly, with O(1) memory in
// the run length for the sub-millisecond reads that dominate query-churn.
type latencyHist struct {
	counts []uint32
	slow   []int64
	n      int
}

func newLatencyHist() *latencyHist {
	return &latencyHist{counts: make([]uint32, histBuckets)}
}

func (h *latencyHist) add(d time.Duration) {
	h.n++
	if d >= 0 && d < histBuckets {
		h.counts[d]++
		return
	}
	h.slow = append(h.slow, int64(d))
}

// quantileNS returns the nearest-rank q-quantile in nanoseconds.
func (h *latencyHist) quantileNS(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	target := rank(h.n, q) + 1
	seen := 0
	for ns, c := range h.counts {
		seen += int(c)
		if seen >= target {
			return float64(ns)
		}
	}
	sort.Slice(h.slow, func(i, j int) bool { return h.slow[i] < h.slow[j] })
	return float64(h.slow[target-seen-1])
}
