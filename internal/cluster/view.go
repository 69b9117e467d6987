package cluster

import (
	"math"

	"donorsense/internal/mat"
)

// rowView is the weighted distinct-row view every cold K-Means run and
// every silhouette runs on. Û's rows are normalized organ-count vectors,
// so at paper scale ≈72k users collapse into ≈1.3k distinct rows; the
// view holds each distinct row once, in first-occurrence order, with its
// multiplicity and the user→row index that expands per-row results back
// to users.
//
// Rows are keyed by their math.Float64bits, so two users share a row
// only when their vectors are bit-identical and every distance from
// either is bit-identical too: Lloyd's algorithm over the weighted rows
// is the expanded algorithm with each duplicate group moved in lockstep
// (which the expanded run does anyway — identical inputs take identical
// branches), and a silhouette coefficient is a function of (row, label).
//
// When no row repeats, the view is the matrix itself: data aliases m,
// and weight and index are nil (every weight 1, user i is row i).
type rowView struct {
	data  []float64 // rows×dim distinct rows, first-occurrence order
	rows  int
	dim   int
	users int

	weight []int   // users per distinct row; nil when no row repeats
	index  []int32 // user → distinct row; nil when no row repeats
	labels []int   // per-row label when keyed by (row, label); else nil
}

// newRowView builds the distinct-row view of m. With labels non-nil the
// key is (row bits, label), so a labelling that splits duplicate rows
// across clusters keeps one view row per (row, label) pair.
//
// The index is a keyless open-addressing table: a slot holds the first
// user carrying a key plus one (0 = empty), and a probe compares against
// that user's row — the userstore index idiom, 4 bytes per slot and no
// map. The table is sized once for n keys at load ≤ 1/2, so building the
// view costs one allocation when nothing repeats.
func newRowView(m *mat.Dense, labels []int) rowView {
	n, dim := m.Rows(), m.Cols()
	data := m.Data()
	identity := rowView{data: data, rows: n, dim: dim, users: n, labels: labels}
	if n < 2 || n >= math.MaxInt32 {
		return identity
	}
	size := 4
	for size < 2*n {
		size <<= 1
	}
	mask := uint64(size - 1)
	slots := make([]int32, size)
	// Until the first repeat, user i is distinct row i; the index is
	// allocated only once a row repeats.
	var index []int32
	distinct := int32(0)
	for i := 0; i < n; i++ {
		row := data[i*dim : (i+1)*dim]
		h := uint64(0)
		if labels != nil {
			h = uint64(labels[i])
		}
		for _, v := range row {
			h = mix64(h ^ math.Float64bits(v))
		}
		for s := h & mask; ; s = (s + 1) & mask {
			f := slots[s]
			if f == 0 {
				slots[s] = int32(i + 1)
				if index != nil {
					index[i] = distinct
				}
				distinct++
				break
			}
			j := int(f - 1)
			if (labels == nil || labels[i] == labels[j]) && sameBits(row, data[j*dim:(j+1)*dim]) {
				if index == nil {
					index = make([]int32, n)
					for u := range i {
						index[u] = int32(u)
					}
				}
				index[i] = index[j]
				break
			}
		}
	}
	if index == nil {
		return identity
	}

	v := rowView{
		data:   make([]float64, 0, int(distinct)*dim),
		rows:   int(distinct),
		dim:    dim,
		users:  n,
		weight: make([]int, distinct),
		index:  index,
	}
	if labels != nil {
		v.labels = make([]int, distinct)
	}
	// Distinct ids were handed out in first-occurrence order, so the
	// users whose id equals the number of rows copied so far are exactly
	// the first occurrences, met in id order.
	for i, r := range index {
		if int(r) == len(v.data)/dim {
			v.data = append(v.data, data[i*dim:(i+1)*dim]...)
			if labels != nil {
				v.labels[r] = labels[i]
			}
		}
		v.weight[r]++
	}
	return v
}

// row returns distinct row r.
func (v *rowView) row(r int) []float64 {
	return v.data[r*v.dim : (r+1)*v.dim]
}

// rowOf returns the distinct row user i maps to.
func (v *rowView) rowOf(i int) int {
	if v.index == nil {
		return i
	}
	return int(v.index[i])
}

// w returns the multiplicity of distinct row r.
func (v *rowView) w(r int) int {
	if v.weight == nil {
		return 1
	}
	return v.weight[r]
}

// expand maps per-row labels to per-user labels. With no repeats the
// rows are the users and the slice is returned as-is.
func (v *rowView) expand(rowLabels []int) []int {
	if v.index == nil {
		return rowLabels
	}
	out := make([]int, v.users)
	for i, r := range v.index {
		out[i] = rowLabels[r]
	}
	return out
}

// sameBits reports whether two equal-length rows are bit-identical (so
// +0 and −0 differ and a NaN equals itself, matching the hash key).
func sameBits(a, b []float64) bool {
	for j, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// mix64 is the splitmix64 finalizer, folding one 64-bit word of a row
// key into the running hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
