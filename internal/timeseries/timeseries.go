// Package timeseries implements the trace representation and the dynamic
// time warping (DTW) error metric the paper uses to quantify HPC measurement
// error (§2): "HPC error [is the] magnitude of difference between
// corresponding HPC measurements made in two runs of a workload, one in
// polling and other in sampling mode. The correspondence between the two HPC
// traces is established by dynamic time warping."
package timeseries

import (
	"errors"
	"math"
)

// Series is a uniformly sampled scalar trace (one value per sampling
// interval) for one event.
type Series []float64

// Clone returns a copy of the series.
func (s Series) Clone() Series { return append(Series(nil), s...) }

// Sum returns the total of the series.
func (s Series) Sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// Mean returns the average value (0 for an empty series).
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s))
}

// Scale multiplies every point by k, in place, returning s.
func (s Series) Scale(k float64) Series {
	for i := range s {
		s[i] *= k
	}
	return s
}

// Downsample aggregates the series into buckets of the given width by
// summation (counts accumulate). The last partial bucket is kept.
func (s Series) Downsample(width int) Series {
	if width <= 1 {
		return s.Clone()
	}
	out := make(Series, 0, (len(s)+width-1)/width)
	for i := 0; i < len(s); i += width {
		end := i + width
		if end > len(s) {
			end = len(s)
		}
		var sum float64
		for _, v := range s[i:end] {
			sum += v
		}
		out = append(out, sum)
	}
	return out
}

// ErrDTWEmpty is returned when either input series is empty.
var ErrDTWEmpty = errors.New("timeseries: DTW on empty series")

// DTWPath is one aligned index pair produced by DTW.
type DTWPath struct{ I, J int }

// DTW computes the dynamic-time-warping alignment between a and b under a
// Sakoe–Chiba band of the given half-width (window <= 0 means unconstrained)
// with absolute-difference local cost. It returns the total alignment cost
// and the warping path (monotone in both indices, from (0,0) to (n−1,m−1)).
func DTW(a, b Series, window int) (cost float64, path []DTWPath, err error) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0, nil, ErrDTWEmpty
	}
	if window <= 0 {
		window = n + m // effectively unconstrained
	}
	// Ensure the band is wide enough to reach the corner when n != m.
	diff := n - m
	if diff < 0 {
		diff = -diff
	}
	if window < diff+1 {
		window = diff + 1
	}

	inf := math.Inf(1)
	d := make([][]float64, n+1)
	for i := range d {
		d[i] = make([]float64, m+1)
		for j := range d[i] {
			d[i][j] = inf
		}
	}
	d[0][0] = 0
	for i := 1; i <= n; i++ {
		jLo := i - window
		if jLo < 1 {
			jLo = 1
		}
		jHi := i + window
		if jHi > m {
			jHi = m
		}
		for j := jLo; j <= jHi; j++ {
			c := math.Abs(a[i-1] - b[j-1])
			best := d[i-1][j-1]
			if d[i-1][j] < best {
				best = d[i-1][j]
			}
			if d[i][j-1] < best {
				best = d[i][j-1]
			}
			d[i][j] = c + best
		}
	}
	if math.IsInf(d[n][m], 1) {
		return 0, nil, errors.New("timeseries: DTW band excluded the corner")
	}

	// Backtrack the optimal path.
	i, j := n, m
	for i > 0 && j > 0 {
		path = append(path, DTWPath{i - 1, j - 1})
		diag, up, left := d[i-1][j-1], d[i-1][j], d[i][j-1]
		switch {
		case diag <= up && diag <= left:
			i, j = i-1, j-1
		case up <= left:
			i--
		default:
			j--
		}
	}
	// Reverse into forward order.
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return d[n][m], path, nil
}

// AlignedRelError computes the paper's error metric: DTW-align the reference
// (polling) trace with the target (sampled/corrected) trace, then average the
// relative difference |target−ref|/max(|ref|, floor) over the warping path.
// The result is a fraction (0.40 ≡ 40% error).
func AlignedRelError(ref, target Series, window int, floor float64) (float64, error) {
	_, path, err := DTW(ref, target, window)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, p := range path {
		den := math.Abs(ref[p.I])
		if den < floor {
			den = floor
		}
		sum += math.Abs(target[p.J]-ref[p.I]) / den
	}
	return sum / float64(len(path)), nil
}

// MAPE returns the index-aligned mean absolute percentage error between two
// equal-length series. It is the cheap metric used inside tight loops (the
// full DTW metric is used for reported results).
func MAPE(ref, target Series, floor float64) float64 {
	n := len(ref)
	if len(target) < n {
		n = len(target)
	}
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		den := math.Abs(ref[i])
		if den < floor {
			den = floor
		}
		sum += math.Abs(target[i]-ref[i]) / den
	}
	return sum / float64(n)
}
