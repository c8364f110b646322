// Package stats provides the statistical primitives shared across the
// BayesPerf reproduction: running and batch moments, the relative-error
// metric, and the distribution functions that appear in the paper's
// observation model (§4.2: Gaussian densities and the Student-t std factor)
// and in the CounterMiner baseline's Gumbel outlier test (§6).
package stats

import (
	"fmt"
	"math"
)

// Running accumulates streaming mean and variance using Welford's algorithm.
// The zero value is ready to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int64 { return r.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Std returns the unbiased sample standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest observation (0 if empty).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation (0 if empty).
func (r *Running) Max() float64 { return r.max }

// Merge combines another accumulator into r (parallel-reduction form of
// Welford's update; used by the accelerator model's parallel EP engines).
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	n := r.n + o.n
	delta := o.mean - r.mean
	r.mean += delta * float64(o.n) / float64(n)
	r.m2 += o.m2 + delta*delta*float64(r.n)*float64(o.n)/float64(n)
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n = n
}

// String summarizes the accumulator for logging.
func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		r.n, r.Mean(), r.Std(), r.min, r.max)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 for n < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return sumSqDev(xs, Mean(xs)) / float64(len(xs)-1)
}

// sumSqDev returns Σ(x − m)² over xs, summed in order.
func sumSqDev(xs []float64, m float64) float64 {
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s
}

// Std returns the unbiased sample standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// --- Gaussian ---

// NormalPDF returns the density of N(mean, std²) at x.
func NormalPDF(x, mean, std float64) float64 {
	if std <= 0 {
		if x == mean { //bayesvet:bitwise degenerate zero-variance point mass: density is exactly at the mean or nowhere
			return math.Inf(1)
		}
		return 0
	}
	z := (x - mean) / std
	return math.Exp(-0.5*z*z) / (std * math.Sqrt(2*math.Pi))
}

// NormalLogPDF returns the log density of N(mean, std²) at x. Degenerate
// std <= 0 mirrors NormalPDF: log of a point mass at mean (+Inf at x ==
// mean, -Inf elsewhere) instead of NaN/±Inf garbage from the division.
func NormalLogPDF(x, mean, std float64) float64 {
	if std <= 0 {
		if x == mean { //bayesvet:bitwise degenerate zero-variance point mass: density is exactly at the mean or nowhere
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	z := (x - mean) / std
	return -0.5*z*z - math.Log(std) - 0.5*math.Log(2*math.Pi)
}

// --- Student-t ---
//
// The paper (§4.2) models the marginal of an event's unknown true mean,
// after marginalizing the unknown variance, as a scaled/shifted Student-t:
// v_c ~ μ + S/√N · Student(ν = N−1), with the confidence level set to 95%.

// StudentTStdFactor returns the standard deviation of a standard Student-t
// with nu degrees of freedom (√(ν/(ν−2)) for ν>2, +Inf otherwise). BayesPerf
// uses it to convert the t-marginal of an event mean into the Gaussian
// observation variance consumed by EP.
func StudentTStdFactor(nu float64) float64 {
	if nu <= 2 {
		return math.Inf(1)
	}
	return math.Sqrt(nu / (nu - 2))
}

// --- Gumbel ---
//
// CounterMiner (Lv et al., MICRO'18) detects outlier HPC samples with a
// Gumbel test: the maximum of n i.i.d. samples follows a Gumbel law, so a
// sample exceeding a high Gumbel quantile is flagged as an outlier.

// GumbelCDF returns the CDF of the Gumbel(mu, beta) distribution at x.
func GumbelCDF(x, mu, beta float64) float64 {
	return math.Exp(-math.Exp(-(x - mu) / beta))
}

// GumbelQuantile returns the q-quantile of Gumbel(mu, beta).
func GumbelQuantile(q, mu, beta float64) float64 {
	if q <= 0 {
		return math.Inf(-1)
	}
	if q >= 1 {
		return math.Inf(1)
	}
	return mu - beta*math.Log(-math.Log(q))
}

// GumbelThreshold is the Gumbel q-quantile at a fixed q. It computes the
// constant c = ln(−ln q) once, so a caller testing many fits at one q pays
// no logarithm per fit: Quantile(mu, beta) = mu − beta·c equals
// GumbelQuantile(q, mu, beta) bit for bit, guards included.
type GumbelThreshold struct {
	q, c float64
}

// NewGumbelThreshold fixes the quantile q.
func NewGumbelThreshold(q float64) GumbelThreshold {
	t := GumbelThreshold{q: q}
	if !(q <= 0 || q >= 1) { // the guards of Quantile; a NaN q passes them, as in GumbelQuantile
		t.c = math.Log(-math.Log(q))
	}
	return t
}

// Q returns the fixed quantile.
func (t GumbelThreshold) Q() float64 { return t.q }

// Quantile returns the q-quantile of Gumbel(mu, beta).
func (t GumbelThreshold) Quantile(mu, beta float64) float64 {
	if t.q <= 0 {
		return math.Inf(-1)
	}
	if t.q >= 1 {
		return math.Inf(1)
	}
	return mu - beta*t.c
}

// GumbelFitFromMoments converts a sample mean and std into Gumbel
// location/scale by the method of moments: beta = s·√6/π,
// mu = mean − γ·beta (γ is Euler–Mascheroni). Callers that maintain
// running moments (e.g. the stream layer's window rings) can fit in O(1).
func GumbelFitFromMoments(mean, std float64) (mu, beta float64) {
	const eulerGamma = 0.5772156649015329
	beta = std * math.Sqrt(6) / math.Pi
	mu = mean - eulerGamma*beta
	return mu, beta
}

// GumbelFitMoments fits Gumbel location/scale from a sample via the method
// of moments. It computes the mean once and is bit-identical to
// GumbelFitFromMoments(Mean(xs), Std(xs)).
func GumbelFitMoments(xs []float64) (mu, beta float64) {
	m := Mean(xs)
	var std float64
	if len(xs) >= 2 {
		std = math.Sqrt(sumSqDev(xs, m) / float64(len(xs)-1))
	}
	return GumbelFitFromMoments(m, std)
}

// GumbelFilterMax applies CounterMiner's high-side outlier test to a sample
// of per-interval counter readings: fit Gumbel(mu, beta) by moments, then
// reject every reading above the q-quantile of the fitted law (a reading
// that extreme among n i.i.d. samples indicates OS interference or counter
// corruption rather than workload behavior). NaN readings are the most
// corrupted of all and are rejected up front — left in, one NaN poisons
// the moment fit and makes every x > thr comparison false, silently
// keeping the whole sample. It returns the surviving readings in their
// original order and the number rejected; when nothing is rejected, the
// input slice itself is returned. Samples too small to fit (n < 4) and
// degenerate q are passed through untouched (minus any NaNs). xs is never
// modified: survivors that differ from xs go to a new slice.
func GumbelFilterMax(xs []float64, q float64) (kept []float64, rejected int) {
	return NewGumbelThreshold(q).FilterMax(xs, nil)
}

// FilterMax is GumbelFilterMax at the threshold's fixed quantile, writing
// the survivors into buf[:0] whenever it must copy them, so a caller that
// passes a buffer of cap(buf) ≥ len(xs) allocates nothing. buf may alias
// xs (buf = xs[:0] filters xs in place): each pass only writes behind the
// position it reads. When nothing is rejected, xs itself is returned and
// buf is untouched.
func (t GumbelThreshold) FilterMax(xs, buf []float64) (kept []float64, rejected int) {
	clean := xs
	nan := 0
	for _, x := range xs {
		if math.IsNaN(x) {
			nan++
		}
	}
	if nan > 0 {
		clean = buf[:0]
		for _, x := range xs {
			if !math.IsNaN(x) {
				clean = append(clean, x)
			}
		}
	}
	if len(clean) < 4 || t.q <= 0 || t.q >= 1 {
		return clean, nan
	}
	mu, beta := GumbelFitMoments(clean)
	if beta <= 0 { // constant sample: nothing can be an outlier
		return clean, nan
	}
	thr := t.Quantile(mu, beta)
	for _, x := range clean {
		if x > thr {
			rejected++
		}
	}
	if rejected == 0 || rejected == len(clean) {
		return clean, nan
	}
	kept = buf[:0]
	for _, x := range clean {
		if x <= thr {
			kept = append(kept, x)
		}
	}
	return kept, rejected + nan
}

// RelErr returns |got−want| / max(|want|, floor): the relative error metric
// used throughout the evaluation, with a floor to avoid division blow-ups on
// near-zero counts.
func RelErr(got, want, floor float64) float64 {
	den := math.Abs(want)
	if den < floor {
		den = floor
	}
	return math.Abs(got-want) / den
}
