// Package stats provides the statistical primitives shared across the
// BayesPerf reproduction: running moments, robust summaries, and the
// distribution functions (Gaussian, Student-t, Gumbel) that appear in the
// paper's observation model (§4.2) and in the CounterMiner baseline's
// Gumbel outlier test (§6).
package stats

import (
	"fmt"
	"math"
	"sort"
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

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It copies xs; the input is not
// modified. NaN samples are dropped up front — sort.Float64s leaves them
// in an arbitrary position, which would silently shift every order
// statistic. Quantile of an empty slice is 0; of an all-NaN slice, NaN.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

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

// NormalCDF returns P(X ≤ x) for X ~ N(mean, std²).
func NormalCDF(x, mean, std float64) float64 {
	return 0.5 * math.Erfc(-(x-mean)/(std*math.Sqrt2))
}

// NormalQuantile returns the q-quantile of the standard Gaussian using the
// Acklam rational approximation (|relative error| < 1.15e-9), refined with
// one Halley step against math.Erfc.
func NormalQuantile(q float64) float64 {
	if q <= 0 {
		return math.Inf(-1)
	}
	if q >= 1 {
		return math.Inf(1)
	}
	// Acklam's coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	var x float64
	switch {
	case q < pLow:
		u := math.Sqrt(-2 * math.Log(q))
		x = (((((c[0]*u+c[1])*u+c[2])*u+c[3])*u+c[4])*u + c[5]) /
			((((d[0]*u+d[1])*u+d[2])*u+d[3])*u + 1)
	case q <= 1-pLow:
		u := q - 0.5
		t := u * u
		x = (((((a[0]*t+a[1])*t+a[2])*t+a[3])*t+a[4])*t + a[5]) * u /
			(((((b[0]*t+b[1])*t+b[2])*t+b[3])*t+b[4])*t + 1)
	default:
		u := math.Sqrt(-2 * math.Log(1-q))
		x = -(((((c[0]*u+c[1])*u+c[2])*u+c[3])*u+c[4])*u + c[5]) /
			((((d[0]*u+d[1])*u+d[2])*u+d[3])*u + 1)
	}
	// One Halley refinement step.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - q
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// --- Student-t ---
//
// The paper (§4.2) models the marginal of an event's unknown true mean,
// after marginalizing the unknown variance, as a scaled/shifted Student-t:
// v_c ~ μ + S/√N · Student(ν = N−1), with the confidence level set to 95%.

// StudentTPDF returns the density of the standard Student-t with nu degrees
// of freedom at x.
func StudentTPDF(x, nu float64) float64 {
	if nu <= 0 {
		return 0
	}
	lg1, _ := math.Lgamma((nu + 1) / 2)
	lg2, _ := math.Lgamma(nu / 2)
	logc := lg1 - lg2 - 0.5*math.Log(nu*math.Pi)
	return math.Exp(logc - (nu+1)/2*math.Log(1+x*x/nu))
}

// StudentTCDF returns P(T ≤ x) for a standard Student-t with nu degrees of
// freedom, via the regularized incomplete beta function.
func StudentTCDF(x, nu float64) float64 {
	if nu <= 0 {
		return math.NaN()
	}
	if x == 0 { //bayesvet:bitwise exact symmetry point of the t CDF
		return 0.5
	}
	ib := RegIncBeta(nu/2, 0.5, nu/(nu+x*x))
	if x > 0 {
		return 1 - 0.5*ib
	}
	return 0.5 * ib
}

// StudentTQuantile returns the q-quantile of a standard Student-t with nu
// degrees of freedom, by bisection on the CDF (the quantile is only needed
// at setup time, so simplicity beats speed here).
func StudentTQuantile(q, nu float64) float64 {
	if q <= 0 {
		return math.Inf(-1)
	}
	if q >= 1 {
		return math.Inf(1)
	}
	lo, hi := -1e6, 1e6
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if StudentTCDF(mid, nu) < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

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

// --- Regularized incomplete beta (for the t CDF) ---

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes betacf).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
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
