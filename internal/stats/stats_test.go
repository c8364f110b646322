package stats

import (
	"math"
	"testing"
	"testing/quick"

	"bayesperf/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRunningMatchesBatch(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 500)
	var run Running
	for i := range xs {
		xs[i] = r.Gaussian(3, 2)
		run.Add(xs[i])
	}
	if !almostEq(run.Mean(), Mean(xs), 1e-9) {
		t.Errorf("running mean %v != batch mean %v", run.Mean(), Mean(xs))
	}
	if !almostEq(run.Variance(), Variance(xs), 1e-9) {
		t.Errorf("running var %v != batch var %v", run.Variance(), Variance(xs))
	}
	if run.N() != 500 {
		t.Errorf("N = %d, want 500", run.N())
	}
}

func TestRunningMinMax(t *testing.T) {
	var run Running
	for _, x := range []float64{3, -1, 7, 2} {
		run.Add(x)
	}
	if run.Min() != -1 || run.Max() != 7 {
		t.Errorf("min/max = %v/%v, want -1/7", run.Min(), run.Max())
	}
}

func TestRunningMergeEqualsSequential(t *testing.T) {
	// Property: merging two accumulators equals accumulating the
	// concatenation. This is the invariant the accelerator's parallel EP
	// engines rely on.
	prop := func(seed uint64, nA, nB uint8) bool {
		r := rng.New(seed)
		var a, b, all Running
		for i := 0; i < int(nA)+1; i++ {
			x := r.Gaussian(0, 5)
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < int(nB)+1; i++ {
			x := r.Gaussian(10, 1)
			b.Add(x)
			all.Add(x)
		}
		a.Merge(b)
		return a.N() == all.N() &&
			almostEq(a.Mean(), all.Mean(), 1e-8) &&
			almostEq(a.Variance(), all.Variance(), 1e-6)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunningMergeEmpty(t *testing.T) {
	var a, b Running
	a.Add(1)
	a.Add(2)
	want := a
	a.Merge(b) // merging empty is a no-op
	if a != want {
		t.Errorf("merge with empty changed accumulator")
	}
	b.Merge(a) // merging into empty copies
	if b.N() != 2 || !almostEq(b.Mean(), 1.5, 1e-12) {
		t.Errorf("merge into empty: %v", b.String())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be modified.
	if xs[0] != 5 {
		t.Error("Quantile modified its input")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile(nil) != 0")
	}
}

// TestQuantileNaN is the NaN-hardening regression test: NaN samples used
// to poison sort.Float64s ordering and shift every order statistic.
func TestQuantileNaN(t *testing.T) {
	// NaNs mixed in must not change the result.
	xs := []float64{5, math.NaN(), 1, 3, math.NaN(), 2, 4}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5},
	} {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) with NaNs = %v, want %v", c.q, got, c.want)
		}
	}
	// All-NaN input signals corruption instead of inventing a 0.
	if got := Quantile([]float64{math.NaN(), math.NaN()}, 0.5); !math.IsNaN(got) {
		t.Errorf("Quantile(all-NaN) = %v, want NaN", got)
	}
	// Empty input keeps its documented 0.
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile(nil) != 0")
	}
}

func TestMedianInterpolates(t *testing.T) {
	if got := Median([]float64{1, 2, 3, 4}); !almostEq(got, 2.5, 1e-12) {
		t.Errorf("Median = %v, want 2.5", got)
	}
}

func TestNormalCDFQuantileRoundTrip(t *testing.T) {
	for _, q := range []float64{0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999} {
		x := NormalQuantile(q)
		back := NormalCDF(x, 0, 1)
		if !almostEq(back, q, 1e-8) {
			t.Errorf("CDF(Quantile(%v)) = %v", q, back)
		}
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	if got := NormalQuantile(0.975); !almostEq(got, 1.959963985, 1e-6) {
		t.Errorf("z(0.975) = %v, want 1.96", got)
	}
	if got := NormalQuantile(0.5); !almostEq(got, 0, 1e-9) {
		t.Errorf("z(0.5) = %v, want 0", got)
	}
}

func TestNormalPDFIntegratesToOne(t *testing.T) {
	var sum float64
	const dx = 0.001
	for x := -10.0; x < 10; x += dx {
		sum += NormalPDF(x, 0, 1) * dx
	}
	if !almostEq(sum, 1, 1e-3) {
		t.Errorf("∫pdf = %v, want 1", sum)
	}
}

func TestNormalLogPDFConsistent(t *testing.T) {
	for _, x := range []float64{-3, -0.5, 0, 1.7, 4} {
		if !almostEq(math.Exp(NormalLogPDF(x, 1, 2)), NormalPDF(x, 1, 2), 1e-12) {
			t.Errorf("logpdf inconsistent at %v", x)
		}
	}
}

func TestNormalLogPDFDegenerateStd(t *testing.T) {
	for _, std := range []float64{0, -1} {
		if got := NormalLogPDF(2, 2, std); !math.IsInf(got, 1) {
			t.Errorf("NormalLogPDF(x==mean, std=%v) = %v, want +Inf", std, got)
		}
		if got := NormalLogPDF(3, 2, std); !math.IsInf(got, -1) {
			t.Errorf("NormalLogPDF(x!=mean, std=%v) = %v, want -Inf", std, got)
		}
	}
}

func TestStudentTCDFSymmetry(t *testing.T) {
	prop := func(xRaw int16, nuRaw uint8) bool {
		x := float64(xRaw) / 1000
		nu := float64(nuRaw%30) + 1
		return almostEq(StudentTCDF(x, nu)+StudentTCDF(-x, nu), 1, 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStudentTApproachesNormal(t *testing.T) {
	// For large ν the t CDF approaches the Gaussian CDF.
	for _, x := range []float64{-2, -1, 0.5, 1.5} {
		tv := StudentTCDF(x, 1000)
		nv := NormalCDF(x, 0, 1)
		if !almostEq(tv, nv, 2e-3) {
			t.Errorf("t(1000) CDF(%v) = %v, normal = %v", x, tv, nv)
		}
	}
}

func TestStudentTQuantileKnown(t *testing.T) {
	// t(ν=4) 97.5% quantile is 2.776.
	if got := StudentTQuantile(0.975, 4); !almostEq(got, 2.776, 2e-3) {
		t.Errorf("t4 quantile(0.975) = %v, want 2.776", got)
	}
	// Heavier tails than the Gaussian for small ν.
	if StudentTQuantile(0.975, 3) <= NormalQuantile(0.975) {
		t.Error("t(3) should have heavier tails than the Gaussian")
	}
}

func TestStudentTPDFIntegratesToOne(t *testing.T) {
	var sum float64
	const dx = 0.01
	for x := -60.0; x < 60; x += dx {
		sum += StudentTPDF(x, 3) * dx
	}
	if !almostEq(sum, 1, 2e-3) {
		t.Errorf("∫t3 pdf = %v, want 1", sum)
	}
}

func TestStudentTStdFactor(t *testing.T) {
	if !math.IsInf(StudentTStdFactor(2), 1) {
		t.Error("ν=2 should have infinite std")
	}
	if got := StudentTStdFactor(10); !almostEq(got, math.Sqrt(10.0/8), 1e-12) {
		t.Errorf("std factor(10) = %v", got)
	}
}

func TestGumbelQuantileCDFRoundTrip(t *testing.T) {
	for _, q := range []float64{0.05, 0.5, 0.95, 0.99} {
		x := GumbelQuantile(q, 2, 3)
		if got := GumbelCDF(x, 2, 3); !almostEq(got, q, 1e-9) {
			t.Errorf("Gumbel CDF(Quantile(%v)) = %v", q, got)
		}
	}
}

// TestGumbelThresholdMatchesQuantile: the hoisted threshold equals
// GumbelQuantile bit for bit over a grid of q, mu and beta, including the
// degenerate q ≤ 0 and q ≥ 1 guards and a NaN q.
func TestGumbelThresholdMatchesQuantile(t *testing.T) {
	qs := []float64{math.Inf(-1), -0.5, 0, 1e-300, 1e-9, 0.05, 0.5, 0.9, 0.99, 0.995,
		0.999999, math.Nextafter(1, 0), 1, 1.5, math.Inf(1), math.NaN()}
	params := []float64{-1e300, -3.25, -1, 0, 1e-300, 0.5, 1, 2, 1e6, 1.7e308}
	for _, q := range qs {
		thr := NewGumbelThreshold(q)
		for _, mu := range params {
			for _, beta := range params {
				got, want := thr.Quantile(mu, beta), GumbelQuantile(q, mu, beta)
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Errorf("q=%v mu=%v beta=%v: threshold %v, GumbelQuantile %v", q, mu, beta, got, want)
				}
			}
		}
	}
}

func TestGumbelFitMoments(t *testing.T) {
	// Sample from a known Gumbel via inverse CDF and re-fit.
	r := rng.New(99)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = GumbelQuantile(r.Float64(), 10, 2)
	}
	mu, beta := GumbelFitMoments(xs)
	if !almostEq(mu, 10, 0.1) || !almostEq(beta, 2, 0.1) {
		t.Errorf("fit = (%v, %v), want (10, 2)", mu, beta)
	}
}

func TestGumbelFilterMax(t *testing.T) {
	// A well-behaved Gaussian sample with two injected spikes: the filter
	// must drop the spikes and only the spikes.
	r := rng.New(4)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.Gaussian(1000, 30)
	}
	xs[17] *= 8
	xs[140] *= 6
	kept, rejected := GumbelFilterMax(xs, 0.995)
	if rejected != 2 {
		t.Fatalf("rejected %d samples, want 2", rejected)
	}
	if len(kept) != len(xs)-2 {
		t.Fatalf("kept %d of %d", len(kept), len(xs))
	}
	for _, x := range kept {
		if x > 5000 {
			t.Errorf("spike %v survived the filter", x)
		}
	}
	// Order is preserved.
	if kept[0] != xs[0] || kept[16] != xs[16] || kept[17] != xs[18] {
		t.Error("filter reordered the surviving samples")
	}
}

func TestGumbelFilterMaxPassThrough(t *testing.T) {
	clean := []float64{10, 11, 9, 10.5, 9.5, 10.2, 9.8, 10.1}
	kept, rejected := GumbelFilterMax(clean, 0.995)
	if rejected != 0 || &kept[0] != &clean[0] {
		t.Errorf("clean sample was filtered (rejected=%d)", rejected)
	}
	// Tiny samples and degenerate quantiles pass through untouched.
	tiny := []float64{1, 100, 1}
	if kept, rejected = GumbelFilterMax(tiny, 0.995); rejected != 0 || len(kept) != 3 {
		t.Error("n<4 sample was filtered")
	}
	if _, rejected = GumbelFilterMax(clean, 0); rejected != 0 {
		t.Error("q=0 filtered")
	}
	constant := []float64{5, 5, 5, 5, 5, 5}
	if _, rejected = GumbelFilterMax(constant, 0.9); rejected != 0 {
		t.Error("constant sample was filtered")
	}
}

// TestGumbelFilterMaxNaN is the NaN-hardening regression test: a NaN
// reading used to poison the moment fit and make every x > thr comparison
// false, silently keeping the whole corrupted sample.
func TestGumbelFilterMaxNaN(t *testing.T) {
	r := rng.New(4)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = r.Gaussian(1000, 30)
	}
	xs[17] *= 8 // spike the filter must still catch
	xs[50] = math.NaN()
	xs[51] = math.NaN()
	kept, rejected := GumbelFilterMax(xs, 0.995)
	if rejected != 3 {
		t.Fatalf("rejected %d samples, want 3 (2 NaN + 1 spike)", rejected)
	}
	if len(kept) != len(xs)-3 {
		t.Fatalf("kept %d of %d", len(kept), len(xs))
	}
	for _, x := range kept {
		if math.IsNaN(x) || x > 5000 {
			t.Errorf("corrupted reading %v survived the filter", x)
		}
	}
	// NaNs alone are rejected even when the remainder is too small to fit.
	kept, rejected = GumbelFilterMax([]float64{1, math.NaN(), 2}, 0.995)
	if rejected != 1 || len(kept) != 2 {
		t.Errorf("tiny sample: kept %v rejected %d, want 2 kept / 1 rejected", kept, rejected)
	}
	// An all-NaN sample rejects everything.
	kept, rejected = GumbelFilterMax([]float64{math.NaN(), math.NaN()}, 0.995)
	if rejected != 2 || len(kept) != 0 {
		t.Errorf("all-NaN sample: kept %v rejected %d", kept, rejected)
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Error("I_0 or I_1 wrong")
	}
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.42, 0.9} {
		if got := RegIncBeta(1, 1, x); !almostEq(got, x, 1e-10) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
	if got := RegIncBeta(2.5, 4, 0.3) + RegIncBeta(4, 2.5, 0.7); !almostEq(got, 1, 1e-10) {
		t.Errorf("symmetry violated: %v", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp wrong")
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100, 1); !almostEq(got, 0.1, 1e-12) {
		t.Errorf("RelErr = %v, want 0.1", got)
	}
	// Floor prevents blow-up at zero.
	if got := RelErr(5, 0, 10); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("RelErr with floor = %v, want 0.5", got)
	}
}
