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

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100, 1); !almostEq(got, 0.1, 1e-12) {
		t.Errorf("RelErr = %v, want 0.1", got)
	}
	// Floor prevents blow-up at zero.
	if got := RelErr(5, 0, 10); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("RelErr with floor = %v, want 0.5", got)
	}
}
