package stream

import (
	"math"
	"strconv"
	"testing"

	"bayesperf/internal/measure"
	"bayesperf/internal/rng"
	"bayesperf/internal/timeseries"
	"bayesperf/internal/uarch"
)

// fastStreamTol bounds the stitched fast-vs-exact drift of the posterior
// mean series, and of the std series where message passing is exact. It
// inherits the graph-level accuracy gate (fastAccuracyTol in
// internal/graph) with one decade of headroom for the stitcher's
// hop-overlap averaging accumulating per-window deltas.
const fastStreamTol = 1e-6

// fastDerivedStdTol bounds the covariance-aware derived-event posterior
// std series where message passing is exact. It is looser than
// fastStreamTol because that series consumes clique correlations, and a
// correlation whose cavity precision sits near the vanishing floor is
// ill-conditioned in message passing (see the conditioning note on the
// graph-level accuracy gate); the bound asserts the drift stays below
// anything a consumer of an uncertainty band could perceive, not bit-level
// agreement.
const fastDerivedStdTol = 1e-3

// loopyStdTol and loopyDerivedStdTol bound the std series on a catalog
// whose relation graph has loops (Skylake). There the default kernel's
// stds are the exact posterior's, while the fast kernel approximates loopy
// message passing and inherits its variance error: 4.1% on correctedStd
// and 2.0% on derivedCorrectedStd at most on this trace. The gates leave
// 2× headroom; they assert the fast kernel's uncertainty bands stay close,
// not that they are exact.
const (
	loopyStdTol        = 0.08
	loopyDerivedStdTol = 0.04
)

// TestStreamFastMathAccuracy: a -fast streaming run must stitch the same
// story as the exact kernel on the same trace — every corrected and
// derived mean series within fastStreamTol relative, and every std series
// within its catalog's gate — with covariance-aware derived stds on.
// Power9's relation graph is a tree, where message passing is exact, so
// its std series keep the tight gates.
func TestStreamFastMathAccuracy(t *testing.T) {
	for _, tc := range []struct {
		arch             *uarch.Catalog
		stdTol, derivTol float64
	}{
		{uarch.Skylake(), loopyStdTol, loopyDerivedStdTol},
		{uarch.Power9(), fastStreamTol, fastDerivedStdTol},
	} {
		arch := tc.arch
		tr := measure.GroundTruth(arch, measure.DefaultWorkload(60), rng.New(5))
		runWith := func(fast bool) *Result {
			cfg := testConfig(2)
			cfg.Covariance = true
			cfg.FastMath = fast
			return RunTrace(tr, measure.NewRoundRobin(arch), cfg, rng.New(6))
		}
		exact := runWith(false)
		fast := runWith(true)
		if fast.Windows != exact.Windows || fast.Intervals != exact.Intervals {
			t.Fatalf("%s: fast shape %d/%d vs exact %d/%d", arch.Arch,
				fast.Windows, fast.Intervals, exact.Windows, exact.Intervals)
		}
		within := func(name string, a, b []timeseries.Series, tol float64) {
			t.Helper()
			worst := 0.0
			for id := range b {
				for ti := range b[id] {
					d := math.Abs(a[id][ti]-b[id][ti]) / math.Max(math.Abs(b[id][ti]), 1)
					if d > tol || math.IsNaN(a[id][ti]) {
						t.Fatalf("%s: %s[%d][%d] = %v, exact %v (rel delta %.3g > %g)",
							arch.Arch, name, id, ti, a[id][ti], b[id][ti], d, tol)
					}
					worst = math.Max(worst, d)
				}
			}
			t.Logf("%s: %s max rel delta %.3g (gate %g)", arch.Arch, name, worst, tol)
		}
		within("corrected", fast.Corrected, exact.Corrected, fastStreamTol)
		within("correctedStd", fast.CorrectedStd, exact.CorrectedStd, tc.stdTol)
		within("derivedCorrected", fast.DerivedCorrected, exact.DerivedCorrected, fastStreamTol)
		within("derivedCorrectedStd", fast.DerivedCorrectedStd, exact.DerivedCorrectedStd, tc.derivTol)
	}
}

// TestStreamFastMathDeterministic pins the fast schedule's streaming
// contract: like the exact kernel, its stitched output is bit-identical
// for any worker count × batch width (the fast kernel is lane-invariant,
// so no grouping of windows into Execute calls may leak into the result).
func TestStreamFastMathDeterministic(t *testing.T) {
	cat := uarch.Skylake()
	tr := measure.GroundTruth(cat, measure.DefaultWorkload(60), rng.New(5))
	var base *Result
	var baseLabel string
	for _, batch := range []int{1, 3, 8, 64} {
		for _, workers := range []int{1, 4} {
			cfg := testConfig(workers)
			cfg.Batch = batch
			cfg.Covariance = true
			cfg.FastMath = true
			label := "batch=" + strconv.Itoa(batch) + " workers=" + strconv.Itoa(workers)
			res := RunTrace(tr, measure.NewRoundRobin(cat), cfg, rng.New(6))
			if base == nil {
				base, baseLabel = res, label
				continue
			}
			if res.Windows != base.Windows || res.Intervals != base.Intervals {
				t.Fatalf("%s: shape %d/%d vs %s %d/%d", label,
					res.Windows, res.Intervals, baseLabel, base.Windows, base.Intervals)
			}
			check := func(name string, a, b []timeseries.Series) {
				t.Helper()
				for id := range b {
					for ti := range b[id] {
						if a[id][ti] != b[id][ti] {
							t.Fatalf("%s: %s[%d][%d] = %v, want %v (%s)",
								label, name, id, ti, a[id][ti], b[id][ti], baseLabel)
						}
					}
				}
			}
			check("corrected", res.Corrected, base.Corrected)
			check("correctedStd", res.CorrectedStd, base.CorrectedStd)
			check("derivedCorrected", res.DerivedCorrected, base.DerivedCorrected)
			check("derivedCorrectedStd", res.DerivedCorrectedStd, base.DerivedCorrectedStd)
			if res.PostRelStd != base.PostRelStd {
				t.Errorf("%s: posterior-std pool diverged from %s", label, baseLabel)
			}
		}
	}
}
