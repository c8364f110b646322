package main

import (
	"testing"

	"bayesperf/internal/measure"
	"bayesperf/internal/stats"
	"bayesperf/internal/uarch"
	"bayesperf/pkg/bayesperf"
)

// mustRunCatalog fails the test on pipeline errors (the CLI exits instead).
func mustRunCatalog(t *testing.T, cat *uarch.Catalog, wl measure.Workload,
	mux measure.MuxConfig, seed uint64, maxIter int, tol float64) *bayesperf.Report {
	t.Helper()
	rep, err := runCatalog(cat, wl, mux, seed, maxIter, tol, nil)
	if err != nil {
		t.Fatalf("%s: %v", cat.Arch, err)
	}
	return rep
}

// TestDefaultRunImproves is the literal acceptance criterion: at the CLI's
// default configuration (seed 42, 200 intervals/phase, 1% noise), the
// corrected mean relative error is strictly below the raw multiplexed error
// on both built-in catalogs.
func TestDefaultRunImproves(t *testing.T) {
	wl := measure.DefaultWorkload(200)
	cfg := measure.DefaultMuxConfig()
	for _, cat := range uarch.Catalogs() {
		rep := mustRunCatalog(t, cat, wl, cfg, 42, 500, 1e-9)
		if !rep.Converged {
			t.Errorf("%s: inference did not converge (%d iters)", cat.Arch, rep.Iters)
		}
		if rep.CorrMeanErr >= rep.RawMeanErr {
			t.Errorf("%s: corrected mean err %.4f%% not below raw %.4f%%",
				cat.Arch, 100*rep.CorrMeanErr, 100*rep.RawMeanErr)
		}
	}
}

// TestCorrectionIsStatisticallyBetter checks the guarantee the Bayesian
// projection actually provides: the correction minimizes error in the
// observation-precision-weighted norm, so individual unlucky realizations
// may see a hair more mean relative error, but (a) the worst case stays
// tightly bounded and (b) the improvement pooled across seeds is large.
func TestCorrectionIsStatisticallyBetter(t *testing.T) {
	wl := measure.DefaultWorkload(200)
	cfg := measure.DefaultMuxConfig()
	for _, cat := range uarch.Catalogs() {
		var margin stats.Running
		for seed := uint64(1); seed <= 15; seed++ {
			rep := mustRunCatalog(t, cat, wl, cfg, seed, 500, 1e-9)
			if !rep.Converged {
				t.Errorf("%s seed=%d: inference did not converge", cat.Arch, seed)
			}
			// Never materially worse than raw on any single run.
			if rep.CorrMeanErr > 1.05*rep.RawMeanErr {
				t.Errorf("%s seed=%d: corrected err %.4f%% exceeds 1.05× raw %.4f%%",
					cat.Arch, seed, 100*rep.CorrMeanErr, 100*rep.RawMeanErr)
			}
			margin.Add((rep.RawMeanErr - rep.CorrMeanErr) / rep.RawMeanErr)
		}
		// Pooled across seeds the correction must deliver a real win.
		if margin.Mean() < 0.10 {
			t.Errorf("%s: pooled mean improvement %.1f%% < 10%%", cat.Arch, 100*margin.Mean())
		}
	}
}

// TestDerivedEnsembleImproves is the batch half of the §6.2 derived-event
// acceptance: pooled over the CLI's seed ensemble, the corrected derived
// error (IPC, MPKI, …) is below the raw multiplexed one on both catalogs,
// and every reported derived posterior carries a positive delta-method std.
func TestDerivedEnsembleImproves(t *testing.T) {
	wl := measure.DefaultWorkload(200)
	cfg := measure.DefaultMuxConfig()
	for _, cat := range uarch.Catalogs() {
		rep := mustRunCatalog(t, cat, wl, cfg, 42, 500, 1e-9)
		dRaw, dCorr, err := derivedEnsemble(rep, cat, wl, cfg, 42, 500, 1e-9, nil)
		if err != nil {
			t.Fatalf("%s: %v", cat.Arch, err)
		}
		if dCorr >= dRaw {
			t.Errorf("%s: pooled corrected derived err %.4f%% not below raw %.4f%%",
				cat.Arch, 100*dCorr, 100*dRaw)
		}
		if len(rep.Derived) != len(cat.Derived) {
			t.Fatalf("%s: %d derived rows, want %d", cat.Arch, len(rep.Derived), len(cat.Derived))
		}
		for _, d := range rep.Derived {
			if d.Std <= 0 {
				t.Errorf("%s/%s: posterior std %v, want > 0", cat.Arch, d.Name, d.Std)
			}
			// The delta-method std must be in a sane relationship to the
			// value: neither collapsed nor wider than the value itself.
			if d.Std > d.Truth {
				t.Errorf("%s/%s: posterior std %v exceeds the value %v", cat.Arch, d.Name, d.Std, d.Truth)
			}
		}
	}
}

// TestDerivedEnsembleSeedWrap: a base seed near the top of the uint64
// range must still pool a full-size ensemble (member seeds may wrap, the
// loop must not terminate early on overflow).
func TestDerivedEnsembleSeedWrap(t *testing.T) {
	wl := measure.DefaultWorkload(30)
	cfg := measure.DefaultMuxConfig()
	cat := uarch.Skylake()
	seed := ^uint64(0) - 3 // wraps after 4 of the 11 members
	base := mustRunCatalog(t, cat, wl, cfg, seed, 200, 1e-8)
	dRaw, dCorr, err := derivedEnsemble(base, cat, wl, cfg, seed, 200, 1e-8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dRaw <= 0 || dCorr <= 0 {
		t.Errorf("wrapped-seed ensemble pooled nothing: raw %v corrected %v", dRaw, dCorr)
	}
}

// TestHighNoiseRegime stresses the observation model: with 5× the default
// measurement noise the correction must still deliver at default seed.
func TestHighNoiseRegime(t *testing.T) {
	wl := measure.DefaultWorkload(150)
	cfg := measure.DefaultMuxConfig()
	cfg.NoiseFrac = 0.05
	for _, cat := range uarch.Catalogs() {
		rep := mustRunCatalog(t, cat, wl, cfg, 42, 500, 1e-9)
		if rep.CorrMeanErr >= rep.RawMeanErr {
			t.Errorf("%s: high-noise corrected err %.4f%% not below raw %.4f%%",
				cat.Arch, 100*rep.CorrMeanErr, 100*rep.RawMeanErr)
		}
	}
}
