// The stream subcommand runs BayesPerf's online deployment mode end to
// end: simulate a live multiplexed counter stream, correct it with
// sliding-window posterior inference on a parallel EP-engine pool, and
// report DTW-aligned per-interval error (the paper's §2 metric) for three
// estimators of the same stream — the naive sample-and-hold multiplexed
// trace, the sliding-window raw extrapolation, and the BayesPerf-corrected
// posterior — plus the adaptive-vs-round-robin multiplexing comparison and
// a stream-vs-batch totals cross-check. All pipeline plumbing lives in the
// pkg/bayesperf Session API; this file only parses flags, forks one
// simulated source per scheduling policy, and prints.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bayesperf/internal/measure"
	"bayesperf/internal/stream"
	"bayesperf/internal/uarch"
	"bayesperf/pkg/bayesperf"
)

// streamReport aggregates one catalog's streaming outcome across the two
// scheduler runs and the batch cross-check.
type streamReport struct {
	Arch      string
	Windows   int
	Intervals int
	Duration  time.Duration

	// Mean DTW-aligned per-interval relative error over all events.
	NaiveAligned     float64
	WindowedAligned  float64
	CorrectedAligned float64

	// Whole-run totals error (batch metric) for cross-checking stream
	// against the batch path.
	BatchCorrTotals  float64
	StreamCorrTotals float64

	// Posterior uncertainty under each multiplexing policy.
	RRPostStd float64
	AdPostStd float64
	AdMoves   int

	RRConverged  bool
	AdConverged  bool
	AllConverged bool

	// Inference effort of the round-robin run (the one the config line
	// describes): windows that exhausted the sweep budget, and total sweeps.
	Unconverged int
	TotalSweeps int

	// Derived-event streaming (§6.2): DTW-aligned error of each derived
	// series for the three estimators, plus per-interval posterior stds.
	DerivedRows             []bayesperf.DerivedStreamReport
	DerivedNaiveAligned     float64
	DerivedWindowedAligned  float64
	DerivedCorrectedAligned float64
}

// streamSession builds the Session for one scheduling policy from the
// resolved stream config.
func streamSession(cat *uarch.Catalog, cfg stream.Config, kind bayesperf.SchedulerKind,
	derived bool, reg *bayesperf.MetricsRegistry) (*bayesperf.Session, error) {

	return bayesperf.New(
		bayesperf.WithMetrics(reg),
		bayesperf.WithCatalog(cat),
		bayesperf.WithMux(cfg.Mux),
		bayesperf.WithWindow(cfg.Window),
		bayesperf.WithHop(cfg.Hop),
		bayesperf.WithWorkers(cfg.Workers),
		bayesperf.WithBatch(cfg.Batch),
		bayesperf.WithCovariance(cfg.Covariance),
		bayesperf.WithInference(cfg.MaxIter, cfg.Tol),
		bayesperf.WithScheduler(kind),
		bayesperf.WithDerived(derived),
	)
}

// runStreamCatalog streams one catalog end to end under both multiplexing
// policies (the same simulated stream, forked) and cross-checks against the
// batch pipeline run with the same inference budget.
func runStreamCatalog(cat *uarch.Catalog, wl measure.Workload, cfg stream.Config,
	seed uint64, derived bool, reg *bayesperf.MetricsRegistry) (streamReport, error) {

	var rep streamReport
	srcRR := bayesperf.NewSimSource(cat, wl, cfg.Mux, seed)
	srcAd := srcRR.Fork()

	rrSess, err := streamSession(cat, cfg, bayesperf.RoundRobin, derived, reg)
	if err != nil {
		return rep, err
	}
	rr, err := rrSess.RunStream(srcRR)
	if err != nil {
		return rep, err
	}
	adSess, err := streamSession(cat, cfg, bayesperf.Adaptive, false, reg)
	if err != nil {
		return rep, err
	}
	ad, err := adSess.RunStream(srcAd)
	if err != nil {
		return rep, err
	}

	rep = streamReport{
		Arch:             cat.Arch,
		Windows:          rr.Windows,
		Intervals:        rr.Intervals,
		Duration:         rr.Duration,
		NaiveAligned:     rr.NaiveAligned,
		WindowedAligned:  rr.WindowedAligned,
		CorrectedAligned: rr.CorrectedAligned,
		StreamCorrTotals: rr.CorrTotalsErr,
		RRPostStd:        rr.PostRelStd,
		AdPostStd:        ad.PostRelStd,
		AdMoves:          ad.SlotMoves,
		RRConverged:      rr.Converged,
		AdConverged:      ad.Converged,
		AllConverged:     rr.Converged && ad.Converged,
		Unconverged:      rr.UnconvergedWindows,
		TotalSweeps:      rr.TotalSweeps,

		DerivedRows:             rr.DerivedStream,
		DerivedNaiveAligned:     rr.DerivedNaiveAligned,
		DerivedWindowedAligned:  rr.DerivedWindowedAligned,
		DerivedCorrectedAligned: rr.DerivedCorrectedAligned,
	}

	// Batch cross-check: the whole-run pipeline on the same trace.
	batch, err := runCatalog(cat, wl, cfg.Mux, seed, cfg.MaxIter, cfg.Tol, reg)
	if err != nil {
		return rep, err
	}
	rep.BatchCorrTotals = batch.CorrMeanErr
	return rep, nil
}

func printStreamReport(rep streamReport, cfg stream.Config, quiet, derived bool) {
	fmt.Printf("=== %s · streaming ===\n", rep.Arch)
	// Windows/duration/converged on this line all describe the round-robin
	// run; the adaptive run's convergence is reported with its comparison
	// line below.
	fmt.Printf("window=%d hop=%d workers=%d batch=%d cov=%v gumbel=%v   %d windows in %v (converged=%v unconverged=%d sweeps=%d)\n",
		cfg.Window, cfg.Hop, cfg.Workers, cfg.Batch, cfg.Covariance, cfg.Mux.GumbelReject,
		rep.Windows, rep.Duration.Round(time.Millisecond),
		rep.RRConverged, rep.Unconverged, rep.TotalSweeps)
	if !quiet {
		fmt.Printf("aligned per-interval error (DTW, mean over events):\n")
		fmt.Printf("  raw multiplexed (sample-and-hold):   %7.3f%%\n", 100*rep.NaiveAligned)
		fmt.Printf("  sliding-window raw (no inference):   %7.3f%%\n", 100*rep.WindowedAligned)
	}
	verdict := "IMPROVED"
	if rep.CorrectedAligned >= rep.NaiveAligned {
		verdict = "NOT IMPROVED"
	}
	fmt.Printf("  bayesperf corrected:                 %7.3f%%  [%s]\n", 100*rep.CorrectedAligned, verdict)
	if derived {
		if !quiet {
			fmt.Printf("derived-event aligned error (naive / windowed / corrected, posterior std per interval):\n")
			for _, row := range rep.DerivedRows {
				fmt.Printf("  %-20s %7.3f%% / %7.3f%% / %7.3f%%   ± %.4f mean std\n",
					row.Name, 100*row.NaiveAligned, 100*row.WindowedAligned,
					100*row.CorrectedAligned, row.MeanPostStd)
			}
		}
		dVerdict := "IMPROVED"
		if rep.DerivedCorrectedAligned >= rep.DerivedWindowedAligned {
			dVerdict = "NOT IMPROVED"
		}
		fmt.Printf("derived mean aligned error: naive %.3f%% → windowed %.3f%% → corrected %.3f%%  [%s]\n",
			100*rep.DerivedNaiveAligned, 100*rep.DerivedWindowedAligned,
			100*rep.DerivedCorrectedAligned, dVerdict)
	}
	// The scheduler comparison is informational: the exit code gates on
	// the correction claim only (an IMPROVED/NOT IMPROVED tag here would
	// suggest otherwise).
	schedVerdict := "adaptive wins"
	if rep.AdPostStd >= rep.RRPostStd {
		schedVerdict = "no gain"
	}
	if !rep.AdConverged {
		schedVerdict += ", adaptive unconverged"
	}
	fmt.Printf("mean posterior rel std: round-robin %.4f%% → adaptive %.4f%% (%d slot moves, %s)\n",
		100*rep.RRPostStd, 100*rep.AdPostStd, rep.AdMoves, schedVerdict)
	fmt.Printf("stream-vs-batch corrected totals err: batch %.3f%% · stream %.3f%% (stream sees ≤%d of %d intervals per inference)\n\n",
		100*rep.BatchCorrTotals, 100*rep.StreamCorrTotals, cfg.Window, rep.Intervals)
}

// streamMain is the entry point of `bayesperf stream`.
func streamMain(args []string) {
	fs := flag.NewFlagSet("bayesperf stream", flag.ExitOnError)
	sf := addSharedFlags(fs, 100)
	window := fs.Int("window", 0, "intervals per inference window (0 = default)")
	hop := fs.Int("hop", 0, "stride between windows (0 = default)")
	workers := fs.Int("workers", 0, "parallel EP engines (0 = all cores)")
	batch := fs.Int("batch", 0, "windows fused per compiled-plan inference call (0 = default 8; posteriors are batch-size-invariant)")
	cov := fs.Bool("cov", false, "clique-covariance-aware derived posterior stds (coupled ratio inputs stop counting as independent)")
	gumbel := fs.Bool("gumbel", false, "Gumbel outlier rejection before std estimation")
	outliers := fs.Float64("outliers", 0, "probability of an injected corrupted reading per sample")
	fs.Parse(args)

	cats, err := resolveCatalogs(sf)
	if err != nil {
		fatal("bayesperf stream", 2, err)
	}
	cfg := stream.DefaultConfig()
	if cfg.Mux, err = sf.muxConfig(*gumbel, *outliers); err != nil {
		fatal("bayesperf stream", 2, err)
	}
	sink, err := newMetricsSink(*sf.metrics, *sf.metricsAddr)
	if err != nil {
		fatal("bayesperf stream", 2, err)
	}

	if *window > 0 {
		cfg.Window = *window
	}
	if *hop > 0 {
		cfg.Hop = *hop
	}
	cfg.Workers = *workers
	if *batch > 0 {
		cfg.Batch = *batch
	}
	cfg.Covariance = *cov
	maxIter, tol := sf.inference()
	if maxIter > 0 {
		cfg.MaxIter = maxIter
	}
	if tol > 0 {
		cfg.Tol = tol
	}
	cfg = cfg.WithDefaults()
	wl := measure.DefaultWorkload(*sf.intervals)
	ok := true
	for _, cat := range cats {
		rep, err := runStreamCatalog(cat, wl, cfg, *sf.seed, *sf.derived, sink.Registry())
		if err != nil {
			fatal("bayesperf stream", 1, fmt.Errorf("%s: %w", cat.Arch, err))
		}
		printStreamReport(rep, cfg, *sf.quiet, *sf.derived)
		if rep.CorrectedAligned >= rep.NaiveAligned {
			ok = false
		}
		// The derived gate mirrors the raw-event one: the correction claim
		// is asserted against the naive stream (large, seed-robust margin),
		// plus a non-regression bound against window smoothing alone — the
		// corrected-vs-windowed gap itself is dispersion-dominated per
		// interval, so a strict per-seed inequality would be a coin flip on
		// unlucky realizations even though it holds at the defaults.
		if *sf.derived && (rep.DerivedCorrectedAligned >= rep.DerivedNaiveAligned ||
			rep.DerivedCorrectedAligned >= 1.02*rep.DerivedWindowedAligned) {
			ok = false
		}
	}
	// Snapshot before the exit gate so a NOT IMPROVED run still reports its
	// pipeline metrics.
	if err := sink.Flush(); err != nil {
		fatal("bayesperf stream", 1, err)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bayesperf stream: correction did not improve on the raw multiplexed stream")
		os.Exit(1)
	}
}
