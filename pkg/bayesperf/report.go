package bayesperf

import (
	"time"

	"bayesperf/internal/graph"
	"bayesperf/internal/measure"
	"bayesperf/internal/stats"
	"bayesperf/internal/stream"
	"bayesperf/internal/timeseries"
)

// Relative-error floors, shared with the CLI's historical behavior:
// event totals here are ≥10⁵ so a floor of 1 never distorts a real error,
// while derived values are O(0.01–10) ratios and use tighter guards.
const (
	eventRelErrFloor          = 1.0
	derivedRelErrFloor        = 1e-9
	derivedAlignedRelErrFloor = 1e-3
)

// EventReport is one event's outcome in a batch run.
type EventReport struct {
	Name     string
	Fixed    bool
	Coverage float64 // fraction of intervals the event was counted in
	Raw      float64 // inverse-coverage extrapolated total (perf's scaling)
	Mean     float64 // posterior mean total
	Std      float64 // posterior std

	// Truth-based columns, valid iff Report.HasTruth.
	Truth   float64
	RawErr  float64
	CorrErr float64
}

// DerivedReport is one derived event's posterior in a batch run.
type DerivedReport struct {
	Name string
	Mean float64 // formula at the posterior mean
	Std  float64 // delta-method posterior std
	Raw  float64 // formula at the raw extrapolated totals

	// Truth-based columns, valid iff Report.HasTruth.
	Truth   float64
	RawErr  float64
	CorrErr float64
}

// DerivedStreamReport is one derived event's DTW-aligned streaming outcome
// (truth-exposing sources with WithDerived only).
type DerivedStreamReport struct {
	Name             string
	NaiveAligned     float64
	WindowedAligned  float64
	CorrectedAligned float64
	MeanPostStd      float64 // mean per-interval delta-method posterior std
	MinPostStd       float64 // smallest emitted std (stays > 0)
}

// Report is the unified outcome of a Session run. Batch runs fill the
// whole-run sections (Events, Derived, the totals errors); stream runs fill
// Stream plus the aligned-error sections. Truth-based fields are only
// meaningful when HasTruth is set (the source implements TruthSource).
type Report struct {
	Arch      string
	Intervals int
	Groups    int // multiplexing groups of the source's scheduler (0 if unknown)
	HasTruth  bool

	// Metrics echoes the registry attached via WithMetrics (nil without
	// one): the full pipeline instrumentation of every run recorded there.
	Metrics *MetricsRegistry
	// UnconvergedWindows counts inference windows that exhausted the sweep
	// budget (a batch run is one window; stream runs count per window).
	UnconvergedWindows int
	// TotalSweeps is the message-passing sweep total across all windows.
	TotalSweeps int

	// Batch: whole-run totals after one inference pass.
	Iters     int
	Converged bool
	Events    []EventReport
	Derived   []DerivedReport
	// Mean relative totals error over all events (HasTruth only).
	RawMeanErr  float64
	CorrMeanErr float64

	// Stream: stitched per-interval posterior series and run telemetry.
	Windows    int
	Duration   time.Duration
	Stream     *StreamResult
	PostRelStd float64 // pooled posterior relative std (scheduler metric)
	SlotMoves  int     // adaptive slot moves (0 under round-robin)

	// DTW-aligned per-interval error vs. truth, mean over events
	// (stream + HasTruth only).
	NaiveAligned     float64
	WindowedAligned  float64
	CorrectedAligned float64
	// Whole-run error of the summed corrected series (stream + HasTruth).
	CorrTotalsErr float64

	// Derived-event streaming evaluation (stream + HasTruth + WithDerived).
	DerivedStream           []DerivedStreamReport
	DerivedNaiveAligned     float64
	DerivedWindowedAligned  float64
	DerivedCorrectedAligned float64
}

// Improved reports the pipeline's headline verdict: the corrected estimate
// beat the raw multiplexed one. For batch reports that is the totals error;
// for stream reports the DTW-aligned per-interval error versus the naive
// sample-and-hold stream. Only meaningful with HasTruth.
func (r *Report) Improved() bool {
	if r.Stream != nil {
		return r.CorrectedAligned < r.NaiveAligned
	}
	return r.CorrMeanErr < r.RawMeanErr
}

// groupCount reads the source's scheduler group count when exposed.
func groupCount(src Source) int {
	if sched := sourceScheduler(src); sched != nil {
		return len(sched.Groups())
	}
	return 0
}

// batchReport assembles the whole-run report from the estimates and the
// posterior, a one-lane batch result.
func (s *Session) batchReport(cat *Catalog, src Source, est []measure.Sample,
	post *graph.BatchResult, intervals int) *Report {

	rep := &Report{
		Arch:        cat.Arch,
		Intervals:   intervals,
		Groups:      groupCount(src),
		Iters:       post.Iters[0],
		Converged:   post.Converged[0],
		Metrics:     s.obs,
		TotalSweeps: post.Iters[0],
	}
	if !rep.Converged {
		rep.UnconvergedWindows = 1
	}
	var truth []float64
	if ts, ok := src.(TruthSource); ok {
		truth = ts.Truth().Totals()
		rep.HasTruth = true
	}

	rawTotals := make([]float64, len(est))
	var raw, corr stats.Running
	for id := range est {
		ev := cat.Event(EventID(id))
		rawTotals[id] = est[id].Total
		er := EventReport{
			Name:     ev.Name,
			Fixed:    ev.Fixed,
			Coverage: float64(est[id].N) / float64(intervals),
			Raw:      est[id].Total,
			Mean:     post.Mean[id],
			Std:      post.Std[id],
		}
		if truth != nil {
			er.Truth = truth[id]
			er.RawErr = stats.RelErr(est[id].Total, truth[id], eventRelErrFloor)
			er.CorrErr = stats.RelErr(post.Mean[id], truth[id], eventRelErrFloor)
			raw.Add(er.RawErr)
			corr.Add(er.CorrErr)
		}
		rep.Events = append(rep.Events, er)
	}
	if truth != nil {
		rep.RawMeanErr = raw.Mean()
		rep.CorrMeanErr = corr.Mean()
	}

	for i := range cat.Derived {
		d := &cat.Derived[i]
		// WithCovariance: feed the delta method the clique posterior
		// correlations instead of treating the inputs as independent.
		var mean, std float64
		if s.cfg.Covariance {
			in := make([]float64, len(d.Inputs))
			sd := make([]float64, len(d.Inputs))
			for k, id := range d.Inputs {
				in[k], sd[k] = post.Mean[id], post.Std[id]
			}
			corr := func(a, b int) float64 { return post.Corr(0, d.Inputs[a], d.Inputs[b]) }
			mean, std = d.Eval(in), d.PropagateStdCov(in, sd, corr)
		} else {
			mean, std = d.PosteriorFrom(post.Mean, post.Std)
		}
		dr := DerivedReport{
			Name: d.Name,
			Mean: mean,
			Std:  std,
			Raw:  cat.EvalDerived(d, rawTotals),
		}
		if truth != nil {
			dr.Truth = cat.EvalDerived(d, truth)
			dr.RawErr = stats.RelErr(dr.Raw, dr.Truth, derivedRelErrFloor)
			dr.CorrErr = stats.RelErr(mean, dr.Truth, derivedRelErrFloor)
		}
		rep.Derived = append(rep.Derived, dr)
	}
	return rep
}

// streamReport assembles the streaming report, evaluating the aligned
// errors against ground truth when the source exposes it.
func (s *Session) streamReport(cat *Catalog, src Source, sched Scheduler,
	res *stream.Result, dur time.Duration) (*Report, error) {

	rep := &Report{
		Arch:               cat.Arch,
		Intervals:          res.Intervals,
		Groups:             groupCount(src),
		Windows:            res.Windows,
		Duration:           dur,
		Converged:          res.AllConverged,
		Stream:             res,
		PostRelStd:         res.PostRelStd.Mean(),
		Metrics:            s.obs,
		UnconvergedWindows: res.Unconverged,
		TotalSweeps:        res.TotalSweeps,
	}
	if ad, ok := sched.(*measure.AdaptiveScheduler); ok {
		rep.SlotMoves = ad.Moves()
	}
	ts, ok := src.(TruthSource)
	if !ok {
		return rep, nil
	}
	tr := ts.Truth()
	rep.HasTruth = true
	band := tr.Intervals() / 4

	var err error
	if rep.NaiveAligned, err = alignedMean(tr, res.NaiveRaw, band); err != nil {
		return nil, err
	}
	if rep.WindowedAligned, err = alignedMean(tr, res.WindowedRaw, band); err != nil {
		return nil, err
	}
	if rep.CorrectedAligned, err = alignedMean(tr, res.Corrected, band); err != nil {
		return nil, err
	}
	rep.CorrTotalsErr = totalsErr(tr, res.Corrected)

	// Derived-event streaming evaluation (§6.2) — only when asked for: it
	// costs one DTW alignment per estimator per derived event.
	if s.derived {
		if rep.DerivedStream, err = evalDerivedStream(cat, tr, res, band); err != nil {
			return nil, err
		}
		var dn, dw, dc stats.Running
		for _, row := range rep.DerivedStream {
			dn.Add(row.NaiveAligned)
			dw.Add(row.WindowedAligned)
			dc.Add(row.CorrectedAligned)
		}
		rep.DerivedNaiveAligned = dn.Mean()
		rep.DerivedWindowedAligned = dw.Mean()
		rep.DerivedCorrectedAligned = dc.Mean()
	}
	return rep, nil
}

// alignedMean computes the mean DTW-aligned relative error of the target
// series against the ground truth, over all events.
func alignedMean(tr *Trace, target []timeseries.Series, band int) (float64, error) {
	var errs stats.Running
	for id := range tr.Series {
		e, err := timeseries.AlignedRelError(tr.Series[id], target[id], band, eventRelErrFloor)
		if err != nil {
			return 0, err
		}
		errs.Add(e)
	}
	return errs.Mean(), nil
}

// totalsErr compares per-event series totals against the true totals.
func totalsErr(tr *Trace, series []timeseries.Series) float64 {
	truth := tr.Totals()
	var errs stats.Running
	for id := range truth {
		errs.Add(stats.RelErr(series[id].Sum(), truth[id], eventRelErrFloor))
	}
	return errs.Mean()
}

// evalDerivedStream scores the catalog's derived-event series from a
// finished stream result against the ground-truth trace. The derived
// definitions come from the session catalog — the one that sized the
// result's series — not the trace's, which bindCatalog only guarantees to
// be event-aligned; the truth series gather per-event inputs from the
// trace, where EventIDs do align.
func evalDerivedStream(cat *Catalog, tr *Trace, res *stream.Result, band int) ([]DerivedStreamReport, error) {
	rows := make([]DerivedStreamReport, 0, len(cat.Derived))
	for di := range cat.Derived {
		d := &cat.Derived[di]
		truth := stream.DerivedSeries(d, tr.Series)
		row := DerivedStreamReport{Name: d.Name}
		var err error
		if row.NaiveAligned, err = timeseries.AlignedRelError(truth, res.DerivedNaive[di], band, derivedAlignedRelErrFloor); err != nil {
			return nil, err
		}
		if row.WindowedAligned, err = timeseries.AlignedRelError(truth, res.DerivedWindowedRaw[di], band, derivedAlignedRelErrFloor); err != nil {
			return nil, err
		}
		if row.CorrectedAligned, err = timeseries.AlignedRelError(truth, res.DerivedCorrected[di], band, derivedAlignedRelErrFloor); err != nil {
			return nil, err
		}
		var stds stats.Running
		for _, v := range res.DerivedCorrectedStd[di] {
			stds.Add(v)
		}
		row.MeanPostStd = stds.Mean()
		row.MinPostStd = stds.Min()
		rows = append(rows, row)
	}
	return rows, nil
}
