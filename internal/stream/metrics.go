package stream

import (
	"log"

	"bayesperf/internal/obs"
)

// warnf is the engine's one-line warning sink, a package variable so tests
// can capture it.
var warnf = log.Printf

// engineMetrics is the stream layer's instrument set. It is held by value:
// the zero value (metrics off) carries nil instruments whose methods —
// including span starts — are free no-ops, so the engine records
// unconditionally without branching on a registry.
type engineMetrics struct {
	intervals    *obs.Counter
	windows      *obs.Counter
	batches      *obs.Counter
	fillRatio    *obs.Histogram
	gumbel       *obs.Counter
	liveOutliers *obs.Counter
	quarantined  *obs.Counter
	settleWaits  *obs.Counter
	// Queued jobs the producer ran itself while it waited on the pool, by
	// kind.
	callerBatches *obs.Counter
	callerSettles *obs.Counter

	// Per-stage latency histograms along the ingest → window-snapshot →
	// batch-dispatch → infer-sweep → stitch → settle → report path, one
	// observation per stage execution (per interval, window, pool batch,
	// batch, window, settled range and run respectively). Flush executes
	// its partial batch on the calling goroutine, so dispatch times pool
	// dispatches only; infer and settle are recorded on whichever goroutine
	// runs them. Dispatch and the sampled ingest stage include the queued
	// jobs the producer ran while it waited on the pool.
	stIngest   *obs.Histogram
	stSnapshot *obs.Histogram
	stDispatch *obs.Histogram
	stInfer    *obs.Histogram
	stStitch   *obs.Histogram
	stSettle   *obs.Histogram
	stReport   *obs.Histogram
}

// newEngineMetrics registers the stream-layer instruments on r (eagerly, so
// a snapshot taken before any traffic still lists every metric at zero); a
// nil registry returns the zero (metrics-off) set.
func newEngineMetrics(r *obs.Registry) engineMetrics {
	if r == nil {
		return engineMetrics{}
	}
	stage := func(name string) *obs.Histogram {
		return r.Histogram("bayesperf_stream_stage_seconds",
			"Latency per pipeline stage execution (ingest=interval sampled 1-in-16, snapshot/stitch=window sampled 1-in-8, dispatch=pool batch, infer=batch, settle=settled range, report=run).",
			obs.LatencyBuckets(), obs.Label{Key: "stage", Value: name})
	}
	callerJobs := func(kind string) *obs.Counter {
		return r.Counter("bayesperf_stream_caller_jobs_total",
			"Queued pool jobs the producer ran itself while it waited on the worker pool (kind=batch: a batch of windows, kind=settle: a settle block).",
			obs.Label{Key: "kind", Value: kind})
	}
	return engineMetrics{
		intervals: r.Counter("bayesperf_stream_intervals_total",
			"Interval samples ingested by the streaming engine."),
		windows: r.Counter("bayesperf_stream_windows_total",
			"Sliding windows snapshotted and dispatched for inference."),
		batches: r.Counter("bayesperf_stream_batches_total",
			"Window batches executed: full ones by the worker pool, or by the producer while it waits on the pool, partial ones by Flush on the calling goroutine."),
		fillRatio: r.Histogram("bayesperf_stream_batch_fill_ratio",
			"Fraction of an executed batch's lanes actually filled with windows (partial batches come from Flush/Finish).",
			obs.RatioBuckets()),
		gumbel: r.Counter("bayesperf_stream_gumbel_rejected_total",
			"Window readings rejected by the Gumbel outlier filter at snapshot time."),
		liveOutliers: r.Counter("bayesperf_stream_live_outliers_total",
			"Live samples denied full noise precision by the streaming Gumbel test."),
		quarantined: r.Counter("bayesperf_stream_quarantined_total",
			"Window observations left for the invariants to infer because the window total or variance overflowed."),
		settleWaits: r.Counter("bayesperf_stream_settle_waits_total",
			"Hand-offs the producer waited for before reusing ring space that a settle job on the worker pool still held."),
		callerBatches: callerJobs("batch"),
		callerSettles: callerJobs("settle"),

		stIngest:   stage("ingest"),
		stSnapshot: stage("snapshot"),
		stDispatch: stage("dispatch"),
		stInfer:    stage("infer"),
		stStitch:   stage("stitch"),
		stSettle:   stage("settle"),
		stReport:   stage("report"),
	}
}
