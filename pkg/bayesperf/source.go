package bayesperf

import (
	"bayesperf/internal/measure"
	"bayesperf/internal/rng"
)

// Source is a stream of multiplexed counter intervals bound to a catalog:
// the pluggable measurement side of the pipeline. Two implementations ship
// in-tree — SimSource (simulated workload) and measure.Sampler (streaming
// simulator over an existing trace) — and a live perf-event reader is a
// third implementation of this interface, not a rewrite of the pipeline.
//
// Next returns one interval's counted events and values, then false at end
// of stream. Values index-parallel Events, which name each event at most
// once; non-finite values are treated as corrupted readings and dropped by
// the consumers. Catalog reports the catalog whose EventIDs the intervals
// are expressed in. The Session copies every reading it keeps, in both run
// modes, so a source may reuse its Events and Values buffers: once Next is
// called again, nothing reads the interval it returned before.
type Source interface {
	Catalog() *Catalog
	Next() (Interval, bool)
}

// TruthSource is the optional Source extension for simulated sources that
// know their ground truth; reports from such sources carry raw/corrected
// error columns.
type TruthSource interface {
	Source
	Truth() *Trace
}

// Compile-time checks: both shipped sources implement the interfaces.
var (
	_ TruthSource = (*SimSource)(nil)
	_ TruthSource = (*measure.Sampler)(nil)
)

// SimSource is the simulated measurement source: a ground-truth workload
// trace replayed through a multiplexing scheduler with measurement noise,
// exactly the stream a real PMU driver would deliver. Its scheduler is
// assigned lazily — by SetScheduler, or by the Session that runs it
// (WithScheduler) — so one source definition serves both policies.
type SimSource struct {
	tr    *Trace
	mux   MuxConfig
	seed  uint64
	sched Scheduler
	smp   *measure.Sampler
}

// NewSimSource simulates the workload on the catalog (seed-deterministic)
// and returns a source over the resulting multiplexed stream. The seed
// discipline matches the CLI: one split for the ground truth, one for the
// measurement stream, so equal seeds mean bit-equal pipelines.
func NewSimSource(cat *Catalog, wl Workload, mux MuxConfig, seed uint64) *SimSource {
	r := rng.New(seed)
	tr := measure.GroundTruth(cat, wl, r.Split())
	return NewTraceSource(tr, mux, r.Split().Uint64())
}

// NewTraceSource wraps an existing ground-truth trace as a source; seed
// drives the measurement noise stream.
func NewTraceSource(tr *Trace, mux MuxConfig, seed uint64) *SimSource {
	return &SimSource{tr: tr, mux: mux, seed: seed}
}

// Fork returns a fresh source over the same trace, noise seed and
// observation model, with no scheduler bound: the way to replay one
// simulated run under a different multiplexing policy (the two streams are
// identical except for the schedule).
func (s *SimSource) Fork() *SimSource {
	return &SimSource{tr: s.tr, mux: s.mux, seed: s.seed}
}

// SetScheduler binds the multiplexing scheduler. It must be called before
// the first Next (Sessions do it automatically; a bare source defaults to
// round-robin).
func (s *SimSource) SetScheduler(sched Scheduler) { s.sched = sched }

// Scheduler returns the bound scheduler (nil until bound).
func (s *SimSource) Scheduler() Scheduler { return s.sched }

// Catalog returns the catalog the source's trace is bound to.
func (s *SimSource) Catalog() *Catalog { return s.tr.Cat }

// Truth returns the ground-truth trace behind the stream.
func (s *SimSource) Truth() *Trace { return s.tr }

// Intervals returns the total stream length.
func (s *SimSource) Intervals() int { return s.tr.Intervals() }

// Next emits the next interval's multiplexed sample.
func (s *SimSource) Next() (Interval, bool) {
	if s.smp == nil {
		if s.sched == nil {
			s.sched = measure.NewRoundRobin(s.tr.Cat)
		}
		s.smp = measure.NewSampler(s.tr, s.mux, s.sched, rng.New(s.seed))
	}
	return s.smp.Next()
}
