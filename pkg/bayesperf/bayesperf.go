// Package bayesperf is the embeddable public surface of the BayesPerf
// pipeline (Banerjee, Jha, Kalbarczyk, Iyer — ASPLOS'21): build a Session
// with functional options, hand it a Source of multiplexed counter
// intervals, and get back one unified Report with raw, windowed and
// corrected estimates plus derived-event posteriors.
//
//	spec, _ := bayesperf.LoadSpecFile("zen.json")
//	sess, _ := bayesperf.New(bayesperf.WithSpec(spec), bayesperf.WithDerived(true))
//	src := bayesperf.NewSimSource(sess.Catalog(), bayesperf.DefaultWorkload(100),
//		bayesperf.DefaultMuxConfig(), 42)
//	rep, _ := sess.RunStream(src)
//	ipc := rep.Stream.DerivedCorrected[0] // per-interval posterior series
//
// Catalogs are data: a uarch.Spec (re-exported here) describes events,
// counter constraints, invariants and derived metrics, round-trips through
// JSON, and resolves by name via the registry (RegisterCatalog /
// LookupCatalog / CatalogNames). Sample sources are pluggable: anything
// implementing Source — the simulated SimSource and the streaming
// measure.Sampler ship in-tree, and a live perf-event reader is a third
// implementation, not a rewrite.
package bayesperf

import (
	"fmt"
	"io"
	"math"
	"time"

	"bayesperf/internal/graph"
	"bayesperf/internal/measure"
	"bayesperf/internal/obs"
	"bayesperf/internal/rng"
	"bayesperf/internal/stream"
	"bayesperf/internal/uarch"
)

// Re-exported vocabulary types. These are aliases, so values flow freely
// between the facade and code that (inside this module) uses the internal
// packages directly.
type (
	// Catalog is one CPU's event model: events, counter-placement
	// constraints, invariants, derived metrics.
	Catalog = uarch.Catalog
	// EventID indexes an event within its catalog.
	EventID = uarch.EventID
	// Spec is the JSON-serializable data form of a Catalog.
	Spec = uarch.Spec
	// Interval is one sampling interval's live counter readings.
	Interval = measure.IntervalSample
	// Workload is a phase-structured simulated workload.
	Workload = measure.Workload
	// MuxConfig is the multiplexed-measurement observation model.
	MuxConfig = measure.MuxConfig
	// Trace is a ground-truth per-event time series.
	Trace = measure.Trace
	// Scheduler decides which event group owns the PMU each interval.
	Scheduler = measure.Scheduler
	// Sampler is the streaming simulated source (implements Source).
	Sampler = measure.Sampler
	// StreamResult is the stitched per-interval output of a streamed run.
	StreamResult = stream.Result
	// Config is the resolved engine configuration (window/hop/workers/
	// inference budget/observation model), as returned by Session.Config.
	Config = stream.Config
	// MetricsRegistry collects the pipeline's instrumentation (counters,
	// gauges, latency histograms, span traces) across every layer of a run;
	// see WithMetrics. Snapshot it with WritePrometheus/WriteJSON/Snapshot.
	MetricsRegistry = obs.Registry
	// MetricLabel is one constant label on a registered instrument.
	MetricLabel = obs.Label
)

// NewMetricsRegistry returns an empty metrics registry to hand to
// WithMetrics. One registry can serve any number of sessions and runs;
// instruments aggregate across them.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// DefaultWorkload returns the three-phase evaluation workload.
func DefaultWorkload(intervalsPerPhase int) Workload {
	return measure.DefaultWorkload(intervalsPerPhase)
}

// DefaultMuxConfig returns the paper's perf-stat-like observation model.
func DefaultMuxConfig() MuxConfig { return measure.DefaultMuxConfig() }

// LoadSpec decodes a catalog spec from JSON.
func LoadSpec(r io.Reader) (Spec, error) { return uarch.LoadSpec(r) }

// LoadSpecFile reads a catalog spec from a JSON file.
func LoadSpecFile(path string) (Spec, error) { return uarch.LoadSpecFile(path) }

// RegisterCatalog adds a named spec to the catalog registry.
func RegisterCatalog(name string, s Spec) error { return uarch.Register(name, s) }

// LookupCatalog returns a registered spec by name ("skylake", "power9", …).
func LookupCatalog(name string) (Spec, bool) { return uarch.Lookup(name) }

// CatalogNames returns every registered catalog name, sorted.
func CatalogNames() []string { return uarch.Names() }

// GroundTruth simulates the workload on the catalog's idealized core.
func GroundTruth(cat *Catalog, wl Workload, seed uint64) *Trace {
	return measure.GroundTruth(cat, wl, rng.New(seed))
}

// ValidateModels checks that every event in the catalog declares a
// ground-truth model over known primitives, so the simulated sources
// (NewSimSource, GroundTruth) cannot panic on it. Call it after loading a
// spec from untrusted input before building simulated sources; catalogs
// fed only by real measurement sources do not need models.
func ValidateModels(cat *Catalog) error { return measure.ValidateModels(cat) }

// SchedulerKind selects the multiplexing policy a Session assigns to
// sources that do not bring their own scheduler.
type SchedulerKind int

const (
	// RoundRobin cycles the event groups evenly — perf's default policy.
	RoundRobin SchedulerKind = iota
	// Adaptive steers multiplexing slots toward the groups whose events
	// the posterior is least certain about (the paper's §5 feedback loop).
	Adaptive
)

// Session owns the graph and stream plumbing of one correction pipeline
// configuration. Build it once with New and functional options, then call
// RunBatch or RunStream any number of times; each run is independent.
type Session struct {
	cat     *Catalog
	cfg     stream.Config
	sched   SchedulerKind
	derived bool
	obs     *obs.Registry
}

// Option configures a Session.
type Option func(*Session) error

// New builds a Session from the default configuration (24-interval windows
// sliding by 4, round-robin multiplexing, 1% measurement noise) and the
// given options. The observation model the options leave must pass
// MuxConfig.Validate.
func New(opts ...Option) (*Session, error) {
	s := &Session{cfg: stream.DefaultConfig()}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if err := s.cfg.Mux.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// WithCatalog binds the session to a catalog. Optional: a session without a
// catalog adopts the catalog of the first source it runs.
func WithCatalog(c *Catalog) Option {
	return func(s *Session) error {
		if c == nil {
			return fmt.Errorf("bayesperf: WithCatalog(nil)")
		}
		s.cat = c
		return nil
	}
}

// WithSpec binds the session to the catalog a spec describes.
func WithSpec(spec Spec) Option {
	return func(s *Session) error {
		cat, err := spec.Catalog()
		if err != nil {
			return err
		}
		s.cat = cat
		return nil
	}
}

// WithCatalogFile binds the session to a catalog loaded from a JSON spec
// file.
func WithCatalogFile(path string) Option {
	return func(s *Session) error {
		spec, err := uarch.LoadSpecFile(path)
		if err != nil {
			return err
		}
		return WithSpec(spec)(s)
	}
}

// WithWindow sets the streaming inference window length in intervals.
func WithWindow(n int) Option {
	return func(s *Session) error {
		s.cfg.Window = n
		return nil
	}
}

// WithHop sets the stride between consecutive streaming windows.
func WithHop(n int) Option {
	return func(s *Session) error {
		s.cfg.Hop = n
		return nil
	}
}

// WithWorkers sets the number of parallel EP engines (0 = all cores,
// capped at 8).
func WithWorkers(n int) Option {
	return func(s *Session) error {
		s.cfg.Workers = n
		return nil
	}
}

// WithBatch sets how many streaming windows each EP engine fuses into one
// compiled-plan inference call (0 = default 8). Batch width never changes
// a posterior bit — each lane runs the identical per-window arithmetic —
// it only amortizes the message-schedule walk across more windows.
func WithBatch(n int) Option {
	return func(s *Session) error {
		if n < 0 {
			return fmt.Errorf("bayesperf: negative batch width %d", n)
		}
		s.cfg.Batch = n
		return nil
	}
}

// WithCovariance switches derived-event posterior stds from the diagonal
// delta method to clique-covariance-aware propagation: input pairs that
// share a microarchitectural invariant contribute their factor-graph
// posterior correlation to the delta method's cross terms, in both batch
// reports and the streamed per-interval std series.
func WithCovariance(on bool) Option {
	return func(s *Session) error {
		s.cfg.Covariance = on
		return nil
	}
}

// WithFastMath is ignored: every window, batch or stream, is solved in
// closed form, so a session built with it reports bit for bit what one
// built without it does.
//
// Deprecated: WithFastMath selects nothing. It remains only until the
// repository benchmark (bench/) stops passing it.
func WithFastMath(bool) Option {
	return func(*Session) error { return nil }
}

// WithInference bounds the message passing that runs only for windows the
// closed-form solve cannot certify (the data leave a direction
// undetermined, or the relations pinning the unobserved events are too
// ill-conditioned): the maximum sweeps and the convergence tolerance on
// posterior means (zero keeps the respective default).
func WithInference(maxIter int, tol float64) Option {
	return func(s *Session) error {
		if maxIter > 0 {
			s.cfg.MaxIter = maxIter
		}
		if tol > 0 {
			s.cfg.Tol = tol
		}
		return nil
	}
}

// WithScheduler selects the multiplexing policy assigned to sources that do
// not bring their own scheduler (see SimSource.SetScheduler).
func WithScheduler(kind SchedulerKind) Option {
	return func(s *Session) error {
		if kind != RoundRobin && kind != Adaptive {
			return fmt.Errorf("bayesperf: unknown scheduler kind %d", kind)
		}
		s.sched = kind
		return nil
	}
}

// WithGumbelReject toggles CounterMiner-style Gumbel outlier rejection in
// the observation model.
func WithGumbelReject(on bool) Option {
	return func(s *Session) error {
		s.cfg.Mux.GumbelReject = on
		return nil
	}
}

// WithDerived toggles derived-event evaluation in stream reports (the
// DTW-aligned derived error columns; the per-interval derived posterior
// series in Report.Stream are always produced).
func WithDerived(on bool) Option {
	return func(s *Session) error {
		s.derived = on
		return nil
	}
}

// WithNoise sets the relative per-interval measurement noise of the
// observation model.
func WithNoise(frac float64) Option {
	return func(s *Session) error {
		s.cfg.Mux.NoiseFrac = frac
		return nil
	}
}

// WithOutliers configures injected corrupted readings: each counted value
// is, with probability prob, inflated by mag×.
func WithOutliers(prob, mag float64) Option {
	return func(s *Session) error {
		s.cfg.Mux.OutlierProb = prob
		s.cfg.Mux.OutlierMag = mag
		return nil
	}
}

// WithMetrics attaches a metrics registry to the session: every subsequent
// run records its pipeline instrumentation there — session run counters and
// durations, stream stage latencies and batch fill ratios, graph
// sweep/convergence/kernel counters, measurement-layer drop and rejection
// counters, and (adaptive runs) scheduler epoch decisions. Nil detaches.
// Results are bitwise identical with metrics on or off.
func WithMetrics(r *MetricsRegistry) Option {
	return func(s *Session) error {
		s.obs = r
		return nil
	}
}

// WithMux replaces the whole observation model.
func WithMux(m MuxConfig) Option {
	return func(s *Session) error {
		s.cfg.Mux = m
		return nil
	}
}

// Catalog returns the session's bound catalog (nil until bound).
func (s *Session) Catalog() *Catalog { return s.cat }

// Config returns the resolved streaming configuration.
func (s *Session) Config() Config { return s.cfg.WithDefaults() }

// bindCatalog resolves the catalog for a run: the session's, or — when the
// session has none — the source's. A bound session rejects sources bound to
// a different catalog, since EventIDs would not align; distinct instances
// are accepted only when their event lists match name for name (e.g. the
// builder catalog vs. its spec-loaded twin).
func (s *Session) bindCatalog(src Source) (*Catalog, error) {
	sc := src.Catalog()
	if s.cat == nil {
		if sc == nil {
			return nil, fmt.Errorf("bayesperf: neither session nor source is bound to a catalog")
		}
		s.cat = sc
		return sc, nil
	}
	if sc == nil || sc == s.cat {
		return s.cat, nil
	}
	if sc.Arch != s.cat.Arch || sc.NumEvents() != s.cat.NumEvents() {
		return nil, fmt.Errorf("bayesperf: source catalog %s does not match session catalog %s", sc.Arch, s.cat.Arch)
	}
	for id := range sc.Events {
		if sc.Events[id].Name != s.cat.Events[id].Name {
			return nil, fmt.Errorf("bayesperf: source catalog %s does not match session catalog %s: event %d is %q vs %q",
				sc.Arch, s.cat.Arch, id, sc.Events[id].Name, s.cat.Events[id].Name)
		}
	}
	return s.cat, nil
}

// newScheduler builds the session's configured scheduler over the catalog.
func (s *Session) newScheduler(cat *Catalog) Scheduler {
	if s.sched == Adaptive {
		return measure.NewAdaptive(cat, s.cfg.WithDefaults().Window)
	}
	return measure.NewRoundRobin(cat)
}

// prepare binds the catalog, injects the session's scheduler into sources
// that accept one, and rejects simulated sources whose observation model
// diverges from the session's: the engine derives observation stds and
// Gumbel thresholds from its own MuxConfig, so a source sampling under a
// different noise model would silently mis-weight every estimate.
func (s *Session) prepare(src Source) (*Catalog, error) {
	cat, err := s.bindCatalog(src)
	if err != nil {
		return nil, err
	}
	if sim, ok := src.(*SimSource); ok {
		if sim.mux != s.cfg.Mux {
			return nil, fmt.Errorf("bayesperf: source observation model differs from the session's — build the source with the session's MuxConfig (or align the session via WithMux)")
		}
		if sim.sched == nil {
			sim.SetScheduler(s.newScheduler(cat))
		}
	}
	return cat, nil
}

// sourceScheduler reports the scheduler actually driving the source, when
// the source exposes one.
func sourceScheduler(src Source) Scheduler {
	if sg, ok := src.(interface{ Scheduler() Scheduler }); ok {
		return sg.Scheduler()
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// checkInterval validates the n-th interval (from 0) a source emitted:
// one value per event, every event inside the catalog and none twice. The
// Session checks here, at its boundary, so neither mode indexes past a
// catalog, and the stream engine's per-event window rings never hold more
// readings than the window has intervals. seen is the run's bitset of the
// catalog's events (newSeen): each check sets one bit per event and clears
// them again, so it is O(events in the interval) for any catalog size.
func checkInterval(cat *Catalog, seen []uint64, iv Interval, n int) error {
	if len(iv.Values) != len(iv.Events) {
		return fmt.Errorf("bayesperf: source interval %d has %d values for %d events",
			n, len(iv.Values), len(iv.Events))
	}
	var err error
	k := 0
	for _, id := range iv.Events {
		if id < 0 || int(id) >= cat.NumEvents() {
			err = fmt.Errorf("bayesperf: source interval %d emitted event %d outside catalog %s", n, id, cat.Arch)
			break
		}
		w, bit := &seen[id/64], uint64(1)<<(id%64)
		if *w&bit != 0 {
			err = fmt.Errorf("bayesperf: source interval %d emitted event %d twice", n, id)
			break
		}
		*w |= bit
		k++
	}
	for _, id := range iv.Events[:k] {
		seen[id/64] = 0
	}
	return err
}

// newSeen returns a run's bitset of cat's events for checkInterval.
func newSeen(cat *Catalog) []uint64 { return make([]uint64, (cat.NumEvents()+63)/64) }

// checkedSource feeds the stream engine from a Source until the first
// malformed interval, keeping its error: the engine then finishes
// normally, so its workers exit before RunStream reports the error.
type checkedSource struct {
	src  Source
	cat  *Catalog
	seen []uint64
	n    int
	err  error
}

func (c *checkedSource) Next() (Interval, bool) {
	if c.err != nil {
		return Interval{}, false
	}
	iv, ok := c.src.Next()
	if !ok {
		return Interval{}, false
	}
	if c.err = checkInterval(c.cat, c.seen, iv, c.n); c.err != nil {
		return Interval{}, false
	}
	c.n++
	return iv, true
}

// sessionMetrics is the session layer's instrument set for one run mode.
// The zero value (no registry) is a free no-op set.
type sessionMetrics struct {
	runs      *obs.Counter
	seconds   *obs.Histogram
	intervals *obs.Counter
}

// sessionMetrics registers the session-layer instruments for a run mode
// ("batch" | "stream") on the session's registry.
func (s *Session) sessionMetrics(mode string) sessionMetrics {
	if s.obs == nil {
		return sessionMetrics{}
	}
	return sessionMetrics{
		runs: s.obs.Counter("bayesperf_session_runs_total",
			"Session runs started, by mode.", obs.Label{Key: "mode", Value: mode}),
		seconds: s.obs.Histogram("bayesperf_session_run_seconds",
			"Wall-clock duration of whole session runs, by mode.",
			obs.LatencyBuckets(), obs.Label{Key: "mode", Value: mode}),
		intervals: s.obs.Counter("bayesperf_session_intervals_total",
			"Interval samples consumed across all session runs."),
	}
}

// RunBatch drains the source and corrects whole-run totals: per-event §4.2
// extrapolated estimates from the counted intervals, one factor-graph
// inference over them, and derived-event posteriors. Sources exposing
// ground truth (SimSource, Sampler) additionally get raw/corrected error
// columns in the report. A malformed interval ends the run with an error,
// as in RunStream.
func (s *Session) RunBatch(src Source) (*Report, error) {
	cat, err := s.prepare(src)
	if err != nil {
		return nil, err
	}
	cfg := s.cfg.WithDefaults()
	sm := s.sessionMetrics("batch")
	mm := measure.NewMetrics(s.obs)
	sm.runs.Inc()
	start := time.Now()

	xs := make([][]float64, cat.NumEvents())
	seen := newSeen(cat)
	intervals := 0
	for {
		iv, ok := src.Next()
		if !ok {
			break
		}
		if err := checkInterval(cat, seen, iv, intervals); err != nil {
			return nil, err
		}
		for i, id := range iv.Events {
			if v := iv.Values[i]; finite(v) {
				xs[id] = append(xs[id], v)
			} else {
				mm.DroppedNonFinite.Inc()
			}
		}
		intervals++
	}
	if intervals == 0 {
		return nil, fmt.Errorf("bayesperf: source produced no intervals")
	}
	sm.intervals.Add(uint64(intervals))

	est := measure.EstimateSamples(xs, intervals, cfg.Mux)
	var rejected uint64
	for id := range est {
		rejected += uint64(est[id].Rejected)
	}
	if rejected > 0 {
		mm.GumbelRejected.Add(rejected)
	}
	g := graph.Build(cat)
	g.SetMetrics(graph.NewMetrics(s.obs))
	for id := range est {
		// Readings large enough to overflow the whole-run sums leave a
		// non-finite estimate; like the stream engine's quarantine, leave
		// the event unobserved so the invariants infer it.
		if est[id].N > 0 && finite(est[id].Total) && finite(est[id].Std) {
			g.Observe(EventID(id), est[id].Total, est[id].Std)
		}
	}
	post := g.Infer(cfg.MaxIter, cfg.Tol)
	sm.seconds.Observe(time.Since(start).Seconds())
	return s.batchReport(cat, src, est, &post, intervals), nil
}

// RunStream feeds the source through the sliding-window correction engine
// and returns the stitched per-interval posterior series (Report.Stream)
// plus, for truth-exposing sources, the DTW-aligned error of the three
// estimators. With an Adaptive scheduler the epoch feedback loop closes
// automatically. A malformed interval (an event outside the catalog, or
// values not matching events one to one) ends the run with an error.
func (s *Session) RunStream(src Source) (*Report, error) {
	cat, err := s.prepare(src)
	if err != nil {
		return nil, err
	}
	cfg := s.cfg.WithDefaults()
	cfg.Metrics = s.obs
	sched := sourceScheduler(src)
	sm := s.sessionMetrics("stream")
	sm.runs.Inc()

	start := time.Now()
	in := &checkedSource{src: src, cat: cat, seen: newSeen(cat)}
	res := stream.Run(cat, in, sched, cfg)
	dur := time.Since(start)
	if in.err != nil {
		return nil, in.err
	}
	if res.Intervals == 0 {
		return nil, fmt.Errorf("bayesperf: source produced no intervals")
	}
	sm.intervals.Add(uint64(res.Intervals))
	sm.seconds.Observe(dur.Seconds())
	return s.streamReport(cat, src, sched, res, dur)
}
