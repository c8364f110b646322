package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"bayesperf/internal/measure"
	"bayesperf/internal/rng"
	"bayesperf/pkg/bayesperf"
)

// Load shape shared by every workload: one producer goroutine feeding one
// Session at a time (a closed loop with one client), two inference workers,
// 24-interval windows, eight-window batches.
const (
	workers    = 2
	window     = 24
	batchWidth = 8
	// phaseIntervals sizes a session: DefaultWorkload(5000) is 15,000
	// intervals of compute, then memory, then branchy phases.
	phaseIntervals = 5000
	// noiseStreams is how many measurement-noise streams set-up samples;
	// sessions cycle through them.
	noiseStreams = 16
	// warmupSessions run untimed before measuring, so lazy runtime set-up
	// and cache warm-up stay out of the timed sessions.
	warmupSessions = 5
	// minSessions keeps at least ten sessions beyond the 90th percentile.
	minSessions = 100
	// maxSessions caps a timed loop on a fast machine.
	maxSessions = 2000
	// setupRepeats is how often set-up runs; setup_s is the fastest. A
	// set-up lands in the host's slow mode (see bench.timed) a third of the
	// time or more, so the median of nine flips between modes from run to
	// run, while the fastest repeats within a few percent.
	setupRepeats = 9
	// outlierMag is the injected outlier magnitude, as the CLI's -outliers.
	outlierMag = 8
)

// workload is one benchmark configuration: a catalog, an engine
// configuration and an input generator. BENCHMARK.json records why each
// one exists.
type workload struct {
	name     string
	catalog  string // registry name, or a JSON spec path relative to the repository root
	hop      int
	fast     bool    // fast-math inference kernel
	cov      bool    // clique-covariance-aware derived stds
	gumbel   bool    // Gumbel outlier rejection
	outliers float64 // probability of an injected outlier reading
	nanFrac  float64 // share of readings the generator replaces with NaN
	// adaptive feeds a live sampler under measure.NewAdaptive, exposed via
	// Scheduler(), so RunStream closes the epoch feedback loop. Other
	// workloads replay pre-sampled round-robin streams.
	adaptive bool
}

var workloads = []workload{
	{name: "rr-exact", catalog: "skylake", hop: 4},
	{name: "tumbling-fast", catalog: "examples/catalogs/neoverse.json", hop: 24, fast: true},
	{name: "adaptive-epoch", catalog: "skylake", hop: 4, adaptive: true},
	{name: "dirty-cov", catalog: "skylake", hop: 4, cov: true, gumbel: true, outliers: 0.02, nanFrac: 0.001},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// session builds the workload's Session. reg attaches a metrics registry
// (nil for untraced sessions).
func (w workload) session(cat *bayesperf.Catalog, nworkers int, reg *bayesperf.MetricsRegistry) (*bayesperf.Session, error) {
	opts := []bayesperf.Option{
		bayesperf.WithCatalog(cat),
		bayesperf.WithWindow(window),
		bayesperf.WithHop(w.hop),
		bayesperf.WithBatch(batchWidth),
		bayesperf.WithWorkers(nworkers),
		bayesperf.WithFastMath(w.fast),
		bayesperf.WithCovariance(w.cov),
		bayesperf.WithGumbelReject(w.gumbel),
		bayesperf.WithMetrics(reg),
	}
	if w.outliers > 0 {
		opts = append(opts, bayesperf.WithOutliers(w.outliers, outlierMag))
	}
	return bayesperf.New(opts...)
}

// windowStarts lists the first interval of every window the engine builds
// over a stream of n intervals: one per hop once the window has filled,
// plus a tail window when the last hop leaves intervals uncovered.
func windowStarts(n, window, hop int) []int {
	if n <= 0 {
		return nil
	}
	if n < window {
		return []int{0}
	}
	var starts []int
	for end := window; end <= n; end += hop {
		starts = append(starts, end-window)
	}
	if starts[len(starts)-1]+window < n {
		starts = append(starts, n-window)
	}
	return starts
}

// recording is one interval stream in pointer-free form, so the garbage
// collector never scans it: per interval the live group and its readings,
// packed back to back.
type recording struct {
	group  []int16   // index into fixture.events
	values []float64 // readings of every interval, in order
}

// fixture is a workload's set-up: everything built before the first
// session, from the seed alone.
type fixture struct {
	w     workload
	cat   *bayesperf.Catalog
	sess  *bayesperf.Session // the two-worker Session every untraced session runs on
	cfg   bayesperf.Config
	truth *bayesperf.Trace
	seeds []uint64 // measurement-noise seed per input stream
	// Pre-sampled streams (nil for adaptive workloads) and the counted
	// events of each live group, indexed by recording.group.
	streams []*recording
	events  [][]bayesperf.EventID
	// sampleNs is the mean Sampler.Next time while pre-sampling.
	sampleNs float64
}

// intervals is the session length.
func (f *fixture) intervals() int { return f.truth.Intervals() }

// epoch is the number of intervals between scheduler decisions: the
// adaptive scheduler's plan length, and the window length elsewhere.
func (f *fixture) epoch() int {
	if f.w.adaptive {
		return measure.NewAdaptive(f.cat, f.cfg.Window).EpochLen()
	}
	return f.cfg.Window
}

// loadCatalog resolves a workload's catalog by registry name or JSON spec.
func loadCatalog(root, name string) (*bayesperf.Catalog, error) {
	var spec bayesperf.Spec
	if filepath.Ext(name) == ".json" {
		var err error
		if spec, err = bayesperf.LoadSpecFile(filepath.Join(root, name)); err != nil {
			return nil, err
		}
	} else {
		var ok bool
		if spec, ok = bayesperf.LookupCatalog(name); !ok {
			return nil, fmt.Errorf("unknown catalog %q", name)
		}
	}
	cat, err := spec.Catalog()
	if err != nil {
		return nil, err
	}
	return cat, bayesperf.ValidateModels(cat)
}

// setup builds a workload's fixture: catalog, Session, ground truth, and
// (except for the adaptive workload, whose sampler must run live) the
// pre-sampled noise streams.
func setup(root string, w workload, seed uint64, phaseLen int) (*fixture, error) {
	cat, err := loadCatalog(root, w.catalog)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	sess, err := w.session(cat, workers, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	cfg := sess.Config()
	r := rng.New(seed)
	f := &fixture{
		w:     w,
		cat:   cat,
		sess:  sess,
		cfg:   cfg,
		truth: bayesperf.GroundTruth(cat, bayesperf.DefaultWorkload(phaseLen), r.Uint64()),
		seeds: make([]uint64, noiseStreams),
	}
	for i := range f.seeds {
		f.seeds[i] = r.Uint64()
	}
	if w.adaptive {
		return f, nil
	}
	var spent time.Duration
	calls := 0
	for _, s := range f.seeds {
		rec, d := f.presample(s)
		f.streams = append(f.streams, rec)
		spent += d
		calls += f.intervals()
	}
	f.sampleNs = float64(spent.Nanoseconds()) / float64(calls)
	return f, nil
}

// presample records one round-robin noise stream, replacing readings with
// NaN at the workload's rate. It returns the time spent in Sampler.Next.
func (f *fixture) presample(seed uint64) (*recording, time.Duration) {
	n := f.intervals()
	smp := measure.NewSampler(f.truth, f.cfg.Mux, measure.NewRoundRobin(f.cat), rng.New(seed))
	nan := rng.New(^seed)
	rec := &recording{group: make([]int16, 0, n)}
	var spent time.Duration
	for {
		t0 := time.Now()
		iv, ok := smp.Next()
		spent += time.Since(t0)
		if !ok {
			break
		}
		for i := range iv.Values {
			if f.w.nanFrac > 0 && nan.Float64() < f.w.nanFrac {
				iv.Values[i] = math.NaN()
			}
		}
		f.record(rec, iv)
	}
	return rec, spent
}

// record appends one interval to rec, registering its group's counted
// events. The sampler allocates every interval's slices afresh, so they
// are kept without copying.
func (f *fixture) record(rec *recording, iv bayesperf.Interval) {
	g := iv.Group + 1
	for len(f.events) <= g {
		f.events = append(f.events, nil)
	}
	if f.events[g] == nil {
		f.events[g] = iv.Events
	}
	rec.group = append(rec.group, int16(g))
	rec.values = append(rec.values, iv.Values...)
}

// boundary is the timing state a source keeps at its boundary with the
// Session: the decision gaps every run records (two clock reads per
// epoch), and in traced sessions a timestamp on every Next entry and exit.
type boundary struct {
	epoch  int
	served int           // intervals returned so far
	mark   time.Duration // exit of the Next that ended an epoch; 0 when none is pending
	gaps   []time.Duration

	// Traced sessions: enter[i] and exit[i] of the i-th Next call.
	traced      bool
	calls       int
	enter, exit []time.Duration

	// heap, when set, records the live heap after a GC inside the final
	// Next, just before the engine's Finish.
	heap      bool
	heapBytes uint64
}

// clockBase anchors every benchmark timestamp.
var clockBase = time.Now()

func now() time.Duration { return time.Since(clockBase) }

func newBoundary(epoch, intervals int, traced bool) *boundary {
	p := &boundary{epoch: epoch, gaps: make([]time.Duration, 0, intervals/epoch+1), traced: traced}
	if traced {
		p.enter = make([]time.Duration, intervals+1)
		p.exit = make([]time.Duration, intervals+1)
	}
	return p
}

// reset readies the boundary for another session.
func (p *boundary) reset() {
	p.served, p.mark, p.calls, p.gaps = 0, 0, 0, p.gaps[:0]
}

func (p *boundary) begin() {
	if p.traced {
		p.enter[p.calls] = now()
	} else if p.mark > 0 {
		p.gaps = append(p.gaps, now()-p.mark)
		p.mark = 0
	}
}

func (p *boundary) end(ok bool) {
	if !ok && p.heap {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.heapBytes = ms.HeapAlloc
	}
	if ok {
		p.served++
	}
	if p.traced {
		p.exit[p.calls] = now()
		p.calls++
	} else if ok && p.served%p.epoch == 0 {
		p.mark = now()
	}
}

// replaySource serves a pre-sampled stream to a Session. Like a live
// stream it hides its ground truth and its length.
type replaySource struct {
	cat    *bayesperf.Catalog
	events [][]bayesperf.EventID
	rec    *recording
	t, off int
	p      *boundary
}

func (s *replaySource) Catalog() *bayesperf.Catalog { return s.cat }

func (s *replaySource) Next() (bayesperf.Interval, bool) {
	s.p.begin()
	if s.t == len(s.rec.group) {
		s.p.end(false)
		return bayesperf.Interval{}, false
	}
	g := s.rec.group[s.t]
	ev := s.events[g]
	end := s.off + len(ev)
	iv := bayesperf.Interval{T: s.t, Group: int(g) - 1, Events: ev, Values: s.rec.values[s.off:end:end]}
	s.t, s.off = s.t+1, end
	s.p.end(true)
	return iv, true
}

// liveSource runs the sampler inside Next under the adaptive scheduler it
// exposes, so the Session closes the §5 feedback loop every epoch. keep,
// when set, records the served intervals for the graph replay.
type liveSource struct {
	smp   *measure.Sampler
	sched *measure.AdaptiveScheduler
	p     *boundary
	keep  *recording
	f     *fixture
}

func (s *liveSource) Catalog() *bayesperf.Catalog    { return s.smp.Catalog() }
func (s *liveSource) Scheduler() bayesperf.Scheduler { return s.sched }

func (s *liveSource) Next() (bayesperf.Interval, bool) {
	s.p.begin()
	iv, ok := s.smp.Next()
	if ok && s.keep != nil {
		s.f.record(s.keep, iv)
	}
	s.p.end(ok)
	return iv, ok
}

// source builds the Source for input stream k.
func (f *fixture) source(k int, p *boundary) bayesperf.Source {
	p.reset()
	k %= len(f.seeds)
	if f.w.adaptive {
		sched := measure.NewAdaptive(f.cat, f.cfg.Window)
		return &liveSource{
			smp:   measure.NewSampler(f.truth, f.cfg.Mux, sched, rng.New(f.seeds[k])),
			sched: sched,
			p:     p,
			f:     f,
		}
	}
	return &replaySource{cat: f.cat, events: f.events, rec: f.streams[k], p: p}
}
