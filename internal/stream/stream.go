// Package stream implements BayesPerf's online deployment mode (§5 of the
// paper): instead of correcting whole-run totals after the fact, it
// consumes a live interval stream of multiplexed counter samples and emits
// a continuous per-interval posterior series (mean ± std per event).
//
// The engine slides a Window accumulator over the stream; every hop it
// snapshots the window's observations (scaled totals plus incrementally
// re-derived Student-t stds) and fans the snapshot out to a pool of
// workers, each owning one reusable graph.Batch over the catalog's shared
// compiled plan. Posteriors come back asynchronously, are re-ordered, and
// overlapping windows are stitched into one corrected trace by precision
// weighting. The posterior uncertainty also closes the measurement loop: a
// measure.AdaptiveScheduler fed the epoch-averaged posterior
// (EpochPosterior) re-prioritizes the multiplexing groups each epoch,
// replacing pure round-robin.
package stream

import (
	"math"
	"runtime"
	"sync"

	"bayesperf/internal/graph"
	"bayesperf/internal/measure"
	"bayesperf/internal/obs"
	"bayesperf/internal/rng"
	"bayesperf/internal/stats"
	"bayesperf/internal/timeseries"
	"bayesperf/internal/uarch"
)

// Config controls the streaming engine.
type Config struct {
	// Window is the number of intervals per inference window.
	Window int
	// Hop is the stride between consecutive window starts; hop < window
	// makes the windows overlap and the stitched trace smoother.
	Hop int
	// Workers is the number of parallel EP engines (0 = all cores, capped
	// at 8 — windows are small, so more engines stop paying off).
	Workers int
	// Batch is the number of windows fused into one compiled-plan Execute
	// call per worker (0 = default 8). Each batch lane runs the identical
	// per-window arithmetic, so the stitched output is bit-identical for
	// every batch size; larger batches only amortize the schedule walk
	// across more windows.
	Batch int
	// Covariance switches the derived-event posterior std series from the
	// diagonal delta method to clique-covariance-aware propagation: each
	// window's per-relation posterior correlations are stitched alongside
	// the marginals and enter the delta method's cross terms.
	Covariance bool
	// FastMath is ignored: every window is solved in closed form.
	//
	// Deprecated: FastMath selects nothing. It remains only until the
	// repository benchmark (bench/) stops reading it.
	FastMath bool
	// MaxIter and Tol bound the damped message passing that runs only for
	// windows the closed-form solve cannot certify (the data leave a
	// direction undetermined): at most MaxIter sweeps, to a tolerance of
	// Tol on the posterior means.
	MaxIter int
	Tol     float64
	// Mux carries the observation model shared with the measurement layer:
	// noise level, std floors, and the Gumbel rejection switches.
	Mux measure.MuxConfig
	// SizeHint presizes the per-interval accumulators when the stream
	// length is known up front (0 = unknown, grow on demand).
	SizeHint int
	// Metrics, when non-nil, receives the engine's instrumentation: stage
	// latency histograms, window/batch counters, ingestion-quality counters,
	// and the graph layer's per-Execute outcomes (see internal/obs). Nil
	// keeps every recording site a free no-op; the stitched output is
	// bitwise identical either way.
	Metrics *obs.Registry
}

// DefaultConfig returns the evaluation defaults: 24-interval windows
// sliding by 4. The window length balances two pressures — much larger
// windows smear phase boundaries and lose per-interval accuracy faster
// than their extra samples pay back, while shorter ones pin every group's
// per-window sample count to the Student-t finite-variance floor and
// leave the adaptive scheduler no slack to reallocate.
func DefaultConfig() Config {
	return Config{
		Window:  24,
		Hop:     4,
		Batch:   8,
		MaxIter: 500,
		Tol:     1e-9,
		Mux:     measure.DefaultMuxConfig(),
	}
}

// WithDefaults fills zero fields and clamps inconsistent ones; NewEngine
// applies it automatically, callers only need it to display the resolved
// configuration.
func (c Config) WithDefaults() Config {
	if c.Window <= 0 {
		c.Window = 24
	}
	if c.Hop <= 0 {
		c.Hop = 4
	}
	if c.Hop > c.Window {
		c.Hop = c.Window // a hop past the window would leave coverage gaps
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.Batch <= 0 {
		c.Batch = 8
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 500
	}
	if c.Tol <= 0 {
		c.Tol = 1e-9
	}
	return c
}

// WindowPosterior is one window's inference output: posterior mean and std
// of every event's window total, plus the echoed observation model so the
// stitcher can weight raw and corrected series identically.
type WindowPosterior struct {
	Index      int
	Start, End int
	Mean, Std  []float64
	ObsStd     []float64
	Disp       []float64
	Observed   []bool
	// Rho is the window's posterior correlation per tracked event pair
	// (the engine's covPairs order): clique correlations of derived-input
	// pairs that share an invariant. Nil unless Config.Covariance.
	Rho       []float64
	Iters     int
	Converged bool
}

// Result is the outcome of one streamed run.
type Result struct {
	Intervals int
	Windows   int
	// Corrected and CorrectedStd are the stitched per-interval posterior
	// series (rates per interval), indexed by EventID.
	Corrected    []timeseries.Series
	CorrectedStd []timeseries.Series
	// WindowedRaw is the same sliding-window estimate without inference:
	// what window smoothing alone buys.
	WindowedRaw []timeseries.Series
	// NaiveRaw is the live multiplexed baseline: per interval, each
	// event's most recent counted sample (sample-and-hold extrapolation).
	NaiveRaw []timeseries.Series
	// Derived-event posterior series (§2 "Errors in Derived Events"),
	// indexed like the catalog's Derived slice. DerivedCorrected evaluates
	// each formula at the stitched posterior mean per interval;
	// DerivedCorrectedStd is the first-order delta-method std propagated
	// from CorrectedStd through the formula's gradient at that point.
	// DerivedWindowedRaw and DerivedNaive push the two baselines through
	// the same formulas, so the three estimators stay comparable.
	DerivedCorrected    []timeseries.Series
	DerivedCorrectedStd []timeseries.Series
	DerivedWindowedRaw  []timeseries.Series
	DerivedNaive        []timeseries.Series
	// PostRelStd pools each window's posterior relative std over all
	// events — the uncertainty metric the adaptive scheduler minimizes.
	PostRelStd stats.Running
	// InferIters pools per-window message-passing sweep counts, reduced
	// across the worker pool via stats.Running.Merge.
	InferIters stats.Running
	// AllConverged reports whether every window's inference converged.
	AllConverged bool
	// Unconverged counts the windows whose inference exhausted MaxIter
	// without meeting Tol (AllConverged == (Unconverged == 0)).
	Unconverged int
	// TotalSweeps is the message-passing sweep total across all windows.
	TotalSweeps int
	// Reprioritizations counts adaptive slot-plan rebuilds (0 under
	// round-robin).
	Reprioritizations int
}

// Engine is the streaming correction pipeline. Feed it intervals with
// Ingest, optionally Flush at epoch boundaries to read back the
// epoch-averaged posterior, then Finish to drain the pool and collect the
// stitched trace.
// An Engine is single-producer: Ingest/Flush/Finish must come from one
// goroutine (the worker pool parallelism is internal).
type Engine struct {
	cat  *uarch.Catalog
	cfg  Config
	plan *graph.Plan // compiled once, shared read-only by every worker

	win         *Window
	ingested    int
	lastEmitEnd int
	nextIdx     int
	pending     int

	// Snapshotted windows accumulate here until a full batch (cfg.Batch)
	// is ready to dispatch; Flush and Finish dispatch partial batches.
	jobBuf  []windowJob
	jobs    chan []windowJob
	results chan WindowPosterior
	wg      sync.WaitGroup

	// Tracked posterior-correlation pairs (Config.Covariance): the derived
	// formulas' input pairs that share a relation clique. derivedPairs maps
	// each derived metric onto its pairs' indices.
	covPairs     []covPair
	derivedPairs [][]pairRef
	rhoNum       [][]float64 // per pair, per interval: Σ tri·ρ over windows
	rhoDen       [][]float64 // per pair, per interval: Σ tri

	// Out-of-order posteriors park here until their index is next; all
	// stitching happens in index order so results are bit-identical for
	// any worker count.
	parked   map[int]WindowPosterior
	stitched int

	// Per-event stitch accumulators, grown one slot per interval. The
	// stitched estimate at an interval is the inverse-variance fusion of
	// every covering window's estimate plus — when the event was live that
	// interval — the counted sample itself, whose per-interval noise
	// precision dwarfs any window's rate precision. Live fusion is what
	// keeps fully counted events at sample resolution instead of window
	// resolution; it applies identically to the raw and corrected series,
	// so their difference isolates the inference layer.
	corrNum [][]float64 // Σ w·posteriorRate over covering windows
	corrDen [][]float64 // Σ w
	stdNum  [][]float64 // Σ w·posteriorRateStd
	rawNum  [][]float64 // Σ w·observedRate
	rawDen  [][]float64
	liveNum [][]float64 // wv·sample at counted intervals (0 elsewhere)
	liveDen [][]float64
	liveStd [][]float64 // wv·sampleStd
	naive   [][]float64
	lastVal []float64
	firstT  []int // first interval each event was counted (-1 if never)

	postRelStd  stats.Running
	workerIters []stats.Running
	converged   bool
	unconverged int
	totalSweeps int
	tri         []float64 // per-window triangular kernel scratch

	// Instrumentation (all nil-safe no-ops when Config.Metrics is nil):
	// stream-stage instruments, the shared measure-layer counters, the
	// graph layer's per-Execute recorder handed to every worker batch, and
	// the once-per-engine non-finite-drop warning latch.
	m          engineMetrics
	mm         measure.Metrics
	gm         *graph.Metrics
	warnedDrop bool

	// Epoch feedback accumulators: per-event posterior (and observation)
	// sums over the windows stitched since the last EpochPosterior call.
	// Averaging a whole epoch's windows gives the adaptive scheduler a far
	// less noisy urgency signal than any single window.
	epochMean   []float64
	epochStd    []float64
	epochObsStd []float64
	epochObsN   []int
	epochN      int
}

// covPair is one tracked posterior-correlation pair.
type covPair struct {
	a, b uarch.EventID
}

// pairRef ties a derived metric's input positions (i < j) to the tracked
// pair's index in the engine's covPairs.
type pairRef struct {
	i, j, pi int
}

// NewEngine starts a streaming engine (and its worker pool) over the
// catalog. The factor graph is compiled once here; every worker executes
// batches of windows against the shared plan.
func NewEngine(cat *uarch.Catalog, cfg Config) *Engine {
	cfg = cfg.WithDefaults()
	ne := cat.NumEvents()
	e := &Engine{
		cat:         cat,
		cfg:         cfg,
		plan:        graph.Compile(cat),
		win:         NewWindow(cat, cfg.Window),
		jobs:        make(chan []windowJob, 2*cfg.Workers),
		results:     make(chan WindowPosterior, 4*cfg.Workers),
		parked:      make(map[int]WindowPosterior),
		corrNum:     make([][]float64, ne),
		corrDen:     make([][]float64, ne),
		stdNum:      make([][]float64, ne),
		rawNum:      make([][]float64, ne),
		rawDen:      make([][]float64, ne),
		liveNum:     make([][]float64, ne),
		liveDen:     make([][]float64, ne),
		liveStd:     make([][]float64, ne),
		naive:       make([][]float64, ne),
		lastVal:     make([]float64, ne),
		firstT:      make([]int, ne),
		epochMean:   make([]float64, ne),
		epochStd:    make([]float64, ne),
		epochObsStd: make([]float64, ne),
		epochObsN:   make([]int, ne),
		workerIters: make([]stats.Running, cfg.Workers),
		converged:   true,
		m:           newEngineMetrics(cfg.Metrics),
		mm:          measure.NewMetrics(cfg.Metrics),
		gm:          graph.NewMetrics(cfg.Metrics),
	}
	for id := range e.firstT {
		e.firstT[id] = -1
	}
	if cfg.SizeHint > 0 {
		for id := 0; id < ne; id++ {
			for _, arr := range []*[]float64{
				&e.corrNum[id], &e.corrDen[id], &e.stdNum[id],
				&e.rawNum[id], &e.rawDen[id],
				&e.liveNum[id], &e.liveDen[id], &e.liveStd[id],
				&e.naive[id],
			} {
				*arr = make([]float64, 0, cfg.SizeHint)
			}
		}
	}
	e.tri = make([]float64, cfg.Window)
	e.jobBuf = make([]windowJob, 0, cfg.Batch)
	if cfg.Covariance {
		e.buildCovPairs()
	}
	e.wg.Add(cfg.Workers)
	for wi := 0; wi < cfg.Workers; wi++ {
		go e.worker(wi)
	}
	return e
}

// buildCovPairs enumerates the derived formulas' input pairs that share a
// relation clique — the pairs whose posterior correlation each window must
// report for covariance-aware derived stds — deduplicated across formulas.
func (e *Engine) buildCovPairs() {
	e.derivedPairs = make([][]pairRef, len(e.cat.Derived))
	index := make(map[[2]uarch.EventID]int)
	for di := range e.cat.Derived {
		d := &e.cat.Derived[di]
		for i := 0; i < len(d.Inputs); i++ {
			for j := i + 1; j < len(d.Inputs); j++ {
				a, b := d.Inputs[i], d.Inputs[j]
				if a == b || !e.plan.SharesClique(a, b) {
					continue
				}
				key := [2]uarch.EventID{a, b}
				if a > b {
					key = [2]uarch.EventID{b, a}
				}
				pi, ok := index[key]
				if !ok {
					pi = len(e.covPairs)
					index[key] = pi
					e.covPairs = append(e.covPairs, covPair{a: key[0], b: key[1]})
				}
				e.derivedPairs[di] = append(e.derivedPairs[di], pairRef{i: i, j: j, pi: pi})
			}
		}
	}
	e.rhoNum = make([][]float64, len(e.covPairs))
	e.rhoDen = make([][]float64, len(e.covPairs))
	if e.cfg.SizeHint > 0 {
		for pi := range e.rhoNum {
			e.rhoNum[pi] = make([]float64, 0, e.cfg.SizeHint)
			e.rhoDen[pi] = make([]float64, 0, e.cfg.SizeHint)
		}
	}
}

// worker is one EP engine: it owns one batch over the engine's shared
// compiled plan, re-observes its lanes per dispatched batch of windows,
// and executes them in a single schedule walk. The steady state allocates
// only the posteriors it ships back.
func (e *Engine) worker(wi int) {
	defer e.wg.Done()
	batch := e.plan.NewBatch(e.cfg.Batch)
	batch.SetMetrics(e.gm)
	if len(e.covPairs) > 0 {
		batch.EnableCovariance()
	}
	var iters stats.Running
	var br *graph.BatchResult // reused across batches; Window copies lanes out
	for jobs := range e.jobs {
		batch.ClearObservations()
		for lane, job := range jobs {
			for id, ok := range job.observed {
				if ok {
					batch.Observe(lane, uarch.EventID(id), job.obsMean[id], job.obsStd[id])
				}
			}
		}
		sp := obs.StartSpan(e.m.stInfer)
		br = batch.ExecuteInto(br, len(jobs), e.cfg.MaxIter, e.cfg.Tol)
		sp.End()
		for lane, job := range jobs {
			res := br.Window(lane)
			iters.Add(float64(res.Iters))
			var rho []float64
			if len(e.covPairs) > 0 {
				rho = make([]float64, len(e.covPairs))
				for pi, p := range e.covPairs {
					rho[pi] = res.Corr(p.a, p.b)
				}
			}
			e.results <- WindowPosterior{
				Index: job.index, Start: job.start, End: job.end,
				Mean: res.Mean, Std: res.Std,
				ObsStd: job.obsStd, Disp: job.disp, Observed: job.observed,
				Rho:   rho,
				Iters: res.Iters, Converged: res.Converged,
			}
		}
	}
	e.workerIters[wi] = iters
}

// Ingest feeds one interval into the window; at hop boundaries the window
// is snapshotted and dispatched to the pool.
func (e *Engine) Ingest(s measure.IntervalSample) {
	// Ingest is the only per-interval stage, so its latency span is sampled
	// 1-in-16: two clock reads per interval would be the single largest
	// instrumentation cost of the whole pipeline, while a sampled histogram
	// of a stage this uniform loses nothing.
	var sp obs.Span
	if e.ingested&0xf == 0 {
		sp = obs.StartSpan(e.m.stIngest)
	}
	defer sp.End()
	e.m.intervals.Inc()
	for i, id := range s.Events {
		if !finite(s.Values[i]) {
			// Corrupted reading: keep it out of the naive series. Count the
			// drop (once per reading — the fusion loop below skips the same
			// values) and warn the first time this stream drops one.
			e.mm.DroppedNonFinite.Inc()
			if !e.warnedDrop {
				e.warnedDrop = true
				warnf("stream: dropping non-finite reading for event %s at interval %d "+
					"(further drops counted in bayesperf_measure_dropped_nonfinite_total)",
					e.cat.Event(id).Name, e.ingested)
			}
			continue
		}
		e.lastVal[id] = s.Values[i]
		if e.firstT[id] < 0 {
			e.firstT[id] = e.ingested
		}
	}
	for id := range e.naive {
		e.corrNum[id] = append(e.corrNum[id], 0)
		e.corrDen[id] = append(e.corrDen[id], 0)
		e.stdNum[id] = append(e.stdNum[id], 0)
		e.rawNum[id] = append(e.rawNum[id], 0)
		e.rawDen[id] = append(e.rawDen[id], 0)
		e.liveNum[id] = append(e.liveNum[id], 0)
		e.liveDen[id] = append(e.liveDen[id], 0)
		e.liveStd[id] = append(e.liveStd[id], 0)
		e.naive[id] = append(e.naive[id], e.lastVal[id])
	}
	for pi := range e.rhoNum {
		e.rhoNum[pi] = append(e.rhoNum[pi], 0)
		e.rhoDen[pi] = append(e.rhoDen[pi], 0)
	}
	e.win.Push(s)
	e.ingested++
	// Fuse the live samples at their own interval. With Gumbel rejection
	// on, a sample the trailing window's fit flags as an outlier is not
	// trusted at full noise precision (the window estimate, itself
	// filtered, covers its interval instead).
	for i, id := range s.Events {
		v := s.Values[i]
		if !finite(v) {
			continue // corrupted reading: no live-precision fusion either
		}
		if e.cfg.Mux.GumbelReject && e.win.lastIsOutlier(id, e.cfg.Mux.RejectQuantile()) {
			e.m.liveOutliers.Inc()
			continue
		}
		sv := e.cfg.Mux.NoiseFrac * v
		if floor := e.cfg.Mux.StdFloorFrac * v; sv < floor {
			sv = floor
		}
		if sv == 0 { //bayesvet:bitwise exact-zero sentinel: std was assigned zero, never computed
			sv = 1 // zero reading: unit count uncertainty
		}
		wv := 1 / (sv * sv)
		t := e.ingested - 1
		e.liveNum[id][t] = wv * v
		e.liveDen[id][t] = wv
		e.liveStd[id][t] = wv * sv
	}
	if e.ingested >= e.cfg.Window && (e.ingested-e.cfg.Window)%e.cfg.Hop == 0 {
		e.emit()
	}
}

// emit snapshots the current window into the batch buffer; a full buffer
// (cfg.Batch windows) is dispatched to the pool as one batched job.
func (e *Engine) emit() {
	// Per-window spans are sampled 1-in-8 like the per-interval ingest span:
	// snapshot latency is uniform across windows and the clock reads would
	// otherwise be the dominant cost of instrumenting this stage.
	var sp obs.Span
	if e.nextIdx&7 == 0 {
		sp = obs.StartSpan(e.m.stSnapshot)
	}
	job := e.win.snapshot(e.nextIdx, e.cfg.Mux)
	sp.End()
	e.m.windows.Inc()
	if job.rejected > 0 {
		e.m.gumbel.Add(uint64(job.rejected))
	}
	e.stitchRaw(job)
	e.nextIdx++
	e.pending++
	e.lastEmitEnd = job.end
	e.jobBuf = append(e.jobBuf, job)
	if len(e.jobBuf) == e.cfg.Batch {
		e.dispatch()
	}
}

// dispatch hands the buffered windows (a full or partial batch) to the
// pool, absorbing finished posteriors whenever the job queue pushes back.
func (e *Engine) dispatch() {
	if len(e.jobBuf) == 0 {
		return
	}
	jobs := e.jobBuf
	e.jobBuf = make([]windowJob, 0, e.cfg.Batch)
	e.m.batches.Inc()
	e.m.fillRatio.Observe(float64(len(jobs)) / float64(e.cfg.Batch))
	sp := obs.StartSpan(e.m.stDispatch)
	defer sp.End()
	for {
		select {
		case e.jobs <- jobs:
			return
		case r := <-e.results:
			e.absorb(r)
		}
	}
}

// absorb parks one posterior and immediately stitches the contiguous
// prefix: stitching stays in strict window-index order (deterministic for
// any worker count) while the parked map stays O(workers) on arbitrarily
// long streams instead of accumulating every window until Finish.
func (e *Engine) absorb(r WindowPosterior) {
	e.parked[r.Index] = r
	e.pending--
	for {
		next, ok := e.parked[e.stitched]
		if !ok {
			return
		}
		delete(e.parked, e.stitched)
		var sp obs.Span
		if e.stitched&7 == 0 { // sampled 1-in-8, matching emit's snapshot span
			sp = obs.StartSpan(e.m.stStitch)
		}
		e.stitchCorrected(next)
		sp.End()
		e.stitched++
	}
}

// Flush dispatches any partially filled batch and blocks until every
// emitted window's posterior has been stitched. Call it at epoch
// boundaries before reading EpochPosterior, so the scheduler feedback does
// not depend on worker timing (or on where the epoch falls within a
// batch).
func (e *Engine) Flush() {
	e.dispatch()
	for e.pending > 0 {
		e.absorb(<-e.results)
	}
}

// triWeight is the stitching kernel: a window's estimate is most
// representative of its center, so its weight ramps linearly from the
// edges (where a boundary-straddling window smears the most) to the
// middle. Combined with precision weighting this keeps the effective
// smoothing kernel at one window width instead of two.
func triWeight(t, start, end int) float64 {
	span := float64(end - start)
	center := float64(start) + (span-1)/2
	return 1 - math.Abs(float64(t)-center)/((span+1)/2)
}

// triKernel fills e.tri with the window's triangular weights so the
// per-event stitch loops do one multiply per point instead of recomputing
// the kernel event-by-event.
func (e *Engine) triKernel(start, end int) []float64 {
	w := end - start
	if cap(e.tri) < w {
		e.tri = make([]float64, w)
	}
	tri := e.tri[:w]
	for i := range tri {
		tri[i] = triWeight(start+i, start, end)
	}
	return tri
}

// predictivePrec is the weight of a window's estimate when predicting one
// interval's value: the inverse of (mean-estimate variance + within-window
// dispersion²), per the law of total variance. Dispersion is what keeps a
// window from claiming sample-level certainty about any single interval.
func predictivePrec(rateStd, disp float64) float64 {
	return 1 / math.Max(rateStd*rateStd+disp*disp, 1e-300)
}

// stitchRaw folds one window's uncorrected observations into the windowed
// raw baseline, weighted by predictive precision.
//
//bayesperf:hotpath
func (e *Engine) stitchRaw(job windowJob) {
	w := float64(job.end - job.start)
	tri := e.triKernel(job.start, job.end)
	for id, ok := range job.observed {
		if !ok {
			continue
		}
		rate := job.obsMean[id] / w
		prec := predictivePrec(job.obsStd[id]/w, job.disp[id])
		num := e.rawNum[id][job.start:job.end]
		den := e.rawDen[id][job.start:job.end]
		for i, k := range tri {
			wt := prec * k
			num[i] += wt * rate
			den[i] += wt
		}
	}
}

// stitchCorrected folds one window's posterior into the corrected series
// and the pooled uncertainty metric. Runs strictly in window-index order.
// The stitch weight is the same observation precision stitchRaw uses (the
// posterior stds of overlapping windows are correlated, so they are
// reported, not used as weights): raw and corrected then differ only in
// the estimate each window contributes.
//
//bayesperf:hotpath
func (e *Engine) stitchCorrected(r WindowPosterior) {
	w := float64(r.End - r.Start)
	e.converged = e.converged && r.Converged
	if !r.Converged {
		e.unconverged++
	}
	e.totalSweeps += r.Iters
	tri := e.triKernel(r.Start, r.End)
	for id := range r.Mean {
		rate := r.Mean[id] / w
		rateStd := r.Std[id] / w
		weightStd := rateStd
		if r.Observed[id] {
			weightStd = r.ObsStd[id] / w
		}
		prec := predictivePrec(weightStd, r.Disp[id])
		num := e.corrNum[id][r.Start:r.End]
		den := e.corrDen[id][r.Start:r.End]
		std := e.stdNum[id][r.Start:r.End]
		for i, k := range tri {
			wt := prec * k
			num[i] += wt * rate
			den[i] += wt
			std[i] += wt * rateStd
		}
		scale := math.Abs(r.Mean[id])
		if scale < 1 {
			scale = 1
		}
		e.postRelStd.Add(r.Std[id] / scale)
		e.epochMean[id] += r.Mean[id]
		e.epochStd[id] += r.Std[id]
		if r.Observed[id] {
			e.epochObsStd[id] += r.ObsStd[id]
			e.epochObsN[id]++
		}
	}
	// Stitch the tracked clique correlations with the triangular kernel
	// alone: ρ is dimensionless and the windows covering an interval see
	// near-identical observation precisions, so precision weighting would
	// only re-derive the kernel. The stitched ρ̄(t) recombines with the
	// stitched marginal stds in stitchDerived.
	for pi := range r.Rho {
		rho := r.Rho[pi]
		rn := e.rhoNum[pi][r.Start:r.End]
		rd := e.rhoDen[pi][r.Start:r.End]
		for i, k := range tri {
			rn[i] += k * rho
			rd[i] += k
		}
	}
	e.epochN++
}

// EpochPosterior returns the per-event posterior mean/std and observation
// std averaged over the windows stitched since the previous call (valid
// after a Flush; obsStd is 0 where the event went unobserved all epoch),
// and resets the accumulator — the feedback signal for
// measure.(*AdaptiveScheduler).Reprioritize.
func (e *Engine) EpochPosterior() (mean, std, obsStd []float64, ok bool) {
	if e.epochN == 0 {
		return nil, nil, nil, false
	}
	n := float64(e.epochN)
	mean = make([]float64, len(e.epochMean))
	std = make([]float64, len(e.epochStd))
	obsStd = make([]float64, len(e.epochObsStd))
	for id := range mean {
		mean[id] = e.epochMean[id] / n
		std[id] = e.epochStd[id] / n
		if e.epochObsN[id] > 0 {
			obsStd[id] = e.epochObsStd[id] / float64(e.epochObsN[id])
		}
		e.epochMean[id] = 0
		e.epochStd[id] = 0
		e.epochObsStd[id] = 0
		e.epochObsN[id] = 0
	}
	e.epochN = 0
	return mean, std, obsStd, true
}

// Finish emits a final window over the stream's tail (so every interval is
// covered), drains the pool, and assembles the stitched result. The engine
// cannot be used after Finish.
func (e *Engine) Finish() *Result {
	if e.ingested > 0 && e.lastEmitEnd < e.ingested {
		e.emit()
	}
	e.dispatch()
	close(e.jobs)
	e.Flush()
	e.wg.Wait()
	sp := obs.StartSpan(e.m.stReport)
	defer sp.End()

	ne := e.cat.NumEvents()
	res := &Result{
		Intervals:    e.ingested,
		Windows:      e.nextIdx,
		Corrected:    make([]timeseries.Series, ne),
		CorrectedStd: make([]timeseries.Series, ne),
		WindowedRaw:  make([]timeseries.Series, ne),
		NaiveRaw:     make([]timeseries.Series, ne),
		PostRelStd:   e.postRelStd,
		AllConverged: e.converged,
		Unconverged:  e.unconverged,
		TotalSweeps:  e.totalSweeps,
	}
	for _, wi := range e.workerIters {
		res.InferIters.Merge(wi)
	}
	for id := 0; id < ne; id++ {
		corr := make(timeseries.Series, e.ingested)
		cstd := make(timeseries.Series, e.ingested)
		raw := make(timeseries.Series, e.ingested)
		naive := append(timeseries.Series(nil), e.naive[id]...)
		// Backfill the naive baseline's leading intervals (before the
		// event's group first went live) with its first reading.
		if ft := e.firstT[id]; ft > 0 {
			for t := 0; t < ft; t++ {
				naive[t] = naive[ft]
			}
		}
		for t := 0; t < e.ingested; t++ {
			if den := e.corrDen[id][t] + e.liveDen[id][t]; den > 0 {
				corr[t] = (e.corrNum[id][t] + e.liveNum[id][t]) / den
				cstd[t] = (e.stdNum[id][t] + e.liveStd[id][t]) / den
			}
			if den := e.rawDen[id][t] + e.liveDen[id][t]; den > 0 {
				raw[t] = (e.rawNum[id][t] + e.liveNum[id][t]) / den
			} else {
				raw[t] = naive[t] // window never saw the event: hold the sample
			}
		}
		res.Corrected[id] = corr
		res.CorrectedStd[id] = cstd
		res.WindowedRaw[id] = raw
		res.NaiveRaw[id] = naive
	}
	e.stitchDerived(res)
	return res
}

// stitchDerived rides the derived-event formulas on top of the stitched
// per-event series: the corrected posterior (mean via the formula at the
// posterior mean, std via the delta method over the stitched posterior
// stds) plus the windowed-raw and naive baselines through the same
// formulas. With Config.Covariance the delta method additionally receives
// each input pair's stitched clique correlation ρ̄(t), so e.g. a ratio
// whose numerator and denominator share an invariant stops counting their
// coupling as independent noise. Runs once at Finish; derived ratios are
// scale-free, so per-interval rates feed them directly.
func (e *Engine) stitchDerived(res *Result) {
	nd := len(e.cat.Derived)
	res.DerivedCorrected = make([]timeseries.Series, nd)
	res.DerivedCorrectedStd = make([]timeseries.Series, nd)
	res.DerivedWindowedRaw = make([]timeseries.Series, nd)
	res.DerivedNaive = make([]timeseries.Series, nd)
	rhoBar := e.stitchedRho()
	for di := range e.cat.Derived {
		d := &e.cat.Derived[di]
		in := make([]float64, len(d.Inputs))
		sd := make([]float64, len(d.Inputs))
		corr := make(timeseries.Series, e.ingested)
		cstd := make(timeseries.Series, e.ingested)
		// Covariance-aware propagation: resolve this formula's tracked
		// pairs once, then hand PropagateStdCov a lookup over the current
		// interval's stitched correlations. A formula with no coupled
		// pairs keeps corrFn nil, which PropagateStdCov reduces to the
		// diagonal PropagateStd bit for bit.
		var corrFn func(i, j int) float64
		tt := 0 // the interval corrFn reads; advanced by the loop below
		if len(e.derivedPairs) > 0 && len(e.derivedPairs[di]) > 0 {
			refs := make(map[int]int, len(e.derivedPairs[di]))
			for _, pr := range e.derivedPairs[di] {
				refs[pr.i<<16|pr.j] = pr.pi
			}
			corrFn = func(i, j int) float64 {
				if pi, ok := refs[i<<16|j]; ok {
					return rhoBar[pi][tt]
				}
				return 0
			}
		}
		for t := 0; t < e.ingested; t++ {
			for i, id := range d.Inputs {
				in[i] = res.Corrected[id][t]
				sd[i] = res.CorrectedStd[id][t]
			}
			tt = t
			corr[t] = d.Eval(in)
			cstd[t] = d.PropagateStdCov(in, sd, corrFn)
		}
		res.DerivedCorrected[di] = corr
		res.DerivedCorrectedStd[di] = cstd
		e.stitchDerivedBaselines(res, di)
	}
}

// stitchDerivedBaselines pushes the windowed-raw and naive baselines
// through one derived formula.
func (e *Engine) stitchDerivedBaselines(res *Result, di int) {
	d := &e.cat.Derived[di]
	gatherRaw := make([]timeseries.Series, len(d.Inputs))
	gatherNaive := make([]timeseries.Series, len(d.Inputs))
	for i, id := range d.Inputs {
		gatherRaw[i] = res.WindowedRaw[id]
		gatherNaive[i] = res.NaiveRaw[id]
	}
	res.DerivedWindowedRaw[di] = timeseries.Map(d.Eval, gatherRaw...)
	res.DerivedNaive[di] = timeseries.Map(d.Eval, gatherNaive...)
}

// stitchedRho resolves the tracked pairs' per-interval stitched
// correlations ρ̄(t) = Σ tri·ρ / Σ tri over the covering windows (0 where
// no window covered the interval). Returns nil when no pairs are tracked.
func (e *Engine) stitchedRho() [][]float64 {
	if len(e.covPairs) == 0 {
		return nil
	}
	out := make([][]float64, len(e.covPairs))
	for pi := range e.covPairs {
		rb := make([]float64, e.ingested)
		for t := 0; t < e.ingested; t++ {
			if den := e.rhoDen[pi][t]; den > 0 {
				rb[t] = e.rhoNum[pi][t] / den
			}
		}
		out[pi] = rb
	}
	return out
}

// IntervalSource feeds the streaming engine: anything that emits a sequence
// of multiplexed interval samples. measure.Sampler implements it; so does
// any pkg/bayesperf.Source, which is how a future perf-event reader plugs
// into this engine without changes here.
type IntervalSource interface {
	Next() (measure.IntervalSample, bool)
}

// Run streams a source through the engine end to end. When sched is a
// *measure.AdaptiveScheduler the posterior feedback loop closes: each epoch
// the engine is flushed and the epoch-averaged posterior re-prioritizes the
// multiplexing slots (pass the scheduler actually driving the source, or
// nil for scheduler-less sources). Results are deterministic for a given
// (source, scheduler, config) regardless of the worker count.
func Run(cat *uarch.Catalog, src IntervalSource, sched measure.Scheduler, cfg Config) *Result {
	e := NewEngine(cat, cfg)
	ad, adaptive := sched.(*measure.AdaptiveScheduler)
	var sm measure.SchedMetrics
	var prevMoves int
	if adaptive {
		// Registered only when the feedback loop is live: a round-robin run
		// has no scheduler decisions to observe.
		sm = measure.NewSchedMetrics(cfg.Metrics)
	}
	t := 0
	for {
		s, ok := src.Next()
		if !ok {
			break
		}
		e.Ingest(s)
		t++
		if adaptive && t%ad.EpochLen() == 0 {
			e.Flush()
			if mean, std, obsStd, ok := e.EpochPosterior(); ok {
				ad.Reprioritize(mean, std, obsStd)
				moves := ad.Moves()
				sm.RecordEpoch(moves-prevMoves, pooledRelStd(mean, std))
				prevMoves = moves
			}
		}
	}
	res := e.Finish()
	if adaptive {
		res.Reprioritizations = ad.Reprioritizations()
	}
	return res
}

// pooledRelStd pools a posterior's per-event relative std (std over
// |mean|, floored at 1 so near-zero events don't dominate) into one
// scheduler-facing uncertainty number — the same normalization
// stitchCorrected feeds Result.PostRelStd.
func pooledRelStd(mean, std []float64) float64 {
	if len(mean) == 0 {
		return 0
	}
	var sum float64
	for id := range mean {
		scale := math.Abs(mean[id])
		if scale < 1 {
			scale = 1
		}
		sum += std[id] / scale
	}
	return sum / float64(len(mean))
}

// RunTrace streams a ground-truth trace through sampler → engine end to
// end; see Run for the feedback-loop semantics.
func RunTrace(tr *measure.Trace, sched measure.Scheduler, cfg Config, r *rng.Rand) *Result {
	cfg.SizeHint = tr.Intervals()
	cfg = cfg.WithDefaults()
	return Run(tr.Cat, measure.NewSampler(tr, cfg.Mux, sched, r), sched, cfg)
}
