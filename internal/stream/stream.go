// Package stream implements BayesPerf's online deployment mode (§5 of the
// paper): instead of correcting whole-run totals after the fact, it
// consumes a live interval stream of multiplexed counter samples and emits
// a continuous per-interval posterior series (mean ± std per event).
//
// The engine slides a Window accumulator over the stream; every hop it
// snapshots the window's observations (scaled totals plus incrementally
// re-derived Student-t stds) into one lane of a recycled batch hand-off,
// and each full hand-off goes to a pool of workers, each owning one
// reusable graph.Batch over the catalog's shared compiled plan. The worker
// writes the posteriors back into the same hand-off. Flush runs the
// epoch's partially filled hand-off on the calling goroutine instead,
// which would otherwise only wait for a worker. Wherever else the producer
// must wait on the pool, it runs the oldest queued job itself, batch or
// settle block, and blocks only once every job is on a worker; a job
// computes the same bits wherever it runs. The engine re-orders
// returned hand-offs and stitches overlapping windows into one corrected
// trace by precision weighting. The posterior uncertainty also closes the
// measurement loop: a measure.AdaptiveScheduler fed the epoch-averaged
// posterior (EpochPosterior) re-prioritizes the multiplexing groups each
// epoch, replacing pure round-robin.
//
// Stitching is split in two. Each window records O(events) coefficients
// twice, in window order: its observations' raw rates and stitch weights
// when it is emitted, its posterior rates and stds when it is stitched.
// Each interval then gathers its covering windows' records, in window
// order, when it settles: once no window can still change it. Settling
// runs on the pool: once all of a block of intervals is ready, Ingest posts
// it to a worker as a settle job, whether the batches run on the pool or in
// Flush. Besides the queued jobs it runs while it waits, the calling
// goroutine settles only the stream's tail, in Finish, and, should the pool
// fall behind, the ready intervals whose ring space Ingest must reuse.
// Engine state is bounded by the windows in flight, not by the stream
// length: the records live in a ring indexed by window, the
// live readings in a ring of one row per interval, and a settled interval
// goes to chunked output, whose rows the goroutine that first settles into
// a chunk allocates, so the producer allocates output only where it
// settles into a chunk first. Windows emitted but not yet stitched stay
// below a bound derived from Workers and Batch, and the steady state
// allocates nothing per window. No state keeps a slice of a sample: the
// Window evicts from its own record of what it pushed, so a source may
// reuse its buffers. What grows with the stream is what the Result holds
// by contract: three settled rows per event (corrected, std and windowed
// raw) in the chunks, and an append-only log of the readings, from which
// Finish rebuilds the naive baseline by sample and hold. No naive value is
// stored per interval, so an event's first reading rewrites nothing, and
// settling reads no naive value: where no window saw an event, it marks the
// interval, and Finish copies the naive value into the windowed raw series
// there. Finish assembles the Result once the pool is drained, on the
// calling goroutine plus the pool's Workers goroutines: first every event
// series from the chunks and the log, then every derived formula's
// posterior and baselines. Each derived formula runs through the loop of
// its kind, which reads the stitched series directly and computes every
// interval's value, exact gradient and delta-method std with uarch's
// per-kind arithmetic.
package stream

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

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
	// at 8 — windows are small, so more engines stop paying off). Besides
	// the stream's full batches of windows, they settle its intervals as
	// they become final, Flush or no Flush. Whenever the producer would
	// wait on them, outside Flush, it runs the oldest queued job itself, so
	// a pool that lags the stream shares its work with the producer.
	// It also sets Finish's width: once the pool is drained, its Workers
	// goroutines help the caller assemble the Result's series, then exit.
	Workers int
	// Batch is the number of windows fused into one compiled-plan Execute
	// call per worker (0 = default 8). Each batch lane runs the identical
	// per-window arithmetic, so the stitched output is bit-identical for
	// every batch size; larger batches only amortize the schedule walk
	// across more windows. Up to 2·Workers·Batch windows are in flight at
	// once, plus the batch being filled, which sizes the engine's window
	// record ring, its interval ring and its hand-off pool; the rings also
	// keep room for the intervals the pool is settling.
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
	// direction undetermined, or the relations pinning the unobserved
	// events are too ill-conditioned): at most MaxIter sweeps, to a
	// tolerance of Tol on the posterior means.
	MaxIter int
	Tol     float64
	// Mux carries the observation model shared with the measurement layer:
	// noise level, std floors, and the Gumbel rejection switches.
	Mux measure.MuxConfig
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

// Result is the outcome of one streamed run.
type Result struct {
	Intervals int
	Windows   int
	// Corrected and CorrectedStd are the stitched per-interval posterior
	// series (rates per interval), indexed by EventID.
	Corrected    []timeseries.Series
	CorrectedStd []timeseries.Series
	// WindowedRaw is the same sliding-window estimate without inference:
	// what window smoothing alone buys. Where no window covering an
	// interval observed an event and the interval has no live reading of
	// it, it holds NaiveRaw's value.
	WindowedRaw []timeseries.Series
	// NaiveRaw is the live multiplexed baseline: per interval, each
	// event's most recent finite reading, Gumbel-flagged ones included
	// (sample-and-hold extrapolation). Before an event's first finite
	// reading it holds that reading; an event never read is 0.
	NaiveRaw []timeseries.Series
	// Derived-event posterior series (§2 "Errors in Derived Events"),
	// indexed like the catalog's Derived slice. DerivedCorrected evaluates
	// each formula at the stitched posterior mean per interval;
	// DerivedCorrectedStd is the first-order delta-method std propagated
	// from CorrectedStd through the formula's exact gradient at that point.
	// DerivedWindowedRaw and DerivedNaive push the two baselines through
	// the same formulas, so the three estimators stay comparable.
	DerivedCorrected    []timeseries.Series
	DerivedCorrectedStd []timeseries.Series
	DerivedWindowedRaw  []timeseries.Series
	DerivedNaive        []timeseries.Series
	// PostRelStd pools each window's posterior relative std over all
	// events — the uncertainty metric the adaptive scheduler minimizes.
	PostRelStd stats.Running
	// InferIters pools per-window message-passing sweep counts, added in
	// window order like PostRelStd, so it is bit-identical for any worker
	// count.
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
	ne   int

	win         *Window
	gumbel      stats.GumbelThreshold // cfg.Mux's rejection threshold, computed once
	ingested    int
	toEmit      int // intervals until the next window is emitted
	lastEmitEnd int
	nextIdx     int
	stitched    int

	// Windows travel in recycled hand-offs: cur collects snapshots until a
	// full batch (cfg.Batch) is ready to dispatch to the pool; Flush and
	// Finish execute a partial batch on the calling goroutine, on the
	// engine's own batch and br. A worker sends a dispatched hand-off back
	// with the posteriors. Hand-offs that return out of order wait in
	// waiting until every earlier window is stitched, so stitching runs in
	// strict window-index order and the output is bit-identical for any
	// worker count; stitched ones return to free. Each dispatch leaves
	// fewer than maxInFlight windows unstitched, which bounds both the
	// number of hand-offs and the record ring however the workers are
	// scheduled.
	cur         *handoff
	free        []*handoff
	waiting     []*handoff
	maxInFlight int
	jobs        chan *handoff
	results     chan *handoff
	wg          sync.WaitGroup
	batch       *graph.Batch
	br          *graph.BatchResult
	asm         *assembly // Finish's shared state, published by closing jobs

	// Settle jobs travel to the pool on the same channels, as lane-less
	// hand-offs, one per ready block. Every interval below posted is settled
	// or being settled, and every one below final is settled. settling holds
	// the jobs out, in posting order, and final advances past each run of
	// returned ones at its front; the rest wait in settleFree.
	posted     int
	settling   []*handoff
	settleFree []*handoff

	// Tracked posterior-correlation pairs (Config.Covariance): the derived
	// formulas' input pairs that share a relation clique. derivedPairs maps
	// each derived metric onto its pairs' indices.
	covPairs     []covPair
	derivedPairs [][]pairRef

	// Window records: window j's coefficients sit in slot j&(recCap-1),
	// event id's at recs[slot*ne + id] and tracked pair pi's ρ at
	// slot*len(covPairs) + pi. Each window's coefficients are contiguous,
	// so the producer, which writes the newest windows' records, and the
	// workers, which settle from older ones, rarely touch the same cache
	// line. record files the span and, per event, its stitch weight and,
	// where observed, its raw rate; stitch adds the posterior rate and rate
	// std, and the weight of unobserved events, and ρ. A record stays live
	// until every interval its window covers is final; settle gathers the
	// live records through a goroutine's own cover scratch, cover being the
	// calling goroutine's.
	recCap           int
	recStart, recEnd []int
	recs             []record
	recRho           []float64
	cover            *coverScratch

	// The interval ring holds the live readings of intervals
	// [final, ingested), interval-major: event id's at interval t sits at
	// live[(t&(ringCap-1))*ne + id], NaN where the interval has none to fuse
	// (see liveTerm). Opening an interval clears one run of ne values, and
	// the producer's newest row lies apart from the older rows that workers
	// settle from.
	live    []float64
	ringCap int
	final   int

	// out holds the output in chunks of chunkLen intervals: series s (see
	// outCorr) of interval t is at s*chunkLen + t%chunkLen in the rows of
	// out[t/chunkLen], written when t settles. openInterval opens only a
	// chunk's header; whoever first settles into the chunk allocates its
	// rows, chunkRows values (see outChunk). Finish concatenates each series
	// once, and builds the naive baseline from the reading log. The chunks
	// and the log are the only state that grows with the stream: the
	// Result's series, which hold every interval by contract.
	out       []*outChunk
	chunkRows int
	holdAt    int // where a chunk's hold words start (see holdWords)
	log       readingLog

	postRelStd  stats.Running
	inferIters  stats.Running
	converged   bool
	unconverged int
	totalSweeps int

	// Instrumentation (all nil-safe no-ops when Config.Metrics is nil):
	// stream-stage instruments, the shared measure-layer counters, the
	// graph layer's per-Execute recorder handed to every worker batch, and
	// the once-per-engine warning latches for non-finite drops and
	// overflow quarantines.
	m                engineMetrics
	mm               measure.Metrics
	gm               *graph.Metrics
	warnedDrop       bool
	warnedQuarantine bool

	// Epoch feedback accumulators: per-event posterior (and observation)
	// sums over the windows stitched since the last EpochPosterior call.
	// Averaging a whole epoch's windows gives the adaptive scheduler a far
	// less noisy urgency signal than any single window.
	epochMean   []float64
	epochStd    []float64
	epochObsStd []float64
	epochObsN   []int
	epochN      int
	// EpochPosterior's result buffers, reused by every call.
	postMean, postStd, postObsStd []float64
}

// record is one window's coefficients for one event. prec is the stitch
// weight: the predictive precision of the window's observation, or of its
// posterior where the event went unobserved. rawPrec and raw are the weight
// and rate the windowed raw series takes from the window: prec and the
// observed rate, or 0 and 0 where unobserved. rate and std are the
// posterior rate and rate std.
type record struct {
	prec, rawPrec, raw, rate, std float64
}

// coverRef is one window covering one settling interval: where its records
// start (slot·ne in recs, slot·len(covPairs) in recRho) and its triangular
// stitch weight there.
type coverRef struct {
	at, rho int
	k       float64
}

// coverScratch is one goroutine's cover lists for settle (see covers).
type coverScratch struct {
	refs []coverRef
	off  []int
}

// newCoverScratch sizes a cover scratch for settleSpan intervals, each
// with at most ⌈Window/Hop⌉ + 1 covering windows.
func newCoverScratch(cfg Config) *coverScratch {
	return &coverScratch{
		refs: make([]coverRef, settleSpan*((cfg.Window+cfg.Hop-1)/cfg.Hop+1)),
		off:  make([]int, settleSpan+1),
	}
}

// chunkLen is the number of intervals per output chunk. Small chunks keep
// short streams from paying for a large last chunk.
const chunkLen = 256

// Output series kinds: series kind*ne + id of a chunk holds one event's
// values; the tracked pairs' stitched correlations follow at 3*ne + pi.
const (
	outCorr = iota
	outStd
	outRaw
	outKinds
)

// outChunk is one output chunk's header. Its rows are allocated by the
// goroutine that first settles into it, once: a worker, so the producer
// does not zero them, or the caller where it settles inline (see reserve
// and Finish) or runs a queued settle job (see wait). Finish reads rows
// only once every interval is settled.
type outChunk struct {
	mu   sync.Mutex
	rows []float64
}

// take returns the chunk's rows, allocating n values on the first call.
func (c *outChunk) take(n int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rows == nil {
		c.rows = make([]float64, n)
	}
	return c.rows
}

// holdWords is the number of hold words per event in a chunk: one bit per
// interval, one word per settle block. After the series, a chunk holds
// event id's word for block b at holdAt + id*holdWords + b, stored as the
// bits of a float64 (math.Float64bits) so that a chunk stays one
// allocation. A set bit marks an interval where no covering window
// observed the event and no live reading fused, so that its windowed raw
// value is its naive one; Finish copies it there.
const holdWords = chunkLen / settleSpan

// handoff carries one batch of windows to a worker and its posteriors
// back. The engine snapshots windows into its lanes; the worker observes
// and executes them and writes the posteriors into the same object. Every
// slab is lane-major: event id of lane i sits at i*ne + id, tracked pair
// pi at i*len(covPairs) + pi. A hand-off with no lanes is a settle job
// instead: the worker settles intervals [lo, hi) into the rows of chunk
// from the records of the windows below winEnd (see settle).
type handoff struct {
	first int // index of the window in lane 0
	n     int // lanes filled

	// Settle side.
	lo, hi, winEnd int
	chunk          *outChunk // the output chunk holding [lo, hi)
	done           bool      // back from the pool, and not yet past final

	// Snapshot side (see windowJob).
	obsMean, obsStd, disp []float64
	observed              []bool
	// Posterior side.
	mean, std, rho []float64
	iters          []int
	converged      []bool
}

func newHandoff(ne, pairs, lanes int) *handoff {
	return &handoff{
		obsMean:   make([]float64, ne*lanes),
		obsStd:    make([]float64, ne*lanes),
		disp:      make([]float64, ne*lanes),
		observed:  make([]bool, ne*lanes),
		mean:      make([]float64, ne*lanes),
		std:       make([]float64, ne*lanes),
		rho:       make([]float64, pairs*lanes),
		iters:     make([]int, lanes),
		converged: make([]bool, lanes),
	}
}

// lane returns lane i's snapshot slabs as a windowJob view.
func (h *handoff) lane(i, ne int) windowJob {
	lo, hi := i*ne, (i+1)*ne
	return windowJob{
		obsMean:  h.obsMean[lo:hi],
		obsStd:   h.obsStd[lo:hi],
		disp:     h.disp[lo:hi],
		observed: h.observed[lo:hi],
	}
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

// inFlightBound is the most windows an engine keeps dispatched but not
// yet stitched: two batches per worker, enough to keep every worker busy
// while the engine stitches.
func inFlightBound(cfg Config) int { return 2 * cfg.Workers * cfg.Batch }

// pow2 returns the smallest power of two no smaller than n.
func pow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// settleHeadroom is the intervals the rings keep for settling on the
// pool: two steps of the larger of a settle block and the Batch·Hop
// intervals one stitched batch makes ready, one for the ready intervals
// not yet posted and one for the blocks posted and not yet back. When the
// pool falls further behind, Ingest waits for it before reusing ring space
// (see reserve).
func settleHeadroom(cfg Config) int { return 2 * max(settleSpan, cfg.Batch*cfg.Hop) }

// ringIntervals is the interval ring's capacity: a power of two no smaller
// than the unsettled intervals can span before Ingest waits for the pool.
// The first unstitched regular window starts at stitched·Hop, fewer than
// inFlightBound + Batch windows are emitted and unstitched, the next
// window to emit ends within Window of the newest interval, and
// settleHeadroom more intervals may be ready but not yet settled.
func ringIntervals(cfg Config) int {
	return pow2((inFlightBound(cfg)+cfg.Batch)*cfg.Hop + cfg.Window + settleHeadroom(cfg))
}

// recordWindows is the record ring's capacity: a power of two no smaller
// than the windows whose records can be live at once before Ingest waits
// for the pool. Fewer than inFlightBound + Batch windows are emitted and
// unstitched, at most ⌈Window/Hop⌉ + 1 stitched ones (the tail window
// included) cover an interval not yet ready, and the settleHeadroom ready
// intervals not yet settled take ⌈settleHeadroom/Hop⌉ windows more.
func recordWindows(cfg Config) int {
	return pow2(inFlightBound(cfg) + cfg.Batch + (cfg.Window+cfg.Hop-1)/cfg.Hop + 1 +
		(settleHeadroom(cfg)+cfg.Hop-1)/cfg.Hop)
}

// settleSpan is the most intervals one settle call gathers; with at most
// ⌈Window/Hop⌉ + 1 covering windows per interval it sizes the cover
// scratch. Settling cuts the stream into blocks of settleSpan intervals,
// and chunkLen is a multiple of it, so no block straddles two chunks.
const settleSpan = 64

// blockEnd is the end of the settle block holding interval t.
func blockEnd(t int) int { return (t/settleSpan + 1) * settleSpan }

// settleJobs is the most settle jobs that can be out at once: posted
// blocks hold fewer intervals than the interval ring, one job per block.
func settleJobs(ringCap int) int { return ringCap/settleSpan + 1 }

// NewEngine starts a streaming engine (and its worker pool) over the
// catalog. The factor graph is compiled once here; every worker executes
// batches of windows against the shared plan.
func NewEngine(cat *uarch.Catalog, cfg Config) *Engine {
	cfg = cfg.WithDefaults()
	ne := cat.NumEvents()
	ringCap := ringIntervals(cfg)
	// At most 2·Workers hand-offs are dispatched and not yet stitched (see
	// dispatch), and at most settleJobs settle jobs are out, so neither
	// channel ever holds more and no worker blocks on a send.
	handoffs, jobs := 2*cfg.Workers, settleJobs(ringCap)
	e := &Engine{
		cat:         cat,
		cfg:         cfg,
		plan:        graph.Compile(cat),
		ne:          ne,
		win:         NewWindow(cat, cfg.Window),
		gumbel:      cfg.Mux.RejectThreshold(),
		toEmit:      cfg.Window,
		maxInFlight: inFlightBound(cfg),
		jobs:        make(chan *handoff, handoffs+jobs),
		results:     make(chan *handoff, handoffs+jobs),
		free:        make([]*handoff, 0, handoffs+1),
		waiting:     make([]*handoff, 0, handoffs+1),
		settling:    make([]*handoff, 0, jobs),
		settleFree:  make([]*handoff, jobs),
		log:         newReadingLog(ne),
		epochMean:   make([]float64, ne),
		epochStd:    make([]float64, ne),
		epochObsStd: make([]float64, ne),
		epochObsN:   make([]int, ne),
		postMean:    make([]float64, ne),
		postStd:     make([]float64, ne),
		postObsStd:  make([]float64, ne),
		converged:   true,
		m:           newEngineMetrics(cfg.Metrics),
		mm:          measure.NewMetrics(cfg.Metrics),
		gm:          graph.NewMetrics(cfg.Metrics),
	}
	if cfg.Covariance {
		e.buildCovPairs()
	}
	e.holdAt = (outKinds*ne + len(e.covPairs)) * chunkLen
	e.chunkRows = e.holdAt + ne*holdWords
	e.recCap = recordWindows(cfg)
	e.recStart = make([]int, e.recCap)
	e.recEnd = make([]int, e.recCap)
	e.recs = make([]record, ne*e.recCap)
	e.recRho = make([]float64, len(e.covPairs)*e.recCap)
	e.cover = newCoverScratch(cfg)
	e.ringCap = ringCap
	e.live = make([]float64, ne*e.ringCap)
	settle := make([]handoff, jobs)
	for i := range settle {
		e.settleFree[i] = &settle[i]
	}
	e.batch = e.newBatch()
	e.br = e.batch.NewResult()
	e.wg.Add(cfg.Workers)
	for wi := 0; wi < cfg.Workers; wi++ {
		// Built here, not in the goroutine: a worker the scheduler starts
		// late must not allocate in the middle of a stream.
		batch := e.newBatch()
		go e.worker(wi+1, batch, batch.NewResult(), newCoverScratch(cfg))
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
}

// newBatch returns a batch over the engine's shared plan, wired to the
// graph metrics and to covariance read-out when pairs are tracked.
func (e *Engine) newBatch() *graph.Batch {
	batch := e.plan.NewBatch(e.cfg.Batch)
	batch.SetMetrics(e.gm)
	if len(e.covPairs) > 0 {
		batch.EnableCovariance()
	}
	return batch
}

// worker g (1…Workers) is one EP engine: it owns one batch over the
// engine's shared compiled plan, with its result, and executes every
// hand-off the pool receives; it settles every settle job through its own
// cover scratch. Once Finish closes the job queue it helps assemble the
// Result, then exits.
func (e *Engine) worker(g int, batch *graph.Batch, br *graph.BatchResult, cover *coverScratch) {
	defer e.wg.Done()
	for h := range e.jobs {
		br = e.run(batch, br, cover, h)
		e.results <- h
	}
	e.assemble(g)
}

// run runs job h on the calling goroutine, with its own batch, result and
// cover scratch: a hand-off's windows on batch, reusing br, or a settle
// job's intervals through cover. The workers run every job they receive
// with it, and the producer the jobs it takes off the queue (see wait).
func (e *Engine) run(batch *graph.Batch, br *graph.BatchResult, cover *coverScratch, h *handoff) *graph.BatchResult {
	if h.n > 0 {
		return e.execute(batch, br, h)
	}
	e.settle(cover, h.chunk.take(e.chunkRows), h.lo, h.hi, h.winEnd)
	return br
}

// execute observes a hand-off's lanes into batch, executes them in a
// single schedule walk, and writes the posteriors back into the hand-off,
// reusing br. The workers run it for full batches and Flush for the
// partial one on the engine's own batch. Batch and result are sized when
// built, so even a worker's first batch allocates nothing.
func (e *Engine) execute(batch *graph.Batch, br *graph.BatchResult, h *handoff) *graph.BatchResult {
	batch.ClearObservations()
	for lane := 0; lane < h.n; lane++ {
		row := lane * e.ne
		for id, ok := range h.observed[row : row+e.ne] {
			if ok {
				batch.Observe(lane, uarch.EventID(id), h.obsMean[row+id], h.obsStd[row+id])
			}
		}
	}
	sp := obs.StartSpan(e.m.stInfer)
	br = batch.ExecuteInto(br, h.n, e.cfg.MaxIter, e.cfg.Tol)
	sp.End()
	e.readPosteriors(h, br)
	return br
}

// readPosteriors copies the executed lanes out of the batch's event-major
// result into the hand-off's lane-major slabs, with each tracked pair's
// posterior correlation.
//
//bayesperf:hotpath
func (e *Engine) readPosteriors(h *handoff, br *graph.BatchResult) {
	n, ne := h.n, e.ne
	for id := 0; id < ne; id++ {
		mean := br.Mean[id*n : id*n+n]
		std := br.Std[id*n : id*n+n]
		for lane := range mean {
			h.mean[lane*ne+id] = mean[lane]
			h.std[lane*ne+id] = std[lane]
		}
	}
	copy(h.iters, br.Iters[:n])
	copy(h.converged, br.Converged[:n])
	np := len(e.covPairs)
	for lane := 0; lane < n; lane++ {
		for pi, p := range e.covPairs {
			h.rho[lane*np+pi] = br.Corr(lane, p.a, p.b)
		}
	}
}

// Ingest settles the intervals that have become ready, then feeds one
// interval into the window; at hop boundaries the window is snapshotted
// into the batch being filled. Ingest copies every reading it keeps and
// reads nothing of s once it returns, so the caller may reuse s's Events
// and Values buffers for the next interval.
//
// Interval t is ready once both t < ingested − Window (every window not
// yet emitted starts at or after that point) and t < stitched·Hop (the
// first unstitched regular window starts there). Ingest posts each block
// to the pool once all of it is ready, here, before the interval is added;
// it settles inline only when it must reuse ring space that ready
// intervals still hold (see reserve), besides the queued settle jobs it
// runs while it waits on the pool (see wait). Nothing is settled or posted
// while absorbing posteriors, which would put it inside every epoch's
// Flush.
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
	e.settleReady()
	t := e.ingested
	e.openInterval(t)
	if bad, i := e.log.add(t, s); bad > 0 {
		// Corrupted readings: the naive series skips them. Count the drops
		// (once per reading — the fusion loop below skips the same values)
		// and warn the first time this stream drops one.
		e.mm.DroppedNonFinite.Add(uint64(bad))
		if !e.warnedDrop {
			e.warnedDrop = true
			warnf("stream: dropping non-finite reading for event %s at interval %d "+
				"(further drops counted in bayesperf_measure_dropped_nonfinite_total)",
				e.cat.Event(s.Events[i]).Name, t)
		}
	}
	e.win.Push(s)
	e.ingested++
	// Keep the live samples for fusion at their own interval. With Gumbel
	// rejection on, a sample the trailing window's fit flags as an outlier
	// is not trusted at full noise precision (the window estimate, itself
	// filtered, covers its interval instead).
	live := e.liveRow(t)
	for i, id := range s.Events {
		v := s.Values[i]
		if !finite(v) {
			continue // corrupted reading: no live-precision fusion either
		}
		if e.cfg.Mux.GumbelReject && e.win.lastIsOutlier(id, e.gumbel) {
			e.m.liveOutliers.Inc()
			continue
		}
		live[id] = v
	}
	// A window ends at interval Window, then at every Hop-th one after it.
	if e.toEmit--; e.toEmit == 0 {
		e.toEmit = e.cfg.Hop
		e.emit()
	}
}

// openInterval readies interval t: no live readings yet, and at a chunk's
// first interval a new output chunk header and the log's next chunk. Its
// ring slot last held interval t − ringCap, so that one must be settled
// first.
func (e *Engine) openInterval(t int) {
	if t-e.final >= e.ringCap {
		e.reserve(t - e.ringCap + 1)
	}
	live := e.liveRow(t)
	for id := range live {
		live[id] = math.NaN()
	}
	if t%chunkLen == 0 {
		e.out = append(e.out, &outChunk{})
		e.log.openChunk()
	}
}

// liveRow returns interval t's row of the interval ring.
func (e *Engine) liveRow(t int) []float64 { return e.live[(t&(e.ringCap-1))*e.ne:][:e.ne] }

// ready is the end of the intervals no window can still change (see
// Ingest).
func (e *Engine) ready() int { return min(e.ingested-e.cfg.Window, e.stitched*e.cfg.Hop) }

// settleReady posts each settle block to the pool once all of it is
// ready.
func (e *Engine) settleReady() {
	upTo := e.ready()
	for hi := blockEnd(e.posted); hi <= upTo; hi = blockEnd(e.posted) {
		e.post(hi)
	}
}

// settleInline settles intervals [posted, upTo) on the calling goroutine,
// a block at a time.
func (e *Engine) settleInline(upTo int) {
	for e.posted < upTo {
		lo := e.posted
		e.posted = min(upTo, blockEnd(lo))
		e.settle(e.cover, e.out[lo/chunkLen].take(e.chunkRows), lo, e.posted, e.nextIdx)
	}
	if len(e.settling) == 0 {
		e.final = e.posted
	}
}

// post hands intervals [posted, hi) to the pool as a settle job, with the
// output chunk they fall in and the windows emitted so far.
func (e *Engine) post(hi int) {
	n := len(e.settleFree) - 1 // settleJobs bounds the jobs out, so one is free
	h := e.settleFree[n]
	e.settleFree = e.settleFree[:n]
	h.lo, h.hi, h.winEnd, h.chunk, h.done = e.posted, hi, e.nextIdx, e.out[e.posted/chunkLen], false
	e.settling = append(e.settling, h)
	e.posted = hi
	e.send(h)
}

// settled takes a settle job back from the pool. final advances past the
// returned jobs at the front of settling: to the next job still out, or to
// posted when none is, since inline settling fills any gap between jobs.
func (e *Engine) settled(h *handoff) {
	h.done = true
	k := 0
	for k < len(e.settling) && e.settling[k].done {
		e.settleFree = append(e.settleFree, e.settling[k])
		k++
	}
	if k == 0 {
		return
	}
	e.settling = e.settling[:copy(e.settling, e.settling[k:])]
	if len(e.settling) > 0 {
		e.final = e.settling[0].lo
	} else {
		e.final = e.posted
	}
}

// reserve makes every interval below t final before the producer reuses
// ring space they hold. While a job carrying final is out it waits on the
// pool, so it takes back the hand-offs already returned, runs the jobs
// still queued itself, and counts each time it has to block: where no batch
// goes to the pool, as in the adaptive epoch loop, nothing else collects
// the returned settle jobs, so most are back already. Once none is out, it
// settles the ready intervals inline. The rings are sized so that every
// interval below t is ready by then; only a bug can leave one that is not.
func (e *Engine) reserve(t int) {
	for e.final < t && len(e.settling) > 0 {
		if e.wait() {
			e.m.settleWaits.Inc()
		}
	}
	if e.final < t {
		e.settleInline(e.ready())
	}
	if e.final < t {
		panic(fmt.Sprintf("stream: interval %d must settle before its ring space is reused, but only %d are ready",
			t-1, e.ready()))
	}
}

// settle gathers intervals [lo, hi), all in chunk and in one settle
// block, from the records of their covering windows, which all lie below
// window winEnd: each interval's records, in window order, go into the
// corrected series and its std, the windowed raw series and each tracked
// pair's stitched correlation ρ̄ = Σ tri·ρ / Σ tri. The stitched estimate is
// the inverse-variance fusion of every covering window's estimate plus the
// interval's live sample, if any. Values with no weight stay 0. Where no
// window observed the event and no live sample fused, the windowed raw
// series holds the naive sample instead: settle sets the interval's hold
// bit, and Finish copies the naive value there. The loops run event-outer,
// so each event's output row is written contiguously, and its hold bits
// go into the block's one word per event.
//
// Every record carries a raw weight and rate, both 0 where the window did
// not observe the event, so the raw sums add +0 there instead of
// branching. That leaves them bit for bit as if the term were skipped: a
// sum that starts at +0 is never −0 (x + (−x) and +0 + (−0) both round to
// +0), and s + (+0) = s for every other s.
//
// settle reads only those records and the live readings of [lo, hi), and
// writes only their corrected, std, raw and ρ values and their hold words,
// so a worker can run it while the producer ingests; cover is the calling
// goroutine's own scratch.
//
//bayesperf:hotpath
func (e *Engine) settle(cover *coverScratch, chunk []float64, lo, hi, winEnd int) {
	sp := obs.StartSpan(e.m.stSettle)
	ne := e.ne
	off, n := lo%chunkLen, hi-lo
	e.covers(cover, lo, hi, winEnd)
	refs, refOff := cover.refs, cover.off
	hold := chunk[e.holdAt+off/settleSpan:]
	// A block never wraps the interval ring, whose capacity is a multiple
	// of settleSpan.
	block := e.live[(lo&(e.ringCap-1))*ne:][:n*ne]
	for id := 0; id < ne; id++ {
		recs := e.recs[id:]
		live := block[id:]
		corr := chunk[(outCorr*ne+id)*chunkLen+off:][:n]
		cstd := chunk[(outStd*ne+id)*chunkLen+off:][:n]
		raw := chunk[(outRaw*ne+id)*chunkLen+off:][:n]
		var held uint64
		for i := range corr {
			var corrNum, corrDen, stdNum, rawNum, rawDen float64
			for _, c := range refs[refOff[i]:refOff[i+1]] {
				r := &recs[c.at]
				wt := r.prec * c.k
				rawWt := r.rawPrec * c.k
				rawNum += rawWt * r.raw
				rawDen += rawWt
				corrNum += wt * r.rate
				corrDen += wt
				stdNum += wt * r.std
			}
			lNum, lDen, lStd := e.liveTerm(live[i*ne])
			if den := corrDen + lDen; den > 0 {
				corr[i] = (corrNum + lNum) / den
				cstd[i] = (stdNum + lStd) / den
			}
			if den := rawDen + lDen; den > 0 {
				raw[i] = (rawNum + lNum) / den
			} else {
				held |= 1 << ((lo + i) % settleSpan) // window never saw the event: hold the sample
			}
		}
		if held != 0 {
			w := &hold[id*holdWords]
			*w = math.Float64frombits(math.Float64bits(*w) | held)
		}
	}
	// Stitch the tracked clique correlations with the triangular kernel
	// alone: ρ is dimensionless and the windows covering an interval see
	// near-identical observation precisions, so precision weighting would
	// only re-derive the kernel. The stitched ρ̄(t) recombines with the
	// stitched marginal stds in stitchDerived.
	for pi := range e.covPairs {
		rhos := e.recRho[pi:]
		rho := chunk[(outKinds*ne+pi)*chunkLen+off:][:n]
		for i := range rho {
			var num, den float64
			for _, c := range refs[refOff[i]:refOff[i+1]] {
				num += c.k * rhos[c.rho]
				den += c.k
			}
			if den > 0 {
				rho[i] = num / den
			}
		}
	}
	sp.End()
}

// liveTerm is the fusion term of live reading v (NaN: none, all terms 0):
// the counted sample itself, whose per-interval noise precision wv dwarfs
// any window's rate precision, as wv·v, wv and wv·sampleStd. Live fusion is
// what keeps fully counted events at sample resolution instead of window
// resolution; it applies identically to the raw and corrected series, so
// their difference isolates the inference layer. The conversions round
// each product, so that no platform fuses one into the sum it joins.
func (e *Engine) liveTerm(v float64) (num, den, std float64) {
	if math.IsNaN(v) {
		return 0, 0, 0
	}
	sv := e.cfg.Mux.NoiseFrac * v
	if floor := e.cfg.Mux.StdFloorFrac * v; sv < floor {
		sv = floor
	}
	if sv == 0 { //bayesvet:bitwise exact-zero sentinel: std was assigned zero, never computed
		sv = 1 // zero reading: unit count uncertainty
	}
	wv := 1 / (sv * sv)
	return float64(wv * v), wv, float64(wv * sv)
}

// covers lists, for each interval t of [t0, hi), the windows below winEnd
// covering it in window order: their record slots and triangular weights
// sit at cover.refs[cover.off[t-t0]:cover.off[t-t0+1]]. Window starts and
// ends both rise with the window index, so each interval's covering
// windows are a contiguous run that slides forward with t. Regular window
// j spans [j·Hop, j·Hop+Window), so the first that can cover t0 is
// ⌈(t0 − Window + 1)/Hop⌉; Finish's tail window, last in index order, may
// start anywhere after the last regular one.
//
//bayesperf:hotpath
func (e *Engine) covers(cover *coverScratch, t0, hi, winEnd int) {
	mask, ne, np := e.recCap-1, e.ne, len(e.covPairs)
	first := 0
	if t0 >= e.cfg.Window {
		first = (t0 - e.cfg.Window + e.cfg.Hop) / e.cfg.Hop
	}
	n := 0
	for t := t0; t < hi; t++ {
		cover.off[t-t0] = n
		for first < winEnd && e.recEnd[first&mask] <= t {
			first++
		}
		for j := first; j < winEnd; j++ {
			slot := j & mask
			start := e.recStart[slot]
			if start > t {
				break
			}
			cover.refs[n] = coverRef{at: slot * ne, rho: slot * np, k: triWeight(t, start, e.recEnd[slot])}
			n++
		}
	}
	cover.off[hi-t0] = n
}

// emit snapshots the current window into the next lane of the hand-off
// being filled and records its emit-time coefficients; a full hand-off
// (cfg.Batch windows) is dispatched to the pool.
func (e *Engine) emit() {
	if e.cur == nil {
		e.cur = e.takeHandoff()
		e.cur.first = e.nextIdx
	}
	h := e.cur
	// Per-window spans are sampled 1-in-8 like the per-interval ingest span:
	// snapshot latency is uniform across windows and the clock reads would
	// otherwise be the dominant cost of instrumenting this stage.
	var sp obs.Span
	if e.nextIdx&7 == 0 {
		sp = obs.StartSpan(e.m.stSnapshot)
	}
	job := h.lane(h.n, e.ne)
	e.win.snapshotInto(&job, e.cfg.Mux, e.gumbel)
	sp.End()
	h.n++
	e.m.windows.Inc()
	if job.rejected > 0 {
		e.m.gumbel.Add(uint64(job.rejected))
	}
	if job.quarantined > 0 {
		e.m.quarantined.Add(uint64(job.quarantined))
		if !e.warnedQuarantine {
			e.warnedQuarantine = true
			warnf("stream: window [%d,%d) left %d overflowing observation(s) for the invariants to infer "+
				"(further quarantines counted in bayesperf_stream_quarantined_total)",
				job.start, job.end, job.quarantined)
		}
	}
	e.record(job)
	e.nextIdx++
	e.lastEmitEnd = e.ingested
	if h.n == e.cfg.Batch {
		e.dispatch()
	}
}

// record files window nextIdx's emit-time coefficients in its record slot:
// the span it covers, numbered by the engine's own interval count, and per
// observed event its raw rate and its stitch weight — the predictive
// precision of the observation, which the corrected series reuses — as its
// raw weight too; an unobserved event's raw weight and rate are 0. The
// window the slot last held must no longer cover an unsettled interval.
//
//bayesperf:hotpath
func (e *Engine) record(job windowJob) {
	slot := e.nextIdx & (e.recCap - 1)
	if end := e.recEnd[slot]; end > e.final {
		e.reserve(end)
	}
	start, end := e.ingested-e.win.Len(), e.ingested
	e.recStart[slot], e.recEnd[slot] = start, end
	w := float64(end - start)
	recs := e.recs[slot*e.ne : (slot+1)*e.ne]
	for id, ok := range job.observed {
		r := &recs[id]
		if ok {
			r.raw = job.obsMean[id] / w
			r.prec = predictivePrec(job.obsStd[id]/w, job.disp[id])
			r.rawPrec = r.prec
		} else {
			r.raw, r.rawPrec = 0, 0
		}
	}
}

// takeHandoff returns a recycled hand-off, or a new one while the pool is
// still growing to its bound.
func (e *Engine) takeHandoff() *handoff {
	if n := len(e.free); n > 0 {
		h := e.free[n-1]
		e.free = e.free[:n-1]
		h.n = 0
		return h
	}
	return newHandoff(e.ne, len(e.covPairs), e.cfg.Batch)
}

// dispatch hands the full hand-off being filled to the pool, then waits
// on it until fewer than maxInFlight windows remain unstitched, running
// queued jobs meanwhile (see wait). The bound keeps the record ring and
// the hand-off pool small even when one worker is descheduled while the
// others keep returning later windows.
func (e *Engine) dispatch() {
	h := e.cur
	e.cur = nil
	e.m.batches.Inc()
	e.m.fillRatio.Observe(float64(h.n) / float64(e.cfg.Batch))
	sp := obs.StartSpan(e.m.stDispatch)
	defer sp.End()
	e.send(h)
	for e.nextIdx-e.stitched >= e.maxInFlight {
		e.wait()
	}
}

// send hands h to the pool, absorbing returned hand-offs whenever the job
// queue pushes back.
func (e *Engine) send(h *handoff) {
	for {
		select {
		case e.jobs <- h:
			return
		case r := <-e.results:
			e.absorb(r)
		}
	}
}

// wait is where the producer waits on the pool. It absorbs one returned
// hand-off if one is ready; otherwise it takes the oldest queued job, runs
// it on the calling goroutine with the engine's own batch, result and cover
// scratch, and absorbs it, instead of idling while the job waits for a busy
// worker. A job computes the same bits wherever it runs. Only when the
// queue is empty does it block on the pool; it reports whether it did.
func (e *Engine) wait() (blocked bool) {
	var h *handoff
	select {
	case h = <-e.results:
	default:
		select {
		case h = <-e.jobs:
			e.br = e.run(e.batch, e.br, e.cover, h)
			if h.n > 0 {
				e.m.callerBatches.Inc()
			} else {
				e.m.callerSettles.Inc()
			}
		default:
			h, blocked = <-e.results, true
		}
	}
	e.absorb(h)
	return blocked
}

// absorb takes one returned hand-off. A settle job advances final; a
// batch is stitched with every batch whose windows are next in index
// order.
func (e *Engine) absorb(h *handoff) {
	if h.n == 0 {
		e.settled(h)
		return
	}
	e.waiting = append(e.waiting, h)
	for i := 0; i < len(e.waiting); i++ {
		next := e.waiting[i]
		if next.first != e.stitched {
			continue
		}
		last := len(e.waiting) - 1
		e.waiting[i] = e.waiting[last]
		e.waiting[last] = nil
		e.waiting = e.waiting[:last]
		for lane := 0; lane < next.n; lane++ {
			var sp obs.Span
			if e.stitched&7 == 0 { // sampled 1-in-8, matching emit's snapshot span
				sp = obs.StartSpan(e.m.stStitch)
			}
			e.stitch(next, lane)
			sp.End()
			e.stitched++
		}
		e.free = append(e.free, next)
		i = -1 // the hand-off after it may already be waiting
	}
}

// Flush executes any partially filled batch on the calling goroutine —
// which would otherwise only wait for a worker — and blocks until every
// emitted window's posterior has been stitched. Call it at epoch
// boundaries before reading EpochPosterior, so the scheduler feedback does
// not depend on worker timing (or on where the epoch falls within a
// batch). Flush stitches O(events) per window and settles and posts no
// interval; the next Ingest calls post the blocks it makes ready to the
// pool. Unlike the producer's other waits it runs no queued job, so the
// epoch decision path never settles: it only receives until the pool
// returns the windows.
func (e *Engine) Flush() {
	if h := e.cur; h != nil {
		e.cur = nil
		e.m.batches.Inc()
		e.m.fillRatio.Observe(float64(h.n) / float64(e.cfg.Batch))
		e.br = e.execute(e.batch, e.br, h)
		e.absorb(h)
	}
	for e.stitched < e.nextIdx {
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

// predictivePrec is the weight of a window's estimate when predicting one
// interval's value: the inverse of (mean-estimate variance + within-window
// dispersion²), per the law of total variance. Dispersion is what keeps a
// window from claiming sample-level certainty about any single interval.
func predictivePrec(rateStd, disp float64) float64 {
	return 1 / max(rateStd*rateStd+disp*disp, 1e-300)
}

// stitch files one window's posterior in its record and folds it into the
// pooled uncertainty metrics and the epoch sums. Runs strictly in
// window-index order. The stitch weight of an observed event is the
// observation precision record already filed (the posterior stds of
// overlapping windows are correlated, so they are reported, not used as
// weights): raw and corrected then differ only in the estimate each window
// contributes. An unobserved event is weighted by its posterior rate std.
//
//bayesperf:hotpath
func (e *Engine) stitch(h *handoff, lane int) {
	slot := e.stitched & (e.recCap - 1)
	w := float64(e.recEnd[slot] - e.recStart[slot])
	converged, iters := h.converged[lane], h.iters[lane]
	e.converged = e.converged && converged
	if !converged {
		e.unconverged++
	}
	e.totalSweeps += iters
	e.inferIters.Add(float64(iters))
	lo, hi := lane*e.ne, (lane+1)*e.ne
	mean, std := h.mean[lo:hi], h.std[lo:hi]
	obsStd, disp, observed := h.obsStd[lo:hi], h.disp[lo:hi], h.observed[lo:hi]
	recs := e.recs[slot*e.ne : (slot+1)*e.ne]
	for id := range mean {
		r := &recs[id]
		rateStd := std[id] / w
		r.rate = mean[id] / w
		r.std = rateStd
		if !observed[id] {
			r.prec = predictivePrec(rateStd, disp[id])
		}
		scale := math.Abs(mean[id])
		if scale < 1 {
			scale = 1
		}
		e.postRelStd.Add(std[id] / scale)
		e.epochMean[id] += mean[id]
		e.epochStd[id] += std[id]
		if observed[id] {
			e.epochObsStd[id] += obsStd[id]
			e.epochObsN[id]++
		}
	}
	np := len(e.covPairs)
	for pi, rho := range h.rho[lane*np : (lane+1)*np] {
		e.recRho[slot*np+pi] = rho
	}
	e.epochN++
}

// EpochPosterior returns the per-event posterior mean/std and observation
// std averaged over the windows stitched since the previous call (valid
// after a Flush; obsStd is 0 where the event went unobserved all epoch),
// and resets the accumulator — the feedback signal for
// measure.(*AdaptiveScheduler).Reprioritize. The slices are engine-owned
// buffers, overwritten by the next call.
func (e *Engine) EpochPosterior() (mean, std, obsStd []float64, ok bool) {
	if e.epochN == 0 {
		return nil, nil, nil, false
	}
	n := float64(e.epochN)
	mean, std, obsStd = e.postMean, e.postStd, e.postObsStd
	for id := range mean {
		mean[id] = e.epochMean[id] / n
		std[id] = e.epochStd[id] / n
		obsStd[id] = 0
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
// covered), executes it with any partial batch and drains the pool, takes
// back the settle blocks still on the pool, running those still queued
// itself (see wait), settles the remaining intervals inline, and assembles
// the stitched result on the calling goroutine plus the pool's Workers
// goroutines, which exit once it is done: the settled series, then
// NaiveRaw replayed from the reading log a chunk at a time (with the
// windowed raw values that hold it), then the derived formulas.
// The engine cannot be used after Finish.
func (e *Engine) Finish() *Result {
	if e.ingested > 0 && e.lastEmitEnd < e.ingested {
		e.emit()
	}
	e.Flush()
	sp := obs.StartSpan(e.m.stReport)
	defer sp.End()

	for len(e.settling) > 0 { // the settle blocks still on the pool
		e.wait()
	}
	e.settleInline(e.ingested)
	ne, nd := e.ne, len(e.cat.Derived)
	res := &Result{
		Intervals:           e.ingested,
		Windows:             e.nextIdx,
		Corrected:           make([]timeseries.Series, ne),
		CorrectedStd:        make([]timeseries.Series, ne),
		WindowedRaw:         make([]timeseries.Series, ne),
		NaiveRaw:            make([]timeseries.Series, ne),
		DerivedCorrected:    make([]timeseries.Series, nd),
		DerivedCorrectedStd: make([]timeseries.Series, nd),
		DerivedWindowedRaw:  make([]timeseries.Series, nd),
		DerivedNaive:        make([]timeseries.Series, nd),
		PostRelStd:          e.postRelStd,
		InferIters:          e.inferIters,
		AllConverged:        e.converged,
		Unconverged:         e.unconverged,
		TotalSweeps:         e.totalSweeps,
	}
	k := 0
	for di := range e.cat.Derived {
		k = max(k, len(e.cat.Derived[di].Inputs))
	}
	a := &assembly{
		res:    res,
		events: [outKinds + 1][]timeseries.Series{res.Corrected, res.CorrectedStd, res.WindowedRaw, res.NaiveRaw},
		grad:   make([]float64, (e.cfg.Workers+1)*k),
		k:      k,
		run:    make([]heldRun, (e.cfg.Workers+1)*ne),
	}
	for p := range a.done {
		a.done[p].Add(e.cfg.Workers + 1)
	}
	e.asm = a
	close(e.jobs) // every hand-off and settle job is back, so the idle workers turn to the assembly
	e.assemble(0)
	e.wg.Wait()
	return res
}

// assembly is the state Finish shares with the workers while they fill the
// Result. Tasks hand out by index from one counter per phase; each fills
// its own series or its own chunk of intervals, so the Result is the same
// for any width and any order the tasks run in.
type assembly struct {
	res    *Result
	events [outKinds + 1][]timeseries.Series // the Result's event series, by output kind, then NaiveRaw
	next   [3]atomic.Int64                   // the next task of each phase
	done   [2]sync.WaitGroup                 // each of phases 2 and 3 reads what the phase before fills
	grad   []float64                         // k gradient values per goroutine for derived posteriors
	k      int                               // the most inputs of any derived formula
	run    []heldRun                         // ne naive replay runs per goroutine
}

// take hands out the next task index of phase p.
func (a *assembly) take(p int) int { return int(a.next[p].Add(1) - 1) }

// assemble runs Finish's tasks on goroutine g: 0 is Finish's caller,
// 1…Workers the pool's workers, once the job queue is closed. Each phase
// starts once every goroutine is done with the one before. Phase 1 has one
// task per event series: output series s of the chunks, or an empty naive
// series. Phase 2 has each derived formula's posterior (derivedSeries part
// 0), then one task per chunk (naiveChunk). Phase 3 has two per derived
// formula, its baselines.
func (e *Engine) assemble(g int) {
	a, ne, nd := e.asm, e.ne, len(e.cat.Derived)
	for s := a.take(0); s < (outKinds+1)*ne; s = a.take(0) {
		a.events[s/ne][s%ne] = e.series(s)
	}
	a.done[0].Done()
	a.done[0].Wait()
	grad := a.grad[g*a.k : (g+1)*a.k]
	for i := a.take(1); i < nd+len(e.out); i = a.take(1) {
		if i < nd {
			e.derivedSeries(a.res, i, 0, grad)
		} else {
			e.naiveChunk(i-nd, a.run[g*ne:(g+1)*ne])
		}
	}
	a.done[1].Done()
	a.done[1].Wait()
	for i := a.take(2); i < 2*nd; i = a.take(2) {
		e.derivedSeries(a.res, i/2, 1+i%2, grad)
	}
}

// series concatenates output series s (see outCorr) from the chunks; the
// naive series, s ≥ outKinds·ne, come out empty for naiveChunk to fill.
func (e *Engine) series(s int) timeseries.Series {
	out := make(timeseries.Series, e.ingested)
	if s >= outKinds*e.ne {
		return out
	}
	for ci, chunk := range e.out {
		copy(out[ci*chunkLen:], chunk.rows[s*chunkLen:(s+1)*chunkLen])
	}
	return out
}

// naiveChunk fills chunk ci's intervals of NaiveRaw from the reading log,
// then copies the naive value into WindowedRaw wherever settle set a hold
// bit. run is the calling goroutine's replay scratch.
func (e *Engine) naiveChunk(ci int, run []heldRun) {
	res := e.asm.res
	t0 := ci * chunkLen
	e.log.replay(ci, t0, min(t0+chunkLen, e.ingested), res.NaiveRaw, run)
	hold := e.out[ci].rows[e.holdAt:]
	for id, naive := range res.NaiveRaw {
		raw := res.WindowedRaw[id]
		for b, w := range hold[id*holdWords : (id+1)*holdWords] {
			for word := math.Float64bits(w); word != 0; word &= word - 1 {
				t := t0 + b*settleSpan + bits.TrailingZeros64(word)
				raw[t] = naive[t]
			}
		}
	}
}

// stitchedRho is tracked pair pi's finalized stitched correlation ρ̄ at
// interval t (0 where no window covered the interval).
func (e *Engine) stitchedRho(pi, t int) float64 {
	return e.out[t/chunkLen].rows[(outKinds*e.ne+pi)*chunkLen+t%chunkLen]
}

// derivedSeries rides derived formula di on top of the stitched per-event
// series, filling one of its outputs. Part 0 is the corrected posterior:
// the formula at the posterior mean, and the delta method over the
// stitched posterior stds, through the loop of the formula's kind. With
// Config.Covariance the delta method also receives each input pair's
// stitched clique correlation ρ̄(t), so e.g. a ratio whose numerator and
// denominator share an invariant stops counting their coupling as
// independent noise. Parts 1 and 2 push the windowed-raw and naive
// baselines through the same formula (DerivedSeries). Derived ratios are
// scale-free, so per-interval rates feed them directly. grad is the
// calling goroutine's gradient scratch (see derivedPosterior).
func (e *Engine) derivedSeries(res *Result, di, part int, grad []float64) {
	d := &e.cat.Derived[di]
	switch part {
	case 0:
		var pairs []pairRef
		if len(e.derivedPairs) > 0 {
			pairs = e.derivedPairs[di]
		}
		mean := make(timeseries.Series, e.ingested)
		std := make(timeseries.Series, e.ingested)
		e.derivedPosterior(d, pairs, res, mean, std, grad)
		res.DerivedCorrected[di] = mean
		res.DerivedCorrectedStd[di] = std
	case 1:
		res.DerivedWindowedRaw[di] = DerivedSeries(d, res.WindowedRaw)
	case 2:
		res.DerivedNaive[di] = DerivedSeries(d, res.NaiveRaw)
	}
}

// derivedPosterior runs the posterior loop of formula d's kind: per
// interval, read straight from the stitched series, the value, the exact
// gradient and the delta-method std, with the tracked pairs' cross terms in
// the order uarch.DeltaStd adds them. A ratio has at most one tracked pair,
// its two inputs; a linear ratio keeps its gradient in grad for the cross
// terms. A formula that fails Validate gets NaN values, as Eval gives.
//
//bayesperf:hotpath
func (e *Engine) derivedPosterior(d *uarch.Derived, pairs []pairRef, res *Result, mean, std timeseries.Series, grad []float64) {
	n := len(mean)
	std = std[:n]
	switch d.Kind {
	case uarch.KindRatio:
		scale := d.Scale
		a, b := res.Corrected[d.Inputs[0]][:n], res.Corrected[d.Inputs[1]][:n]
		sa, sb := res.CorrectedStd[d.Inputs[0]][:n], res.CorrectedStd[d.Inputs[1]][:n]
		for t := range mean {
			x, y := a[t], b[t]
			mean[t] = uarch.RatioValue(scale, x, y)
			ga, gb := uarch.RatioGradient(scale, x, y)
			v := uarch.DeltaTerm(uarch.DeltaTerm(0, ga, sa[t]), gb, sb[t])
			for _, pr := range pairs {
				v = uarch.DeltaCross(v, ga, sa[t], gb, sb[t], e.stitchedRho(pr.pi, t))
			}
			std[t] = uarch.DeltaRoot(v)
		}
	case uarch.KindLinearRatio:
		k := len(d.Inputs)
		grad, num, den := grad[:k], d.Num[:k], d.Den[:k]
		corr, cstd := res.Corrected, res.CorrectedStd
		for t := range mean {
			var nsum, dsum float64
			for i, id := range d.Inputs {
				nsum, dsum = uarch.LinearTerm(nsum, dsum, num[i], den[i], corr[id][t])
			}
			f := uarch.LinearValue(nsum, dsum)
			mean[t] = f
			var v float64
			for i, id := range d.Inputs {
				grad[i] = uarch.LinearGradient(num[i], den[i], f, dsum)
				v = uarch.DeltaTerm(v, grad[i], cstd[id][t])
			}
			for _, pr := range pairs {
				v = uarch.DeltaCross(v, grad[pr.i], cstd[d.Inputs[pr.i]][t], grad[pr.j], cstd[d.Inputs[pr.j]][t],
					e.stitchedRho(pr.pi, t))
			}
			std[t] = uarch.DeltaRoot(v)
		}
	default:
		for t := range mean {
			mean[t] = math.NaN()
		}
	}
}

// DerivedSeries evaluates formula d at every interval of the per-event
// series events (indexed by EventID), over the intervals all of its inputs
// cover. Finish pushes both baselines through it.
func DerivedSeries(d *uarch.Derived, events []timeseries.Series) timeseries.Series {
	if len(d.Inputs) == 0 {
		return nil
	}
	n := len(events[d.Inputs[0]])
	for _, id := range d.Inputs[1:] {
		n = min(n, len(events[id]))
	}
	out := make(timeseries.Series, n)
	derivedValues(d, events, out)
	return out
}

// derivedValues writes formula d at every interval of out through the value
// loop of its kind; a formula that fails Validate gets NaN values, as Eval
// gives.
//
//bayesperf:hotpath
func derivedValues(d *uarch.Derived, events []timeseries.Series, out timeseries.Series) {
	n := len(out)
	switch d.Kind {
	case uarch.KindRatio:
		scale, a, b := d.Scale, events[d.Inputs[0]][:n], events[d.Inputs[1]][:n]
		for t := range out {
			out[t] = uarch.RatioValue(scale, a[t], b[t])
		}
	case uarch.KindLinearRatio:
		num, den := d.Num[:len(d.Inputs)], d.Den[:len(d.Inputs)]
		for t := range out {
			var nsum, dsum float64
			for i, id := range d.Inputs {
				nsum, dsum = uarch.LinearTerm(nsum, dsum, num[i], den[i], events[id][t])
			}
			out[t] = uarch.LinearValue(nsum, dsum)
		}
	default:
		for t := range out {
			out[t] = math.NaN()
		}
	}
}

// IntervalSource feeds the streaming engine: anything that emits a sequence
// of multiplexed interval samples. measure.Sampler implements it; so does
// any pkg/bayesperf.Source, which is how a future perf-event reader plugs
// into this engine without changes here. Since Ingest keeps no slice of a
// sample, Next may overwrite the Events and Values buffers it returned the
// time before.
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
// stitch feeds Result.PostRelStd.
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
	cfg = cfg.WithDefaults()
	return Run(tr.Cat, measure.NewSampler(tr, cfg.Mux, sched, r), sched, cfg)
}
