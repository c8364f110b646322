package stream

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"time"

	"bayesperf/internal/measure"
	"bayesperf/internal/obs"
	"bayesperf/internal/rng"
	"bayesperf/internal/stats"
	"bayesperf/internal/timeseries"
	"bayesperf/internal/uarch"
)

// snapshot is snapshotInto over freshly allocated slices, the form the
// window tests read. The window-index argument is unused.
func (w *Window) snapshot(_ int, mux measure.MuxConfig) windowJob {
	ne := w.cat.NumEvents()
	job := windowJob{
		obsMean:  make([]float64, ne),
		obsStd:   make([]float64, ne),
		disp:     make([]float64, ne),
		observed: make([]bool, ne),
	}
	w.snapshotInto(&job, mux, mux.RejectThreshold())
	return job
}

// presample records the round-robin sampler's stream over a trace.
func presample(tr *measure.Trace, seed uint64) []measure.IntervalSample {
	smp := measure.NewSampler(tr, measure.DefaultMuxConfig(), measure.NewRoundRobin(tr.Cat), rng.New(seed))
	var samples []measure.IntervalSample
	for {
		s, ok := smp.Next()
		if !ok {
			return samples
		}
		samples = append(samples, s)
	}
}

// cycleSource replays pre-sampled intervals, cycling through them with
// consecutive interval numbers until n intervals are served, so streams of
// any length cost nothing to produce and Next never allocates.
type cycleSource struct {
	samples []measure.IntervalSample
	n, t    int
}

func newCycleSource(cat *uarch.Catalog, n int) *cycleSource {
	tr := measure.GroundTruth(cat, measure.DefaultWorkload(80), rng.New(3))
	return &cycleSource{samples: presample(tr, 4), n: n}
}

func (s *cycleSource) Next() (measure.IntervalSample, bool) {
	if s.t == s.n {
		return measure.IntervalSample{}, false
	}
	iv := s.samples[s.t%len(s.samples)]
	iv.T = s.t
	s.t++
	return iv, true
}

// readLate makes the highest-numbered multiplexed event of tr read NaN
// before interval first, so every earlier interval's naive value is its
// first reading, and so is the windowed raw value of those no window that
// saw the event covers.
func readLate(tr *measure.Trace, first int) {
	for id := tr.Cat.NumEvents() - 1; id >= 0; id-- {
		if !tr.Cat.Event(uarch.EventID(id)).Fixed {
			for ti := 0; ti < first && ti < len(tr.Series[id]); ti++ {
				tr.Series[id][ti] = math.NaN()
			}
			return
		}
	}
}

// stateBound is the engine state bound derived from the configuration
// alone, each ring rounded up to a power of two. The interval ring never
// holds more than the intervals spanned by the windows in flight (fewer
// than 2·Workers·Batch dispatched plus one batch being filled), one window,
// and the headroom for settling on the pool: twice the larger of a settle
// block and a batch's Batch·Hop intervals. The record ring holds those
// windows, the ⌈Window/Hop⌉ + 1 stitched ones that can still cover an
// interval not yet ready, and the windows over the headroom. At most
// 2·Workers hand-offs are ever live.
func stateBound(cfg Config) (ringCap, recCap, handoffs int) {
	cfg = cfg.WithDefaults()
	pow2 := func(need int) int {
		n := 1
		for n < need {
			n *= 2
		}
		return n
	}
	inFlight := 2*cfg.Workers*cfg.Batch + cfg.Batch
	headroom := 2 * max(settleSpan, cfg.Batch*cfg.Hop)
	ringCap = pow2(inFlight*cfg.Hop + cfg.Window + headroom)
	recCap = pow2(inFlight + (cfg.Window+cfg.Hop-1)/cfg.Hop + 1 + (headroom+cfg.Hop-1)/cfg.Hop)
	return ringCap, recCap, 2 * cfg.Workers
}

// liveRecords is the number of window records the engine must keep: every
// window from the first that still covers an unsettled interval to the
// last one emitted.
func liveRecords(e *Engine) int {
	first := 0
	if e.final >= e.cfg.Window {
		first = (e.final - e.cfg.Window + e.cfg.Hop) / e.cfg.Hop
	}
	return e.nextIdx - first
}

// TestEngineStateBounded: the interval ring, the record ring and the
// hand-off pool stay under a bound computed from Window, Hop, Workers and
// Batch, the same at 10³ and at 10⁵ intervals — including with more
// workers than CPUs, where one descheduled worker lets the others race
// ahead. The unsettled span and the live records are sampled after every
// interval: the span must always fit the interval ring, and the live
// records the record ring, so no live record is ever overwritten. The
// long stream's settle blocks must go to the pool in every configuration
// (at 10³ intervals a batch of 64 windows is not back before Finish),
// including with a Flush every 24 intervals, as the adaptive epoch loop
// runs it: each epoch's 6 windows never fill a batch of 8, so Flush runs
// every batch on the calling goroutine and the pool only settles.
func TestEngineStateBounded(t *testing.T) {
	cat := uarch.Skylake()
	long := 100_000
	if raceEnabled {
		long = 10_000 // the race detector slows the engine ~10×; 10⁴ still spans many rings
	}
	configs := []struct {
		name   string
		set    func(*Config)
		epoch  int  // Flush every epoch intervals (0: never)
		pooled bool // the long stream's settle blocks must go to the pool
	}{
		{"default", func(c *Config) { c.Workers = 2 }, 0, true},
		{"oversubscribed", func(c *Config) { c.Workers = 4 * runtime.NumCPU() }, 0, true},
		{"hop1-batch1", func(c *Config) { c.Window, c.Hop, c.Workers, c.Batch = 16, 1, 3, 1 }, 0, true},
		{"batch64-cov", func(c *Config) { c.Workers, c.Batch, c.Covariance = 2, 64, true }, 0, true},
		// Hop = Window: the interval ring spans more windows than the record
		// ring holds, so the record ring's own wait is what bounds it.
		{"tumbling", func(c *Config) { c.Hop, c.Workers = 24, 2 }, 0, true},
		{"epoch", func(c *Config) { c.Workers = 2 }, 24, true},
	}
	for _, c := range configs {
		cfg := DefaultConfig()
		c.set(&cfg)
		ringBound, recBound, handoffBound := stateBound(cfg)
		for _, n := range []int{1_000, long} {
			e := NewEngine(cat, cfg)
			src := newCycleSource(cat, n)
			span, live, pooled := 0, 0, false
			for {
				s, ok := src.Next()
				if !ok {
					break
				}
				e.Ingest(s)
				if c.epoch > 0 && e.ingested%c.epoch == 0 {
					e.Flush()
				}
				span = max(span, e.ingested-e.final)
				live = max(live, liveRecords(e))
				pooled = pooled || len(e.settling) > 0
			}
			res := e.Finish()
			if res.Intervals != n {
				t.Fatalf("%s n=%d: %d intervals out", c.name, n, res.Intervals)
			}
			// Finish returned every hand-off to the free list.
			handoffs := len(e.free)
			t.Logf("%s n=%d: unsettled span ≤ %d, ring %d (bound %d), live records ≤ %d, record ring %d (bound %d), hand-offs %d (bound %d), posted %v",
				c.name, n, span, e.ringCap, ringBound, live, e.recCap, recBound, handoffs, handoffBound, pooled)
			if e.ringCap > ringBound || span > e.ringCap {
				t.Errorf("%s n=%d: unsettled span %d in a ring of %d, bound %d",
					c.name, n, span, e.ringCap, ringBound)
			}
			if e.recCap > recBound || live > e.recCap {
				t.Errorf("%s n=%d: %d live records in a ring of %d, bound %d",
					c.name, n, live, e.recCap, recBound)
			}
			if handoffs > handoffBound {
				t.Errorf("%s n=%d: %d hand-offs allocated, bound %d", c.name, n, handoffs, handoffBound)
			}
			if n == long && pooled != c.pooled {
				t.Errorf("%s n=%d: settle blocks posted to the pool: %v, want %v", c.name, n, pooled, c.pooled)
			}
		}
	}
}

// TestProducerRunsQueuedJobs: a producer that must wait on the pool runs
// the jobs still queued itself, so a stream goes on while every worker is
// busy. Before the first Ingest, the lone worker of a Workers-1 engine is
// handed a settle job of one interval into a chunk whose mutex the test
// holds, so the worker blocks in take; the producer must then ingest all
// 3,000 intervals alone, running every batch and settle block it waits on.
// Once the worker is released, Finish must return the Result of an
// unhindered Run bit for bit, and the caller job counter must show both
// kinds of job run. A producer that only blocks on the pool stalls in
// dispatch; the worker is then released after 10 s, so the test fails
// instead of hanging.
func TestProducerRunsQueuedJobs(t *testing.T) {
	cat := uarch.Skylake()
	tr := measure.GroundTruth(cat, measure.DefaultWorkload(1000), rng.New(41))
	samples := presample(tr, 42)
	cfg := DefaultConfig()
	cfg.Workers = 1
	want := hashResult(Run(cat, &cycleSource{samples: samples, n: len(samples)}, nil, cfg))

	reg := obs.NewRegistry()
	cfg.Metrics = reg
	e := NewEngine(cat, cfg)
	held := &outChunk{}
	held.mu.Lock()
	e.jobs <- &handoff{lo: 0, hi: 1, chunk: held}
	for len(e.jobs) > 0 { // the worker has taken the job once the queue is empty
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, s := range samples {
			e.Ingest(s)
		}
	}()
	stalled := false
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		stalled = true
	}
	held.mu.Unlock()
	<-done
	res := e.Finish()
	if stalled {
		t.Errorf("%d intervals not ingested within 10 s while the lone worker was held", len(samples))
	}
	if got := hashResult(res); got != want {
		t.Errorf("output hash %#x with the worker held, %#x from an unhindered Run", got, want)
	}
	snap := reg.Snapshot()
	for _, kind := range []string{"batch", "settle"} {
		m := snap.Find("bayesperf_stream_caller_jobs_total", obs.Label{Key: "kind", Value: kind})
		if m == nil || m.Value == 0 {
			t.Errorf("caller %s jobs %+v, want > 0", kind, m)
		} else {
			t.Logf("the producer ran %v %s jobs", m.Value, kind)
		}
	}
}

// TestEngineSteadyStateAllocs: once its hand-off pool is at its bound,
// Ingest allocates nothing per window — with covariance tracking off and
// on. The only allocations left are one output chunk's, each chunkLen
// intervals: its header and the reading log's next segment, when the one
// being written cannot take the chunk's readings, as the chunk opens; its
// rows when its first block settles, on a worker or on the producer. Every
// run below ingests exactly one chunk's worth.
func TestEngineSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cat := uarch.Skylake()
	for _, cov := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Workers = 2
		cfg.Covariance = cov
		e := NewEngine(cat, cfg)
		src := newCycleSource(cat, math.MaxInt)
		ingest := func(n int) {
			for i := 0; i < n; i++ {
				s, _ := src.Next()
				e.Ingest(s)
			}
		}
		ingest(4 * chunkLen)
		// Bring the hand-off pool to its bound, so a worker stalled by the
		// scheduler cannot make it grow inside the measurement.
		e.Flush()
		_, _, handoffBound := stateBound(e.cfg)
		for len(e.free) < handoffBound {
			e.free = append(e.free, newHandoff(e.ne, len(e.covPairs), e.cfg.Batch))
		}
		allocs := testing.AllocsPerRun(8, func() { ingest(chunkLen) })
		e.Finish()
		windows := chunkLen / cfg.Hop
		t.Logf("cov=%v: %v allocs per %d intervals (%d windows)", cov, allocs, chunkLen, windows)
		if allocs > 3 {
			t.Errorf("cov=%v: %v allocs per %d windows; want only the output chunk's header and rows and at most one log segment", cov, allocs, windows)
		}
	}
}

// TestEngineRetainedBytes: the state that grows with the stream is three
// output rows per event (corrected, std, windowed raw), one per tracked
// pair, and the reading log — no row per event of naive values. Over a long
// Skylake stream, the live heap after the last Ingest may exceed the heap
// after the input and the engine are built by at most 3·ne·8 B per interval
// plus 80 B for the log and the heap's rounding of the chunks, and 8 B more
// per tracked pair with covariance on. The engine's own fixed state is
// bounded by TestEngineStateBounded.
func TestEngineRetainedBytes(t *testing.T) {
	cat := uarch.Skylake()
	n := 100_000
	if raceEnabled {
		n = 10_000 // the race detector slows the engine ~10×
	}
	ne := cat.NumEvents()
	for _, cov := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Workers = 2
		cfg.Covariance = cov
		src := newCycleSource(cat, n)
		e := NewEngine(cat, cfg)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for {
			s, ok := src.Next()
			if !ok {
				break
			}
			e.Ingest(s)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perInterval := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
		bound := float64(3*ne*8 + 80 + 8*len(e.covPairs))
		e.Finish()
		t.Logf("cov=%v: %.1f B retained per interval over %d intervals, bound %.0f", cov, perInterval, n, bound)
		if perInterval > bound {
			t.Errorf("cov=%v: %.1f B retained per interval, want at most %.0f", cov, perInterval, bound)
		}
	}
}

// TestEpochBoundaryAllocs: the epoch decision path allocates nothing once
// warmed up. Flush runs the epoch's partial batch on the engine's own batch
// and stitches O(events) per window, EpochPosterior returns engine-owned
// buffers, and the adaptive scheduler's Reprioritize rebuilds its plan in
// place. Each measured epoch holds one pool batch and one partial batch
// (6 windows at Batch 4), and no epoch opens an output chunk or settles
// the first block of one, which allocates its rows. Settle blocks still go
// to the pool; posting one allocates nothing.
func TestEpochBoundaryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cat := uarch.Skylake()
	cfg := DefaultConfig()
	cfg.Workers, cfg.Batch = 2, 4
	e := NewEngine(cat, cfg)
	defer e.Finish()
	ad := measure.NewAdaptive(cat, cfg.Window)
	src := newCycleSource(cat, math.MaxInt)
	ingest := func(n int) {
		for i := 0; i < n; i++ {
			s, _ := src.Next()
			e.Ingest(s)
		}
	}
	boundary := func() {
		e.Flush()
		mean, std, obsStd, ok := e.EpochPosterior()
		if !ok {
			t.Fatal("no windows stitched this epoch")
		}
		ad.Reprioritize(mean, std, obsStd)
	}
	epoch := ad.EpochLen()
	// Warm up until the first block of output chunk 4 is posted, and take
	// back the settle jobs still out, so that block is final and the
	// chunk's rows exist; then measure the epochs that fit inside the
	// chunk. Each AllocsPerRun call runs two epochs: a warm-up and the
	// measured one.
	for e.posted <= 4*chunkLen {
		ingest(epoch)
		boundary()
	}
	for len(e.settling) > 0 {
		e.absorb(<-e.results)
	}
	measured := 0
	for e.ingested+2*epoch <= 5*chunkLen {
		allocs := testing.AllocsPerRun(1, func() {
			ingest(epoch)
			boundary()
		})
		if allocs != 0 {
			t.Errorf("epoch ending at interval %d: %v allocs, want 0", e.ingested, allocs)
		}
		measured++
	}
	t.Logf("%d epochs measured, the last ending at interval %d", measured, e.ingested)
	if measured == 0 {
		t.Fatalf("no epoch measured: interval %d is final at interval %d", e.final, e.ingested)
	}
}

// TestFinishAllocsFlat: Finish allocates the same number of objects at 512
// and at 4,096 intervals — the output series and the derived pass's
// buffers, none per interval — with covariance tracking off and on. The
// derived pass computes gradients into per-goroutine scratch and reads
// tracked correlations through a per-formula pair table. The fan-out over
// the drained pool's workers adds one object per run, its shared task
// state, whatever the stream length. It starts no goroutine, so no runtime
// goroutine record enters the count.
func TestFinishAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cat := uarch.Skylake()
	finishAllocs := func(n int, cov bool) uint64 {
		fewest := uint64(math.MaxUint64)
		for rep := 0; rep < 3; rep++ { // the fewest of three shuts out stray runtime allocations
			cfg := DefaultConfig()
			cfg.Workers = 2
			cfg.Covariance = cov
			e := NewEngine(cat, cfg)
			src := newCycleSource(cat, n)
			for {
				s, ok := src.Next()
				if !ok {
					break
				}
				e.Ingest(s)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e.Finish()
			runtime.ReadMemStats(&after)
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		return fewest
	}
	for _, cov := range []bool{false, true} {
		short, long := finishAllocs(512, cov), finishAllocs(4096, cov)
		t.Logf("cov=%v: Finish allocs %d at 512 intervals, %d at 4096", cov, short, long)
		if short != long {
			t.Errorf("cov=%v: Finish allocs grow with the stream: %d at 512 intervals, %d at 4096", cov, short, long)
		}
	}
}

// reusingSource replays samples through buffers it overwrites on every
// Next: one Values buffer, and with events set one Events buffer too. A
// source may do so, since the engine copies every reading it keeps.
type reusingSource struct {
	samples []measure.IntervalSample
	events  bool
	t       int
	ev      []uarch.EventID
	vals    []float64
}

func (s *reusingSource) Next() (measure.IntervalSample, bool) {
	if s.t == len(s.samples) {
		return measure.IntervalSample{}, false
	}
	iv := s.samples[s.t]
	s.t++
	s.vals = append(s.vals[:0], iv.Values...)
	iv.Values = s.vals
	if s.events {
		s.ev = append(s.ev[:0], iv.Events...)
		iv.Events = s.ev
	}
	return iv, true
}

// diffValues counts the values of a's event series that differ from b's
// bit for bit, out of all of them.
func diffValues(a, b *Result) (diff, total int) {
	for k, group := range [][]timeseries.Series{a.Corrected, a.CorrectedStd, a.WindowedRaw, a.NaiveRaw} {
		other := [][]timeseries.Series{b.Corrected, b.CorrectedStd, b.WindowedRaw, b.NaiveRaw}[k]
		for id, s := range group {
			for ti, v := range s {
				total++
				if math.Float64bits(v) != math.Float64bits(other[id][ti]) {
					diff++
				}
			}
		}
	}
	return diff, total
}

// TestEngineSourceReusesBuffers: a Skylake stream with about 0.1% NaN
// readings gives the same Result bit for bit whether its source hands out
// fresh slices or overwrites one Values buffer, or one Values and one
// Events buffer, on every Next, at Workers 1 and 2. A window that kept the
// source's slices to evict from would read the newest interval's values,
// or events, in place of the oldest one's. Round-robin's group cycle
// divides the default Window of 24, so the newest interval reads the same
// events as the oldest; at Window 25 it does not.
func TestEngineSourceReusesBuffers(t *testing.T) {
	cat := uarch.Skylake()
	tr := measure.GroundTruth(cat, measure.DefaultWorkload(1000), rng.New(21))
	samples := presample(tr, 22)
	nan, bad := rng.New(23), 0
	for _, s := range samples {
		for i := range s.Values {
			if nan.Float64() < 0.001 {
				s.Values[i] = math.NaN()
				bad++
			}
		}
	}
	if bad == 0 {
		t.Fatal("no NaN reading injected")
	}
	orig := warnf
	warnf = func(string, ...any) {}
	defer func() { warnf = orig }()
	for _, window := range []int{24, 25} {
		for _, workers := range []int{1, 2} {
			cfg := DefaultConfig()
			cfg.Window, cfg.Workers = window, workers
			fresh := Run(cat, &cycleSource{samples: samples, n: len(samples)}, nil, cfg)
			for _, events := range []bool{false, true} {
				res := Run(cat, &reusingSource{samples: samples, events: events}, nil, cfg)
				if hashResult(res) != hashResult(fresh) {
					diff, total := diffValues(res, fresh)
					t.Errorf("window=%d workers=%d, reused events buffer %v: %d of %d event values differ from fresh buffers (%d NaN readings)",
						window, workers, events, diff, total, bad)
				}
			}
		}
	}
}

// overflowSource counts every catalog event each interval at 1e6, except
// at 1.7e308 on intervals [50, 98): finite readings whose window sums
// overflow.
type overflowSource struct {
	cat  *uarch.Catalog
	n, t int
}

const overflowLo, overflowHi = 50, 98

func (s *overflowSource) Next() (measure.IntervalSample, bool) {
	if s.t == s.n {
		return measure.IntervalSample{}, false
	}
	v := 1e6
	if s.t >= overflowLo && s.t < overflowHi {
		v = 1.7e308
	}
	ne := s.cat.NumEvents()
	iv := measure.IntervalSample{T: s.t, Group: -1, Events: make([]uarch.EventID, ne), Values: make([]float64, ne)}
	for id := range iv.Events {
		iv.Events[id] = uarch.EventID(id)
		iv.Values[id] = v
	}
	s.t++
	return iv, true
}

// TestStreamOverflowFailSoft: finite readings large enough to overflow the
// window sums must not reach the graph (whose Observe panics on a non-finite
// observation, inside a worker goroutine no embedder can recover). The
// overflowing events are quarantined per window, counted and warned about
// once, and every output stays finite. Derived baselines evaluate their
// formulas on the readings themselves, so they are checked only outside the
// overflowing span, where a formula like 1000·x/y overflows on its own.
func TestStreamOverflowFailSoft(t *testing.T) {
	cat := uarch.Skylake()
	var base *Result
	for _, workers := range []int{1, 2} {
		warnings := 0
		orig := warnf
		warnf = func(string, ...any) { warnings++ }
		reg := obs.NewRegistry()
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Metrics = reg
		res := Run(cat, &overflowSource{cat: cat, n: 200}, nil, cfg)
		warnf = orig

		if warnings != 1 {
			t.Errorf("workers=%d: %d warnings, want exactly 1", workers, warnings)
		}
		snap := reg.Snapshot()
		if m := snap.Find("bayesperf_stream_quarantined_total"); m == nil || m.Value == 0 {
			t.Errorf("workers=%d: quarantine counter = %+v, want > 0", workers, m)
		}
		check := func(name string, series []timeseries.Series, positive, inSpan bool) {
			for i, s := range series {
				for ti, v := range s {
					if !inSpan && ti >= overflowLo && ti < overflowHi {
						continue
					}
					if math.IsNaN(v) || math.IsInf(v, 0) || (positive && v <= 0) {
						t.Fatalf("workers=%d: %s[%d][%d] = %v", workers, name, i, ti, v)
					}
				}
			}
		}
		check("Corrected", res.Corrected, false, true)
		check("CorrectedStd", res.CorrectedStd, true, true)
		check("WindowedRaw", res.WindowedRaw, false, true)
		check("NaiveRaw", res.NaiveRaw, false, true)
		check("DerivedCorrected", res.DerivedCorrected, false, true)
		check("DerivedCorrectedStd", res.DerivedCorrectedStd, false, true)
		check("DerivedCorrectedStd", res.DerivedCorrectedStd, true, false)
		check("DerivedWindowedRaw", res.DerivedWindowedRaw, false, false)
		check("DerivedNaive", res.DerivedNaive, false, false)
		if base == nil {
			base = res
		} else if hashResult(res) != hashResult(base) {
			t.Errorf("workers=%d: output differs from workers=1", workers)
		}
	}
}

// TestEventRingHealsAfterOverflow: once an overflowing reading slides out
// of the window, the running sums are finite again.
func TestEventRingHealsAfterOverflow(t *testing.T) {
	cat := uarch.Skylake()
	loads := cat.MustEvent("MEM_INST_RETIRED.ALL_LOADS")
	w := NewWindow(cat, 4)
	push := func(ti int, v float64) {
		w.Push(measure.IntervalSample{T: ti, Events: []uarch.EventID{loads}, Values: []float64{v}})
	}
	push(0, 1.7e308)
	push(1, 1.7e308)
	if job := w.snapshot(0, measure.DefaultMuxConfig()); job.observed[loads] || job.quarantined != 1 {
		t.Fatalf("overflowing window: observed=%v quarantined=%d, want quarantined", job.observed[loads], job.quarantined)
	}
	for ti := 2; ti < 8; ti++ {
		push(ti, 1e6)
	}
	job := w.snapshot(0, measure.DefaultMuxConfig())
	if !job.observed[loads] || job.quarantined != 0 {
		t.Fatalf("healed window: observed=%v quarantined=%d", job.observed[loads], job.quarantined)
	}
	if got := job.obsMean[loads]; got != 4e6 {
		t.Errorf("healed window total = %v, want 4e6", got)
	}
}

// hashResult folds every output of a Result into one FNV-64a hash, in a
// fixed order: the shape, the pooled posterior std, then the event and
// derived series.
func hashResult(res *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(res.Intervals))
	word(uint64(res.Windows))
	pooled := func(r stats.Running) {
		word(uint64(r.N()))
		for _, v := range []float64{r.Mean(), r.Variance(), r.Min(), r.Max()} {
			word(math.Float64bits(v))
		}
	}
	pooled(res.PostRelStd)
	for _, group := range [][]timeseries.Series{
		res.Corrected, res.CorrectedStd, res.WindowedRaw, res.NaiveRaw,
		res.DerivedCorrected, res.DerivedCorrectedStd, res.DerivedWindowedRaw, res.DerivedNaive,
	} {
		word(uint64(len(group)))
		for _, s := range group {
			word(uint64(len(s)))
			for _, v := range s {
				word(math.Float64bits(v))
			}
		}
	}
	return h.Sum64()
}
