package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"bayesperf/internal/timeseries"
	"bayesperf/pkg/bayesperf"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// units declares every number the benchmark reports. The end-to-end and
// per-layer names must match BENCHMARK.json exactly; the rest are printed
// next to them as context and never gated.
var units = map[string]string{
	// End to end (untraced runs).
	"setup_s":                 "s",
	"ips_p90":                 "intervals/s",
	"cpu_us_per_interval_p10": "us",
	"alloc_b_per_interval":    "B",
	"heap_b_per_interval":     "B",
	"corrected_err":           "fraction",
	"decision_us_p10":         "us",
	"decision_us_p90":         "us",

	// Per layer (traced runs).
	"stream.start_us":               "us",
	"stream.ingest_ns.p50":          "ns",
	"stream.ingest_ns.p99":          "ns",
	"stream.ingest_frac":            "fraction",
	"stream.finish_ms":              "ms",
	"stream.finish_frac":            "fraction",
	"stream.epoch_us.p50":           "us",
	"stream.epoch_us.p99":           "us",
	"graph.observe_ns_per_window":   "ns",
	"graph.execute_ns_per_window":   "ns",
	"graph.sweeps_per_window":       "count",
	"measure.sample_ns":             "ns",
	"stream.windows":                "count",
	"stream.batches":                "count",
	"stream.batch_fill.mean":        "fraction",
	"graph.sweeps_total":            "count",
	"graph.unconverged":             "count",
	"measure.gumbel_rejected":       "count",
	"measure.dropped_nonfinite":     "count",
	"stream.live_outliers":          "count",
	"sched.slot_moves":              "count",
	"stream.stage.ingest_us.mean":   "us",
	"stream.stage.snapshot_us.mean": "us",
	"stream.stage.dispatch_us.mean": "us",
	"stream.stage.infer_us.mean":    "us",
	"stream.stage.stitch_us.mean":   "us",
	"stream.stage.report_us.mean":   "us",
	"stream.serial_ips":             "intervals/s",
	"stream.parallel_speedup":       "ratio",
	"trace.ledger_frac":             "fraction",
	"trace.overhead_frac":           "fraction",

	// Context.
	"ips_p50":             "intervals/s",
	"session_ms_p90":      "ms",
	"cpu_us_per_interval": "us",
	"decision_us_p50":     "us",
	"decision_us_p99":     "us",
	"sessions":            "count",
	"traced_sessions":     "count",
	"decision_samples":    "count",
	"naive_err":           "fraction",
	"failed_frac":         "fraction",
	"log_warnings":        "count",
	"untraced_ips_p50":    "intervals/s",
	"traced_ips_p50":      "intervals/s",
}

// result is one workload's outcome.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Info      map[string]metric `json:"info"`
	Problems  []string          `json:"problems,omitempty"`
}

func (r *result) set(name string, v float64)  { r.Metrics[name] = metric{v, unitOf(name)} }
func (r *result) info(name string, v float64) { r.Info[name] = metric{v, unitOf(name)} }

func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("bench: no unit declared for " + name)
	}
	return u
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// config is one invocation's settings.
type config struct {
	root     string
	seed     uint64
	seconds  float64
	traced   bool
	phaseLen int     // intervals per workload phase
	sessions int     // timed sessions; 0 runs until seconds have elapsed, at least minSessions
	spans    *tracer // traced runs: collects spans and histograms
	warnings *lineCounter
}

// done reports whether the timed loop has run enough sessions.
func (c config) done(sessions int, elapsed time.Duration) bool {
	if c.sessions > 0 {
		return sessions >= c.sessions
	}
	return sessions >= maxSessions || (sessions >= minSessions && elapsed.Seconds() >= c.seconds)
}

// runSession runs one RunStream call, turning a panic on the calling
// goroutine into an error, and returns the call's start and end times.
func runSession(sess *bayesperf.Session, src bayesperf.Source) (rep *bayesperf.Report, start, end time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	start = now()
	rep, err = sess.RunStream(src)
	end = now()
	return rep, start, end, err
}

// bench is one workload's run in progress.
type bench struct {
	c      config
	w      workload
	f      *fixture
	res    *result
	starts []int // window starts the hop schedule predicts for a session
}

// checkSession applies the per-session checks, counting the windows the
// session attempted and those that failed: unconverged windows, or all of
// them when the session errs. It reports whether the report is usable.
func (b *bench) checkSession(what string, rep *bayesperf.Report, err error) bool {
	b.res.Attempted += len(b.starts)
	if err != nil {
		b.res.Failed += len(b.starts)
		b.res.fail("%s: %v", what, err)
		return false
	}
	b.res.Failed += rep.UnconvergedWindows
	ok := true
	if rep.Intervals != b.f.intervals() {
		b.res.fail("%s: %d intervals reported, %d fed", what, rep.Intervals, b.f.intervals())
		ok = false
	}
	if rep.Windows != len(b.starts) {
		b.res.fail("%s: %d windows, the hop schedule predicts %d", what, rep.Windows, len(b.starts))
		ok = false
	}
	return ok
}

// runWorkload sets up one workload, runs its sessions and checks them.
func runWorkload(c config, w workload) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}, Info: map[string]metric{}}
	warned := c.warnings.count()

	var f *fixture
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		f = nil
		runtime.GC()
		t0 := now()
		var err error
		if f, err = setup(c.root, w, c.seed, c.phaseLen); err != nil {
			return nil, err
		}
		t1 := now()
		setups = append(setups, (t1 - t0).Seconds())
		c.spans.add(span{Name: "setup", Workload: w.name, Session: -1, Parent: -1, Start: t0, End: t1})
	}
	b := &bench{c: c, w: w, f: f, res: res,
		starts: windowStarts(f.intervals(), f.cfg.Window, f.cfg.Hop)}
	sess := f.sess

	p := newBoundary(f.epoch(), f.intervals(), false)
	t0 := now()
	for i := 0; i < warmupSessions; i++ {
		rep, _, _, err := runSession(sess, f.source(i, p))
		b.checkSession("warm-up session", rep, err)
	}
	c.spans.add(span{Name: "warmup", Workload: w.name, Session: -1, Parent: -1, Start: t0, End: now()})

	if c.traced {
		if err := b.timedTraced(sess, p); err != nil {
			return nil, err
		}
	} else {
		b.timed(sess, p)
		res.set("setup_s", quantile(setups, 0)) // the fastest set-up
		b.heapProbe(sess, p)
	}
	want, kept := b.accuracyProbes(sess, p)
	if err := b.oneWorker(p, want); err != nil {
		return nil, err
	}
	if c.traced {
		b.replayGraph(kept)
	}
	res.info("failed_frac", float64(res.Failed)/float64(res.Attempted))
	res.info("log_warnings", float64(c.warnings.count()-warned))
	return res, nil
}

// timed runs the untraced timed sessions and sets the end-to-end timing
// metrics. The loop's own allocations (one small Source per session) are
// negligible, so the allocation counter sees the pipeline's.
//
// The host is shared, and interference only ever slows a session down: a
// busy neighbour stretches some sessions and some epochs by up to half, in
// proportions that change from run to run. The gated
// timing metrics therefore take the fast end of each distribution (the
// 90th percentile of session throughput, the 10th of per-session CPU time,
// the 10th and 90th of decision latency), which repeats across runs and
// still moves with any change to the program's own cost. Medians and tails
// are reported alongside as context.
func (b *bench) timed(sess *bayesperf.Session, p *boundary) {
	f, c := b.f, b.c
	n := c.sessions
	if n == 0 {
		n = maxSessions
	}
	walls := make([]time.Duration, 0, n)
	cpus := make([]float64, 0, n)
	gaps := make([]time.Duration, 0, n*(f.intervals()/p.epoch+1))

	var ru0, ru1, s0, s1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // RUSAGE_SELF cannot fail
	runtime.ReadMemStats(&ms0)
	begin := now()
	ran := 0
	for ; !c.done(ran, now()-begin); ran++ {
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &s0)
		rep, start, end, err := runSession(sess, f.source(ran, p))
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &s1)
		if b.checkSession("timed session", rep, err) {
			walls = append(walls, end-start)
			cpus = append(cpus, (cpuTime(s1)-cpuTime(s0)).Seconds()*1e6/float64(f.intervals()))
			gaps = append(gaps, p.gaps...)
		}
	}
	finish := now()
	runtime.ReadMemStats(&ms1)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	c.spans.add(span{Name: "timed", Workload: b.w.name, Session: -1, Parent: -1, Start: begin, End: finish})

	intervals := float64(ran * f.intervals())
	ips := rates(walls, f.intervals())
	us := durations(gaps, time.Microsecond)
	b.res.set("ips_p90", quantile(ips, 0.9))
	b.res.set("cpu_us_per_interval_p10", quantile(cpus, 0.1))
	b.res.set("alloc_b_per_interval", float64(ms1.TotalAlloc-ms0.TotalAlloc)/intervals)
	b.res.set("decision_us_p10", quantile(us, 0.1))
	b.res.set("decision_us_p90", quantile(us, 0.9))
	b.res.info("ips_p50", median(ips))
	b.res.info("session_ms_p90", quantile(durations(walls, time.Millisecond), 0.9))
	b.res.info("cpu_us_per_interval", (cpuTime(ru1)-cpuTime(ru0)).Seconds()*1e6/intervals)
	b.res.info("decision_us_p50", median(us))
	b.res.info("decision_us_p99", quantile(us, 0.99))
	b.res.info("sessions", float64(ran))
	b.res.info("decision_samples", float64(len(gaps)))
}

// heapProbe measures the live heap a session holds just before Finish,
// net of the heap before the session, per interval (median of three).
func (b *bench) heapProbe(sess *bayesperf.Session, p *boundary) {
	var heaps []float64
	for i := 0; i < 3; i++ {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		p.heap = true
		rep, _, _, err := runSession(sess, b.f.source(0, p))
		p.heap = false
		if b.checkSession("heap probe", rep, err) {
			heaps = append(heaps, (float64(p.heapBytes)-float64(ms.HeapAlloc))/float64(b.f.intervals()))
		}
	}
	if len(heaps) > 0 {
		b.res.set("heap_b_per_interval", median(heaps))
	}
}

// accuracyProbes runs one session per noise stream at two workers, checks
// every output value and scores it against ground truth. It returns the
// hash of stream 0's output and, on a traced adaptive run, the intervals
// stream 0's live sampler served, for the graph replay.
func (b *bench) accuracyProbes(sess *bayesperf.Session, p *boundary) (want uint64, kept *recording) {
	f, res := b.f, b.res
	var corr, naive float64
	for k := range f.seeds {
		src := f.source(k, p)
		if live, ok := src.(*liveSource); ok && k == 0 && b.c.traced {
			kept = &recording{}
			live.keep = kept
		}
		rep, _, _, err := runSession(sess, src)
		if !b.checkSession("accuracy probe", rep, err) {
			continue
		}
		if err := checkFinite(rep.Stream); err != nil {
			res.fail("accuracy probe on stream %d: %v", k, err)
		}
		c, n := accuracy(f.truth, rep.Stream)
		corr += c / float64(len(f.seeds))
		naive += n / float64(len(f.seeds))
		if k == 0 {
			want = hashStream(rep.Stream)
		}
	}
	if b.c.traced {
		res.info("corrected_err", corr)
	} else {
		res.set("corrected_err", corr)
	}
	res.info("naive_err", naive)
	if !(corr < naive) {
		res.fail("corrected error %.4g is not below naive error %.4g", corr, naive)
	}
	return want, kept
}

// oneWorker reruns stream 0 at one worker, which must hash bit-identically
// to the two-worker output. Traced runs time five one-worker sessions as
// the serial baseline.
func (b *bench) oneWorker(p *boundary, want uint64) error {
	f, res := b.f, b.res
	serial, err := b.w.session(f.cat, 1, nil)
	if err != nil {
		return err
	}
	runs := 1
	if b.c.traced {
		runs = 5
	}
	var walls []time.Duration
	for k := 0; k < runs; k++ {
		rep, start, end, err := runSession(serial, f.source(k, p))
		if !b.checkSession("one-worker session", rep, err) {
			continue
		}
		walls = append(walls, end-start)
		if k == 0 && hashStream(rep.Stream) != want {
			res.fail("stream 0 differs between %d workers and 1 worker", workers)
		}
	}
	if b.c.traced {
		serialIPS := median(rates(walls, f.intervals()))
		res.set("stream.serial_ips", serialIPS)
		res.set("stream.parallel_speedup", res.Info["untraced_ips_p50"].Value/serialIPS)
	}
	return nil
}

// replayGraph sets the graph-layer metrics from a replay of stream 0's
// windows, and checks the replay's sweeps per window against the engine's.
func (b *bench) replayGraph(kept *recording) {
	res := b.res
	rec := kept
	if rec == nil {
		rec = b.f.streams[0]
	}
	t0 := now()
	rp := replay(b.f, rec, b.starts)
	b.c.spans.add(span{Name: "graph.replay", Workload: b.w.name, Session: -1, Parent: -1, Start: t0, End: now()})
	res.set("graph.observe_ns_per_window", rp.observeNs)
	res.set("graph.execute_ns_per_window", rp.executeNs)
	res.set("graph.sweeps_per_window", rp.sweeps)
	engine := res.Metrics["graph.sweeps_total"].Value / res.Metrics["stream.windows"].Value
	if math.Abs(rp.sweeps-engine) > 0.1*engine {
		res.fail("replayed %.3g sweeps/window, the engine ran %.3g", rp.sweeps, engine)
	}
}

// accuracy scores a session's corrected and naive series against ground
// truth: the mean over events of the index-aligned MAPE. The output is
// interval-aligned, so no DTW is needed.
func accuracy(truth *bayesperf.Trace, s *bayesperf.StreamResult) (corrected, naive float64) {
	for id := range truth.Series {
		corrected += timeseries.MAPE(truth.Series[id], s.Corrected[id], 1)
		naive += timeseries.MAPE(truth.Series[id], s.NaiveRaw[id], 1)
	}
	n := float64(len(truth.Series))
	return corrected / n, naive / n
}

// checkFinite requires every corrected mean and std to be finite, and
// every std positive.
func checkFinite(s *bayesperf.StreamResult) error {
	for id := range s.Corrected {
		for t, v := range s.Corrected[id] {
			sd := s.CorrectedStd[id][t]
			if !finite(v) || !finite(sd) || !(sd > 0) {
				return fmt.Errorf("event %d interval %d: corrected %v ± %v", id, t, v, sd)
			}
		}
	}
	return nil
}

// hashStream is FNV-1a over the bits of every corrected mean and std.
func hashStream(s *bayesperf.StreamResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, series := range [][]timeseries.Series{s.Corrected, s.CorrectedStd} {
		for _, xs := range series {
			for _, x := range xs {
				bits := math.Float64bits(x)
				for i := range buf {
					buf[i] = byte(bits >> (8 * i))
				}
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

func cpuTime(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rates converts session wall times to intervals per second.
func rates(walls []time.Duration, intervals int) []float64 {
	ips := make([]float64, len(walls))
	for i, d := range walls {
		ips[i] = float64(intervals) / d.Seconds()
	}
	return ips
}

// durations converts durations to floats in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs, interpolating linearly between order
// statistics; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
