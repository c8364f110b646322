package main

import (
	"bytes"
	"sync"
	"time"

	"bayesperf/internal/graph"
	"bayesperf/internal/measure"
	"bayesperf/pkg/bayesperf"
)

// tracedEvery makes the first of every five timed sessions of a traced run
// a traced one; the others run untraced, so one process measures both and
// the difference is the tracing overhead.
const tracedEvery = 5

// span is one timed step: a set-up, a session, or a layer boundary inside
// a session. Spans of one session share its Session number.
type span struct {
	Name     string        `json:"name"`
	Workload string        `json:"workload"`
	Session  int           `json:"session"` // traced session number, -1 outside sessions
	Parent   int           `json:"parent"`  // index of the enclosing span, -1 for none
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
}

// histogram is a log2-bucketed latency distribution: Counts[i] holds the
// samples of at most Bounds[i] nanoseconds not counted before; the last
// count is the overflow.
type histogram struct {
	Name     string    `json:"name"`
	Workload string    `json:"workload"`
	Bounds   []float64 `json:"bounds_ns"`
	Counts   []int     `json:"counts"`
	SumNs    float64   `json:"sum_ns"`
}

// tracer keeps a traced run's spans and histograms in memory until the
// run ends. A nil tracer records nothing.
type tracer struct {
	Spans      []span      `json:"spans"`
	Histograms []histogram `json:"histograms"`
}

func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.Spans = append(t.Spans, s)
	return len(t.Spans) - 1
}

func (t *tracer) histogram(workload, name string, ds []time.Duration) {
	if t == nil {
		return
	}
	h := histogram{Name: name, Workload: workload}
	for b := 64.0; b <= 1<<30; b *= 2 {
		h.Bounds = append(h.Bounds, b)
	}
	h.Counts = make([]int, len(h.Bounds)+1)
	for _, d := range ds {
		ns := float64(d)
		i := 0
		for i < len(h.Bounds) && ns > h.Bounds[i] {
			i++
		}
		h.Counts[i]++
		h.SumNs += ns
	}
	t.Histograms = append(t.Histograms, h)
}

// ledger splits traced sessions' wall time at the Source boundary: start
// (RunStream entry to the first Next), the sampling inside Next, the gaps
// between consecutive Next calls (epoch-ending gaps apart), and finish (the
// end-of-stream Next to RunStream's return). The parts tile each session.
type ledger struct {
	sessions                                   int
	wall, start, sample, ingest, epoch, finish time.Duration
	starts, finishes                           []float64
	ingestGaps, epochGaps                      []time.Duration
	calls                                      int
}

// add folds one traced session into the ledger and records its spans.
func (l *ledger) add(p *boundary, start, end time.Duration, t *tracer, workload string) {
	n := p.calls
	if n == 0 {
		return
	}
	root := t.add(span{Name: "session", Workload: workload, Session: l.sessions, Parent: -1, Start: start, End: end})
	t.add(span{Name: "stream.start", Workload: workload, Session: l.sessions, Parent: root, Start: start, End: p.enter[0]})
	for i := 0; i < n; i++ {
		l.sample += p.exit[i] - p.enter[i]
		if i+1 == n {
			break
		}
		gap := p.enter[i+1] - p.exit[i]
		if (i+1)%p.epoch == 0 {
			l.epoch += gap
			l.epochGaps = append(l.epochGaps, gap)
			t.add(span{Name: "stream.epoch", Workload: workload, Session: l.sessions, Parent: root, Start: p.exit[i], End: p.enter[i+1]})
		} else {
			l.ingest += gap
			l.ingestGaps = append(l.ingestGaps, gap)
		}
	}
	t.add(span{Name: "stream.finish", Workload: workload, Session: l.sessions, Parent: root, Start: p.exit[n-1], End: end})
	l.start += p.enter[0] - start
	l.finish += end - p.exit[n-1]
	l.wall += end - start
	l.starts = append(l.starts, float64(p.enter[0]-start)/float64(time.Microsecond))
	l.finishes = append(l.finishes, float64(end-p.exit[n-1])/float64(time.Millisecond))
	l.calls += n
	l.sessions++
}

// timedTraced runs the timed loop with every fifth session traced: a
// timestamp on every Next entry and exit, and a metrics registry on the
// Session. It sets the per-layer metrics that come from the loop.
func (b *bench) timedTraced(sess *bayesperf.Session, p *boundary) error {
	f, c, res := b.f, b.c, b.res
	reg := bayesperf.NewMetricsRegistry()
	tsess, err := b.w.session(f.cat, workers, reg)
	if err != nil {
		return err
	}
	tp := newBoundary(f.epoch(), f.intervals(), true)
	var l ledger
	var plain, traced []time.Duration
	begin := now()
	for i := 0; !c.done(i, now()-begin); i++ {
		if i%tracedEvery != 0 {
			rep, start, end, err := runSession(sess, f.source(i, p))
			if b.checkSession("timed session", rep, err) {
				plain = append(plain, end-start)
			}
			continue
		}
		rep, start, end, err := runSession(tsess, f.source(i, tp))
		if b.checkSession("traced session", rep, err) {
			traced = append(traced, end-start)
			l.add(tp, start, end, c.spans, b.w.name)
		}
	}
	c.spans.add(span{Name: "timed", Workload: b.w.name, Session: -1, Parent: -1, Start: begin, End: now()})
	c.spans.histogram(b.w.name, "stream.ingest_ns", l.ingestGaps)
	c.spans.histogram(b.w.name, "stream.epoch_ns", l.epochGaps)

	wall := float64(l.wall)
	ingest := durations(l.ingestGaps, time.Nanosecond)
	epoch := durations(l.epochGaps, time.Microsecond)
	res.set("stream.start_us", median(l.starts))
	res.set("stream.ingest_ns.p50", quantile(ingest, 0.5))
	res.set("stream.ingest_ns.p99", quantile(ingest, 0.99))
	res.set("stream.ingest_frac", float64(l.ingest)/wall)
	res.set("stream.finish_ms", median(l.finishes))
	res.set("stream.finish_frac", float64(l.finish)/wall)
	res.set("stream.epoch_us.p50", quantile(epoch, 0.5))
	res.set("stream.epoch_us.p99", quantile(epoch, 0.99))
	ledgerFrac := float64(l.start+l.sample+l.ingest+l.epoch+l.finish) / wall
	res.set("trace.ledger_frac", ledgerFrac)
	if !(ledgerFrac >= 0.95) {
		res.fail("the traced ledger covers %.3f of session wall time, want at least 0.95", ledgerFrac)
	}
	if f.w.adaptive {
		res.set("measure.sample_ns", float64(l.sample)/float64(l.calls))
	} else {
		res.set("measure.sample_ns", f.sampleNs)
	}
	untracedIPS, tracedIPS := median(rates(plain, f.intervals())), median(rates(traced, f.intervals()))
	res.set("trace.overhead_frac", 1-tracedIPS/untracedIPS)
	res.info("untraced_ips_p50", untracedIPS)
	res.info("traced_ips_p50", tracedIPS)
	res.info("sessions", float64(len(plain)+len(traced)))
	res.info("traced_sessions", float64(l.sessions))
	registryMetrics(reg, l.sessions, res)
	return nil
}

// registryMetrics reads the counters the program's own obs registry kept
// over the traced sessions, per session.
func registryMetrics(reg *bayesperf.MetricsRegistry, sessions int, res *result) {
	snap := reg.Snapshot()
	perSession := func(name string) float64 {
		if m := snap.Find(name); m != nil {
			return m.Value / float64(sessions)
		}
		return 0
	}
	mean := func(name string, labels ...bayesperf.MetricLabel) float64 {
		if m := snap.Find(name, labels...); m != nil && m.Count > 0 {
			return m.Sum / float64(m.Count)
		}
		return 0
	}
	res.set("stream.windows", perSession("bayesperf_stream_windows_total"))
	res.set("stream.batches", perSession("bayesperf_stream_batches_total"))
	res.set("stream.batch_fill.mean", mean("bayesperf_stream_batch_fill_ratio"))
	res.set("graph.sweeps_total", perSession("bayesperf_graph_sweeps_total"))
	res.set("graph.unconverged", perSession("bayesperf_graph_unconverged_windows_total"))
	res.set("measure.gumbel_rejected", perSession("bayesperf_stream_gumbel_rejected_total"))
	res.set("measure.dropped_nonfinite", perSession("bayesperf_measure_dropped_nonfinite_total"))
	res.set("stream.live_outliers", perSession("bayesperf_stream_live_outliers_total"))
	res.set("sched.slot_moves", perSession("bayesperf_sched_slot_moves_total"))
	for _, stage := range []string{"ingest", "snapshot", "dispatch", "infer", "stitch", "report"} {
		res.set("stream.stage."+stage+"_us.mean",
			1e6*mean("bayesperf_stream_stage_seconds", bayesperf.MetricLabel{Key: "stage", Value: stage}))
	}
}

// replayResult is the graph layer's cost per window, replayed alone.
type replayResult struct {
	observeNs, executeNs, sweeps float64
}

// replayPasses is how often the replay runs; each time reported is the
// median over the passes.
const replayPasses = 5

// replay times the graph layer alone on one goroutine over a session's
// own windows: observations from measure.EstimateSample over each window's
// counted readings, then graph.Compile, NewBatch(8), Observe and
// ExecuteInto with the workload's kernel and covariance settings.
func replay(f *fixture, rec *recording, starts []int) replayResult {
	ne := f.cat.NumEvents()
	win := f.cfg.Window
	if n := len(rec.group); n < win {
		win = n
	}
	offs := make([]int, len(rec.group)+1)
	for t, g := range rec.group {
		offs[t+1] = offs[t] + len(f.events[g])
	}
	mean := make([]float64, len(starts)*ne)
	std := make([]float64, len(starts)*ne)
	seen := make([]bool, len(starts)*ne)
	xs := make([][]float64, ne)
	for wi, s := range starts {
		for id := range xs {
			xs[id] = xs[id][:0]
		}
		for t := s; t < s+win; t++ {
			for i, id := range f.events[rec.group[t]] {
				if v := rec.values[offs[t]+i]; finite(v) {
					xs[id] = append(xs[id], v)
				}
			}
		}
		for id := range xs {
			if est := measure.EstimateSample(xs[id], win, f.cfg.Mux); est.N > 0 {
				at := wi*ne + id
				mean[at], std[at], seen[at] = est.Total, est.Std, true
			}
		}
	}

	plan := graph.Compile(f.cat)
	batch := plan.NewBatch(batchWidth)
	batch.FastMath = f.cfg.FastMath
	if f.cfg.Covariance {
		batch.EnableCovariance()
	}
	var br *graph.BatchResult
	var observe, execute []float64
	sweeps := 0
	w := float64(len(starts))
	for pass := 0; pass < replayPasses; pass++ {
		var obsT, exeT time.Duration
		sweeps = 0
		for lo := 0; lo < len(starts); lo += batchWidth {
			n := min(batchWidth, len(starts)-lo)
			t0 := now()
			batch.ClearObservations()
			for lane := 0; lane < n; lane++ {
				for id := 0; id < ne; id++ {
					if at := (lo+lane)*ne + id; seen[at] {
						batch.Observe(lane, bayesperf.EventID(id), mean[at], std[at])
					}
				}
			}
			t1 := now()
			br = batch.ExecuteInto(br, n, f.cfg.MaxIter, f.cfg.Tol)
			t2 := now()
			obsT += t1 - t0
			exeT += t2 - t1
			for _, it := range br.Iters[:n] {
				sweeps += it
			}
		}
		observe = append(observe, float64(obsT)/w)
		execute = append(execute, float64(exeT)/w)
	}
	return replayResult{observeNs: median(observe), executeNs: median(execute), sweeps: float64(sweeps) / w}
}

// lineCounter is the log output while the benchmark runs: the engine
// warns once per session about dropped non-finite readings, and the
// benchmark reports how many lines were written instead of printing them.
type lineCounter struct {
	mu    sync.Mutex
	lines int
}

func (c *lineCounter) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.lines += bytes.Count(p, []byte{'\n'})
	c.mu.Unlock()
	return len(p), nil
}

func (c *lineCounter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lines
}
