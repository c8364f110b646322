package stream

import (
	"math"
	"math/bits"

	"bayesperf/internal/measure"
	"bayesperf/internal/stats"
	"bayesperf/internal/uarch"
)

// eventRing holds one event's counted per-interval values inside the
// current window, with the running sums needed to re-derive the §4.2
// Student-t observation std in O(1) per slide: Σx and Σx² for the mean and
// the noise model, and the sum of squared successive differences (the
// mean-squared-successive-difference spread estimator) for the t std.
type eventRing struct {
	buf  []float64
	head int
	n    int
	sum  float64
	sq   float64
	ssd  float64
}

// wrap reduces a ring position i < 2n into [0, n). Ring positions are a
// head below the length plus a count no larger than it, so one compare
// replaces the integer division of i % n on every reading.
func wrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}

//bayesperf:hotpath
func (e *eventRing) push(x float64) {
	if e.n > 0 {
		d := x - e.buf[wrap(e.head+e.n-1, len(e.buf))]
		e.ssd += d * d
	}
	e.buf[wrap(e.head+e.n, len(e.buf))] = x
	e.n++
	e.sum += x
	e.sq += x * x
}

//bayesperf:hotpath
func (e *eventRing) pop() {
	first := e.buf[e.head]
	if e.n > 1 {
		d := e.buf[wrap(e.head+1, len(e.buf))] - first
		e.ssd -= d * d
	}
	e.head = wrap(e.head+1, len(e.buf))
	e.n--
	e.sum -= first
	e.sq -= first * first
	if e.n == 0 {
		// Re-zero exactly so float drift cannot accumulate across an
		// event's long absences.
		e.sum, e.sq, e.ssd = 0, 0, 0
	} else if (e.sum-e.sum)+(e.sq-e.sq)+(e.ssd-e.ssd) != 0 { //bayesvet:bitwise x−x is +0 exactly when x is finite, NaN otherwise
		// A finite reading whose sum or square overflowed left Inf (and,
		// once evicted, Inf − Inf = NaN) behind; rebuild the sums from the
		// buffer so the ring heals as soon as the reading slides out.
		e.resum()
	}
}

// resum recomputes the running sums from the buffered values.
func (e *eventRing) resum() {
	e.sum, e.sq, e.ssd = 0, 0, 0
	for i := 0; i < e.n; i++ {
		x := e.buf[wrap(e.head+i, len(e.buf))]
		e.sum += x
		e.sq += x * x
		if i > 0 {
			d := x - e.buf[wrap(e.head+i-1, len(e.buf))]
			e.ssd += d * d
		}
	}
}

// ordered appends the ring's values in arrival order to dst[:0].
func (e *eventRing) ordered(dst []float64) []float64 {
	dst = dst[:0]
	for i := 0; i < e.n; i++ {
		dst = append(dst, e.buf[wrap(e.head+i, len(e.buf))])
	}
	return dst
}

// filteredSums applies the Gumbel outlier filter to the ring's readings,
// compacting the survivors in place over their ordered copy in scratch,
// and returns the survivors' count and sums with the number rejected. The
// ring holds only finite values, so the filter always keeps at least one
// reading; with none rejected the ring's own running sums come back.
//
//bayesperf:hotpath
func (e *eventRing) filteredSums(gumbel stats.GumbelThreshold, scratch []float64) (n int, sum, sq, ssd float64, rejected int) {
	xs := e.ordered(scratch)
	kept, rejected := gumbel.FilterMax(xs, xs[:0])
	if rejected == 0 {
		return e.n, e.sum, e.sq, e.ssd, 0
	}
	for i, x := range kept {
		sum += x
		sq += x * x
		if i > 0 {
			d := x - kept[i-1]
			ssd += d * d
		}
	}
	return len(kept), sum, sq, ssd, rejected
}

// Window is the sliding accumulator of the streaming engine: it ingests the
// last size intervals' multiplexed samples and derives, per event, the
// scaled window total and its Student-t observation std incrementally —
// each slide is O(live events), not O(window). It keeps none of a sample's
// slices: each event's readings live in its own ring, and the window's own
// record of each interval it holds, the events whose reading it pushed, is
// what eviction pops.
type Window struct {
	cat  *uarch.Catalog
	size int
	// pushed is a ring of size bitsets over the catalog's events, one per
	// interval held, each words uint64s long: bit id of slot i is set when
	// that interval pushed a finite reading of event id.
	pushed  []uint64
	words   int
	head    int
	n       int
	start   int // the T of the oldest interval held
	ev      []eventRing
	scratch []float64 // Gumbel-rejection snapshot buffer
}

// NewWindow builds an empty window accumulator of the given span.
func NewWindow(cat *uarch.Catalog, size int) *Window {
	words := (cat.NumEvents() + 63) / 64
	w := &Window{
		cat:     cat,
		size:    size,
		pushed:  make([]uint64, size*words),
		words:   words,
		ev:      make([]eventRing, cat.NumEvents()),
		scratch: make([]float64, 0, size),
	}
	for i := range w.ev {
		w.ev[i].buf = make([]float64, size)
	}
	return w
}

// Len returns the number of intervals currently in the window.
func (w *Window) Len() int { return w.n }

// Span returns the half-open interval range [start, end) the window covers.
func (w *Window) Span() (start, end int) {
	if w.n == 0 {
		return 0, 0
	}
	return w.start, w.start + w.n
}

// finite reports whether x is a usable reading (neither NaN nor ±Inf).
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Push slides the window forward by one interval: the oldest interval's
// readings are retired (once the window is full) and the new interval's
// counted values are folded in. Non-finite readings (counter corruption)
// never enter the rings: a single NaN — or an Inf, whose eviction leaves
// Inf − Inf = NaN behind — would permanently poison the running sums long
// after the reading itself slid out of the window. Eviction pops exactly
// the events whose reading the window pushed, from its own record, so push
// and pop stay symmetric. Each event may appear at most once per interval,
// so no ring holds more readings than the window has intervals. Intervals
// are consecutive: the window's span starts at the first sample's T and
// moves on by one with each eviction. Push reads nothing of s after it
// returns: the caller may reuse s's Events and Values buffers.
//
//bayesperf:hotpath
func (w *Window) Push(s measure.IntervalSample) {
	if w.n == w.size {
		oldest := w.pushed[w.head*w.words:][:w.words]
		for wi, word := range oldest {
			for ; word != 0; word &= word - 1 {
				w.ev[wi*64+bits.TrailingZeros64(word)].pop()
			}
			oldest[wi] = 0
		}
		w.head = wrap(w.head+1, w.size)
		w.n--
		w.start++
	} else if w.n == 0 {
		w.start = s.T
	}
	set := w.pushed[wrap(w.head+w.n, w.size)*w.words:][:w.words]
	w.n++
	for i, id := range s.Events {
		if v := s.Values[i]; finite(v) {
			w.ev[id].push(v)
			set[uint(id)/64] |= 1 << (uint(id) % 64)
		}
	}
}

// lastIsOutlier reports whether the most recently pushed value of the
// event sits above the Gumbel threshold fitted (by moments, from the
// ring's running sums) to the event's current in-window samples — the O(1)
// streaming form of stats.GumbelFilterMax's test, used to decide whether a
// live sample deserves full noise precision in the stitched trace.
func (w *Window) lastIsOutlier(id uarch.EventID, gumbel stats.GumbelThreshold) bool {
	er := &w.ev[id]
	if q := gumbel.Q(); er.n < 4 || q <= 0 || q >= 1 {
		return false
	}
	n := float64(er.n)
	variance := (er.sq - er.sum*er.sum/n) / (n - 1)
	if variance <= 0 {
		return false
	}
	mu, beta := stats.GumbelFitFromMoments(er.sum/n, math.Sqrt(variance))
	last := er.buf[wrap(er.head+er.n-1, len(er.buf))]
	return last > gumbel.Quantile(mu, beta)
}

// windowJob is one window's lane of a hand-off: the span snapshotInto
// covers and the observations it derives, written into slices that view
// the hand-off's lane-major slabs.
type windowJob struct {
	start, end int
	obsMean    []float64 // extrapolated window total per event
	obsStd     []float64
	// disp is the within-window per-interval dispersion (plain sample
	// std, rate units): how far one interval's value strays from the
	// window mean. Unlike the successive-difference spread behind obsStd
	// (which cancels slow phase structure on purpose), disp must keep it:
	// a window straddling a phase boundary is a poor predictor of any
	// single interval and its large sample variance is what says so. The
	// stitcher adds disp² to the obs variance when predicting an interval
	// from a window (law of total variance), which both lets a live
	// sample outweigh the window at its own interval and shifts weight
	// away from boundary-straddling windows.
	disp     []float64
	observed []bool
	// rejected is the number of readings the Gumbel outlier filter dropped
	// while deriving this snapshot (0 unless MuxConfig.GumbelReject).
	rejected int
	// quarantined is the number of events left unobserved because their
	// window total or variance overflowed.
	quarantined int
}

// snapshotInto derives each event's observation from the window's running
// sums, mirroring measure.EstimateSample's §4.2 model: inverse-coverage
// extrapolated total, Student-t std from the successive-difference spread
// (noise-only std at full coverage), optional Gumbel outlier rejection,
// and the same std floors; gumbel is mux's rejection threshold
// (MuxConfig.RejectThreshold). It zeroes job's slices first, so an event the
// window never counted reads as unobserved with zero observations. An
// event whose total or variance std² + disp² is not finite — finite
// readings large enough to overflow the window sums, or a lone reading
// whose square overflows — is quarantined: left unobserved, so the
// invariants infer it in this window. Its precision would underflow to
// zero, so as an observation it would carry no stitch weight at all.
//
//bayesperf:hotpath
func (w *Window) snapshotInto(job *windowJob, mux measure.MuxConfig, gumbel stats.GumbelThreshold) {
	job.start, job.end = w.Span()
	job.rejected, job.quarantined = 0, 0
	clear(job.obsMean)
	clear(job.obsStd)
	clear(job.disp)
	clear(job.observed)
	intervals := w.n
	for id := range w.ev {
		er := &w.ev[id]
		if er.n == 0 {
			// Never counted in this window — including the case where
			// every reading was corrupted (non-finite values are dropped
			// in Push): the invariants infer the event.
			continue
		}
		n, sum, sq, ssd := er.n, er.sum, er.sq, er.ssd
		if mux.GumbelReject {
			var rejected int
			n, sum, sq, ssd, rejected = er.filteredSums(gumbel, w.scratch)
			job.rejected += rejected
		}
		mean := sum / float64(n)
		total := mean * float64(intervals)

		var std, disp float64
		if n >= 2 {
			disp = math.Sqrt(max(sq-sum*sum/float64(n), 0) / float64(n-1))
		} else {
			disp = math.Abs(mean) // a lone sample: stay maximally vague
		}
		// Floor disp the same way obsStd is floored below: a lone zero
		// sample (or a constant run of zeros) would otherwise leave
		// disp = 0 and let the stitcher treat the window as a perfect
		// predictor of every interval it covers.
		if floor := mux.StdFloorFrac * math.Abs(mean); disp < floor {
			disp = floor
		}
		if disp == 0 { //bayesvet:bitwise exact-zero sentinel for a constant window
			disp = 1 // all-zero event: unit count dispersion
		}
		switch {
		case n < 2:
			// A lone sample carries no spread information: claim 100%
			// relative uncertainty on the extrapolated total.
			std = math.Abs(total)
		case n == intervals:
			// Full coverage: the total is a straight sum, so only the
			// per-interval measurement noise remains: Σ(noise·xᵢ)².
			std = mux.NoiseFrac * math.Sqrt(max(sq, 0))
		default:
			spread := math.Sqrt(max(ssd, 0) / (2 * float64(n-1)))
			std = measure.TObsStd(spread, n, intervals)
		}
		if floor := mux.StdFloorFrac * math.Abs(total); std < floor {
			std = floor
		}
		if std == 0 { //bayesvet:bitwise exact-zero sentinel for a constant window
			std = 1 // all-zero event: unit count uncertainty
		}
		if !finite(total) || !finite(std*std+disp*disp) {
			job.quarantined++
			continue
		}
		job.obsMean[id] = total
		job.obsStd[id] = std
		job.disp[id] = disp
		job.observed[id] = true
	}
}
