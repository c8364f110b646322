package stream

import (
	"math"
	"slices"
	"testing"

	"bayesperf/internal/measure"
	"bayesperf/internal/rng"
	"bayesperf/internal/timeseries"
	"bayesperf/internal/uarch"
)

// goldenShape is one engine configuration and input variant of the golden
// matrix.
type goldenShape struct {
	name      string
	length    int // intervals, cut from a DefaultWorkload trace
	window    int
	hop       int
	workers   int
	batch     int
	cov       bool
	adaptive  bool
	gumbel    bool // Gumbel rejection with 2% injected outliers and Inf readings
	lateFirst int  // if > 0, one multiplexed event reads NaN before this interval (see readLate)
}

var goldenShapes = []goldenShape{
	{name: "short", length: 9, window: 24, hop: 4, workers: 2, batch: 8},
	{name: "default", length: 120, window: 24, hop: 4, workers: 2, batch: 8},
	{name: "tumbling", length: 121, window: 8, hop: 8, workers: 2, batch: 3},
	{name: "hop1-wide", length: 150, window: 8, hop: 1, workers: 4, batch: 64},
	{name: "late-cov", length: 120, window: 8, hop: 3, workers: 2, batch: 1, cov: true, lateFirst: 40},
	{name: "gumbel-inf-cov", length: 150, window: 24, hop: 4, workers: 2, batch: 8, cov: true, gumbel: true},
	{name: "adaptive", length: 150, window: 24, hop: 4, workers: 2, batch: 8, adaptive: true},
	{name: "long", length: 303, window: 16, hop: 2, workers: 1, batch: 32},
	// Each 24-interval epoch emits 6 windows: one full batch for the pool and
	// a partial one that Flush executes on the calling goroutine.
	{name: "adaptive-mixed", length: 150, window: 24, hop: 4, workers: 2, batch: 4, adaptive: true},
	// The late event is first read at interval 500, after most earlier
	// intervals have settled, some of them on the pool.
	{name: "late-pool", length: 700, window: 24, hop: 4, workers: 2, batch: 8, lateFirst: 500},
}

// runGolden builds the shape's input and streams it through RunTrace.
func runGolden(cat *uarch.Catalog, sh goldenShape) *Result {
	tr, sched, cfg := goldenInput(cat, sh)
	return RunTrace(tr, sched, cfg, rng.New(12))
}

// goldenInput builds the shape's trace, scheduler and configuration.
func goldenInput(cat *uarch.Catalog, sh goldenShape) (*measure.Trace, measure.Scheduler, Config) {
	perPhase := (sh.length + 2) / 3
	tr := measure.GroundTruth(cat, measure.DefaultWorkload(perPhase), rng.New(11))
	for id := range tr.Series {
		tr.Series[id] = tr.Series[id][:sh.length]
	}
	readLate(tr, sh.lateFirst)
	cfg := DefaultConfig()
	cfg.Window, cfg.Hop = sh.window, sh.hop
	cfg.Workers, cfg.Batch = sh.workers, sh.batch
	cfg.Covariance = sh.cov
	if sh.gumbel {
		cfg.Mux.GumbelReject = true
		cfg.Mux.OutlierProb = 0.02
		cfg.Mux.OutlierMag = 8
		for id := range tr.Series {
			if cat.Event(uarch.EventID(id)).Fixed {
				tr.Series[id][17] = math.Inf(1)
				tr.Series[id][90] = math.Inf(1)
				break
			}
		}
	}
	var sched measure.Scheduler = measure.NewRoundRobin(cat)
	if sh.adaptive {
		sched = measure.NewAdaptive(cat, cfg.Window)
	}
	return tr, sched, cfg
}

// recordingSource serves its source's samples and keeps a copy of each: the
// stream exactly as the engine ingests it, adaptive schedules included.
type recordingSource struct {
	src     IntervalSource
	samples []measure.IntervalSample
}

func (r *recordingSource) Next() (measure.IntervalSample, bool) {
	s, ok := r.src.Next()
	if ok {
		r.samples = append(r.samples, measure.IntervalSample{
			T: s.T, Group: s.Group, Events: slices.Clone(s.Events), Values: slices.Clone(s.Values),
		})
	}
	return s, ok
}

// sampleAndHold is the naive baseline by its definition, from the samples
// alone: per event and interval, the last finite reading at or before the
// interval; before the event's first finite reading, that reading; 0 for an
// event never read.
func sampleAndHold(ne int, samples []measure.IntervalSample) []timeseries.Series {
	out := make([]timeseries.Series, ne)
	for id := range out {
		s := make(timeseries.Series, len(samples))
		held, first := 0.0, -1
		for t, iv := range samples {
			for i, ev := range iv.Events {
				if int(ev) == id && finite(iv.Values[i]) {
					held = iv.Values[i]
					if first < 0 {
						first = t
					}
				}
			}
			s[t] = held
		}
		for t := 0; t < first; t++ {
			s[t] = s[first]
		}
		out[id] = s
	}
	return out
}

// firstRead is the interval of event id's first finite reading (-1 if none)
// and the value held at its end.
func firstRead(id int, samples []measure.IntervalSample) (int, float64) {
	for t, iv := range samples {
		v, ok := 0.0, false
		for i, ev := range iv.Events {
			if int(ev) == id && finite(iv.Values[i]) {
				v, ok = iv.Values[i], true
			}
		}
		if ok {
			return t, v
		}
	}
	return -1, 0
}

// TestBaselinesMatchSampleAndHold checks the two baselines against their
// definitions, over every golden shape and catalog and over late-pool at
// Workers 1, 2 and 8: NaiveRaw must equal sample and hold over the samples
// the engine ingested, bit for bit. Where an event is read late, every
// interval before the first window that saw it has no window estimate and
// no live reading, so WindowedRaw must hold the event's first reading
// there too.
func TestBaselinesMatchSampleAndHold(t *testing.T) {
	shapes := slices.Clone(goldenShapes)
	for _, sh := range goldenShapes {
		if sh.name == "late-pool" {
			for _, w := range []int{1, 8} {
				sh.workers = w
				shapes = append(shapes, sh)
			}
		}
	}
	for _, catName := range testCatalogs {
		cat := testCatalog(t, catName)
		for _, sh := range shapes {
			tr, sched, cfg := goldenInput(cat, sh)
			rec := &recordingSource{src: measure.NewSampler(tr, cfg.Mux, sched, rng.New(12))}
			res := Run(cat, rec, sched, cfg)
			name := catName + "/" + sh.name
			want := sampleAndHold(cat.NumEvents(), rec.samples)
			for id := range want {
				for ti, v := range want[id] {
					if got := res.NaiveRaw[id][ti]; math.Float64bits(got) != math.Float64bits(v) {
						t.Fatalf("%s workers=%d: NaiveRaw[%s][%d] = %v, sample and hold gives %v",
							name, sh.workers, cat.Event(uarch.EventID(id)).Name, ti, got, v)
					}
				}
			}
			if sh.lateFirst == 0 {
				continue
			}
			late := 0
			for id := range want {
				first, v := firstRead(id, rec.samples)
				if first < 0 {
					continue
				}
				// The first regular window holding interval first starts here.
				seen := max(0, (first-sh.window+sh.hop)/sh.hop*sh.hop)
				for ti := 0; ti < seen; ti++ {
					if got := res.WindowedRaw[id][ti]; math.Float64bits(got) != math.Float64bits(v) {
						t.Fatalf("%s workers=%d: WindowedRaw[%s][%d] = %v before any window saw the event; want its first reading %v",
							name, sh.workers, cat.Event(uarch.EventID(id)).Name, ti, got, v)
					}
				}
				late = max(late, seen)
			}
			if late < sh.lateFirst-sh.window {
				t.Errorf("%s: the late event is seen from interval %d, want at least %d", name, late, sh.lateFirst-sh.window)
			}
		}
	}
}
