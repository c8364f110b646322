package stream

import (
	"math"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"bayesperf/internal/graph"
	"bayesperf/internal/measure"
	"bayesperf/internal/rng"
	"bayesperf/internal/stats"
	"bayesperf/internal/timeseries"
	"bayesperf/internal/uarch"
)

// testConfig keeps unit-test runs small and single-seeded.
func testConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.Workers = workers
	return cfg
}

// trueRates converts a ground-truth trace to per-interval rate series
// (identical representation to the stream result).
func trueRates(tr *measure.Trace) []timeseries.Series {
	out := make([]timeseries.Series, len(tr.Series))
	for id, s := range tr.Series {
		out[id] = s.Clone()
	}
	return out
}

// TestWindowEvictsWideCatalog: over a 70-event catalog, so that the
// window's record of each interval spans two bitset words, every event's
// ring holds exactly the finite readings of the intervals in the window
// after every Push, while intervals read shifting event subsets with NaN
// readings among them.
func TestWindowEvictsWideCatalog(t *testing.T) {
	spec := uarch.Spec{Arch: "wide", FixedCounters: 1, ProgCounters: 8}
	for id := 0; id < 70; id++ {
		spec.Events = append(spec.Events, uarch.EventSpec{Name: "E" + strconv.Itoa(id)})
	}
	cat, err := spec.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	const size = 8
	w := NewWindow(cat, size)
	read := func(ti, id int) (bool, float64) {
		v := float64(ti + 1)
		if (id*7+ti)%11 == 0 {
			v = math.NaN()
		}
		return (id+ti)%3 != 0, v
	}
	for ti := 0; ti < 100; ti++ {
		s := measure.IntervalSample{T: ti}
		for id := 0; id < 70; id++ {
			if ok, v := read(ti, id); ok {
				s.Events = append(s.Events, uarch.EventID(id))
				s.Values = append(s.Values, v)
			}
		}
		w.Push(s)
		for id := 0; id < 70; id++ {
			want := 0
			for tj := max(0, ti-size+1); tj <= ti; tj++ {
				if ok, v := read(tj, id); ok && !math.IsNaN(v) {
					want++
				}
			}
			if got := w.ev[id].n; got != want {
				t.Fatalf("interval %d event %d: ring holds %d readings, want %d", ti, id, got, want)
			}
		}
	}
}

// TestWindowIncrementalMatchesBatch drives a window far enough to slide
// many times, then checks that the incrementally maintained observation
// snapshot equals one recomputed from scratch on the same intervals.
func TestWindowIncrementalMatchesBatch(t *testing.T) {
	cat := uarch.Skylake()
	tr := measure.GroundTruth(cat, measure.DefaultWorkload(40), rng.New(8))
	smp := measure.NewSampler(tr, measure.DefaultMuxConfig(), measure.NewRoundRobin(cat), rng.New(9))

	const size = 16
	slid := NewWindow(cat, size)
	var history []measure.IntervalSample
	for {
		s, ok := smp.Next()
		if !ok {
			break
		}
		slid.Push(s)
		history = append(history, s)

		if s.T < size || s.T%7 != 0 {
			continue
		}
		// Rebuild the same window from scratch.
		fresh := NewWindow(cat, size)
		for _, hs := range history[len(history)-size:] {
			fresh.Push(hs)
		}
		a := slid.snapshot(0, measure.DefaultMuxConfig())
		b := fresh.snapshot(0, measure.DefaultMuxConfig())
		if a.start != b.start || a.end != b.end {
			t.Fatalf("t=%d: span (%d,%d) vs (%d,%d)", s.T, a.start, a.end, b.start, b.end)
		}
		for id := range a.observed {
			if a.observed[id] != b.observed[id] {
				t.Fatalf("t=%d event %d: observed %v vs %v", s.T, id, a.observed[id], b.observed[id])
			}
			if !a.observed[id] {
				continue
			}
			if math.Abs(a.obsMean[id]-b.obsMean[id]) > 1e-6*math.Abs(b.obsMean[id]) {
				t.Fatalf("t=%d event %d: incremental mean %v, batch %v", s.T, id, a.obsMean[id], b.obsMean[id])
			}
			if math.Abs(a.obsStd[id]-b.obsStd[id]) > 1e-6*b.obsStd[id]+1e-9 {
				t.Fatalf("t=%d event %d: incremental std %v, batch %v", s.T, id, a.obsStd[id], b.obsStd[id])
			}
		}
	}
}

// TestSnapshotDispFloor is the regression test for the lone-sample
// dispersion hole: a single zero-valued reading used to produce disp = 0,
// which the stitcher's predictive precision read as "this window predicts
// that interval perfectly". disp must be floored like obsStd is.
func TestSnapshotDispFloor(t *testing.T) {
	cat := uarch.Skylake()
	mux := measure.DefaultMuxConfig()
	loads := cat.MustEvent("MEM_INST_RETIRED.ALL_LOADS")

	// One interval, one event, reading 0.
	w := NewWindow(cat, 8)
	w.Push(measure.IntervalSample{T: 0, Events: []uarch.EventID{loads}, Values: []float64{0}})
	job := w.snapshot(0, mux)
	if !job.observed[loads] {
		t.Fatal("zero-valued event not observed")
	}
	if job.disp[loads] != 1 {
		t.Errorf("lone zero sample disp = %v, want unit-count floor 1", job.disp[loads])
	}

	// A constant run of zeros must not claim perfection either.
	w = NewWindow(cat, 8)
	for ti := 0; ti < 5; ti++ {
		w.Push(measure.IntervalSample{T: ti, Events: []uarch.EventID{loads}, Values: []float64{0}})
	}
	if job = w.snapshot(0, mux); job.disp[loads] != 1 {
		t.Errorf("constant-zero disp = %v, want 1", job.disp[loads])
	}

	// A lone nonzero sample keeps its maximally-vague |mean| dispersion.
	w = NewWindow(cat, 8)
	w.Push(measure.IntervalSample{T: 0, Events: []uarch.EventID{loads}, Values: []float64{5e6}})
	if job = w.snapshot(0, mux); job.disp[loads] != 5e6 {
		t.Errorf("lone nonzero sample disp = %v, want |mean| = 5e6", job.disp[loads])
	}
}

// TestSnapshotAllNaNWindow: with Gumbel rejection on, a window whose every
// reading of an event is NaN must mark the event unobserved (the
// invariants infer it) instead of shipping NaN observations to the graph.
func TestSnapshotAllNaNWindow(t *testing.T) {
	cat := uarch.Skylake()
	mux := measure.DefaultMuxConfig()
	mux.GumbelReject = true
	loads := cat.MustEvent("MEM_INST_RETIRED.ALL_LOADS")
	w := NewWindow(cat, 8)
	for ti := 0; ti < 5; ti++ {
		w.Push(measure.IntervalSample{T: ti, Events: []uarch.EventID{loads}, Values: []float64{math.NaN()}})
	}
	job := w.snapshot(0, mux)
	if job.observed[loads] {
		t.Errorf("all-NaN event marked observed (obsMean=%v obsStd=%v)",
			job.obsMean[loads], job.obsStd[loads])
	}
}

// TestStreamTransientCorruption: a single corrupted reading (NaN or Inf)
// must not poison the window's running sums after it slides out
// (sum + NaN − NaN, and Inf − Inf on eviction, would stay NaN forever),
// the naive series, or the live fusion — with or without Gumbel rejection
// the engine must neither panic nor emit non-finite values.
func TestStreamTransientCorruption(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		cat := uarch.Skylake()
		tr := measure.GroundTruth(cat, measure.DefaultWorkload(30), rng.New(3))
		// Poison one reading of a fixed counter (counted every interval,
		// so the corruption is guaranteed to enter and leave the window).
		id := cat.MustEvent("INST_RETIRED.ANY")
		tr.Series[id][11] = bad
		for _, reject := range []bool{false, true} {
			cfg := testConfig(2)
			cfg.Mux.GumbelReject = reject
			res := RunTrace(tr, measure.NewRoundRobin(cat), cfg, rng.New(5))
			for eid := range res.Corrected {
				for _, series := range [][]float64{
					res.Corrected[eid], res.CorrectedStd[eid],
					res.WindowedRaw[eid], res.NaiveRaw[eid],
				} {
					for ti, v := range series {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("bad=%v gumbel=%v event %d interval %d leaked %v",
								bad, reject, eid, ti, v)
						}
					}
				}
			}
		}
	}
}

// TestWindowTransientNaNSums: unit-level form of the poisoned-ring bug —
// after a NaN reading is evicted, the snapshot must be finite again.
func TestWindowTransientNaNSums(t *testing.T) {
	cat := uarch.Skylake()
	loads := cat.MustEvent("MEM_INST_RETIRED.ALL_LOADS")
	w := NewWindow(cat, 4)
	w.Push(measure.IntervalSample{T: 0, Events: []uarch.EventID{loads}, Values: []float64{math.NaN()}})
	for ti := 1; ti < 8; ti++ { // slide far enough to evict the NaN
		w.Push(measure.IntervalSample{T: ti, Events: []uarch.EventID{loads}, Values: []float64{1e6}})
	}
	job := w.snapshot(0, measure.DefaultMuxConfig())
	if !job.observed[loads] {
		t.Fatal("event with finite samples not observed")
	}
	if math.IsNaN(job.obsMean[loads]) || math.IsNaN(job.obsStd[loads]) || math.IsNaN(job.disp[loads]) {
		t.Errorf("evicted NaN poisoned the snapshot: mean=%v std=%v disp=%v",
			job.obsMean[loads], job.obsStd[loads], job.disp[loads])
	}
}

// TestPosteriorBeatsObservationsPerWindow isolates the inference layer at
// the resolution it operates on: across every emitted window, the
// posterior's window-total error must be well below the raw observations'.
func TestPosteriorBeatsObservationsPerWindow(t *testing.T) {
	for _, cat := range uarch.Catalogs() {
		r := rng.New(7)
		tr := measure.GroundTruth(cat, measure.DefaultWorkload(100), r.Split())
		cfg := testConfig(0)
		smp := measure.NewSampler(tr, cfg.Mux, measure.NewRoundRobin(cat), r.Split())
		win := NewWindow(cat, cfg.Window)
		g := graph.Compile(cat).NewBatch(1)
		var obsErr, postErr stats.Running
		for {
			s, ok := smp.Next()
			if !ok {
				break
			}
			win.Push(s)
			if s.T < cfg.Window-1 || (s.T-cfg.Window+1)%cfg.Hop != 0 {
				continue
			}
			job := win.snapshot(0, cfg.Mux)
			g.ClearObservations()
			for id, observed := range job.observed {
				if observed {
					g.Observe(0, uarch.EventID(id), job.obsMean[id], job.obsStd[id])
				}
			}
			res := g.ExecuteInto(nil, 1, cfg.MaxIter, cfg.Tol)
			for id := range job.observed {
				var truthTot float64
				for tt := job.start; tt < job.end; tt++ {
					truthTot += tr.Series[id][tt]
				}
				if job.observed[id] {
					obsErr.Add(stats.RelErr(job.obsMean[id], truthTot, 1))
				}
				postErr.Add(stats.RelErr(res.Mean[id], truthTot, 1))
			}
		}
		t.Logf("%s window-total err: observations %.3f%% posterior %.3f%%",
			cat.Arch, 100*obsErr.Mean(), 100*postErr.Mean())
		if postErr.Mean() >= 0.9*obsErr.Mean() {
			t.Errorf("%s: posterior window error %.4f%% not at least 10%% below observation error %.4f%%",
				cat.Arch, 100*postErr.Mean(), 100*obsErr.Mean())
		}
	}
}

// TestStreamDeterministicAcrossWorkers: the whole Result — event and
// derived series, covariance-aware stds included — must be bit-identical
// for any pool size. Inference is per-window, stitching is forced into
// window-index order, settle ranges write disjoint intervals, and Finish's
// fan-out fills every series in a task of its own. The first stream spans
// more than four output chunks. The second is the golden late-pool input:
// one event's first reading at interval 500 rewrites intervals that the
// pool may still be settling. The third is the adaptive epoch loop over the
// first one's trace: Run flushes every 24-interval epoch, whose 6 windows
// Flush executes on the calling goroutine, while the pool settles each
// block and the producer takes the jobs back whenever ring space runs out.
// No run may leave a goroutine behind: the pool's workers, which also help
// Finish, all exit.
func TestStreamDeterministicAcrossWorkers(t *testing.T) {
	cat := uarch.Skylake() // Power9's formulas share no relation clique, so its covariance path is inert
	long := measure.GroundTruth(cat, measure.DefaultWorkload(400), rng.New(5))
	if n := long.Intervals(); n <= 4*chunkLen {
		t.Fatalf("trace has %d intervals, want more than %d", n, 4*chunkLen)
	}
	late := measure.GroundTruth(cat, measure.DefaultWorkload(234), rng.New(11))
	for id := range late.Series {
		late.Series[id] = late.Series[id][:700]
	}
	readLate(late, 500)
	inputs := []struct {
		name     string
		tr       *measure.Trace
		cov      bool
		adaptive bool   // schedule with measure.NewAdaptive, flushing every epoch
		seed     uint64 // the sampler's
	}{
		{"long-cov", long, true, false, 6},
		{"late-pool", late, false, false, 12},
		{"long-epoch", long, false, true, 7},
	}
	for _, in := range inputs {
		var base *Result
		for _, workers := range []int{1, 2, 8} {
			cfg := testConfig(workers)
			cfg.Covariance = in.cov
			var sched measure.Scheduler = measure.NewRoundRobin(cat)
			if in.adaptive {
				sched = measure.NewAdaptive(cat, cfg.Window)
			}
			before := runtime.NumGoroutine()
			res := RunTrace(in.tr, sched, cfg, rng.New(in.seed))
			// A goroutine that has signalled its WaitGroup may not have exited yet.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%s workers=%d: %d goroutines after the run, %d before", in.name, workers, n, before)
			}
			if in.adaptive && res.Reprioritizations == 0 {
				t.Errorf("%s workers=%d: the scheduler never reprioritized", in.name, workers)
			}
			if base == nil {
				base = res
				continue
			}
			if hashResult(res) != hashResult(base) || res.Reprioritizations != base.Reprioritizations {
				t.Errorf("%s workers=%d: output differs from workers=1", in.name, workers)
			}
			if res.InferIters != base.InferIters || res.TotalSweeps != base.TotalSweeps ||
				res.Unconverged != base.Unconverged {
				t.Errorf("%s workers=%d: sweep accounting diverged: %v/%d/%d vs %v/%d/%d", in.name, workers,
					res.InferIters, res.TotalSweeps, res.Unconverged,
					base.InferIters, base.TotalSweeps, base.Unconverged)
			}
		}
	}
}

// fallbackInput is a Neoverse stream whose br_pred_retired reads NaN
// throughout: left to the invariants, some of its 8-interval windows fall
// back to message passing, with sweep counts that differ from window to
// window.
func fallbackInput(t *testing.T) (*uarch.Catalog, *measure.Trace) {
	t.Helper()
	spec, err := uarch.LoadSpecFile(filepath.Join("..", "..", "examples", "catalogs", "neoverse.json"))
	if err != nil {
		t.Fatal(err)
	}
	cat, err := spec.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	tr := measure.GroundTruth(cat, measure.DefaultWorkload(8), rng.New(5))
	id := cat.MustEvent("br_pred_retired")
	for ti := range tr.Series[id] {
		tr.Series[id][ti] = math.NaN()
	}
	return cat, tr
}

// TestStreamDeterministicAcrossBatchSizes is the batching regression test:
// the stitched output — every event series, the pooled uncertainty metric,
// the sweep accounting, and the derived posterior series
// (covariance-aware included) — must be bit-identical for any batch width
// × worker count. Batch lanes run independent arithmetic and stitching is
// forced into window-index order, so no grouping of windows into Execute
// calls may leak into the result. The fallback input adds windows whose
// sweep counts differ, so InferIters depends on the order they are pooled
// in.
func TestStreamDeterministicAcrossBatchSizes(t *testing.T) {
	skylake := uarch.Skylake()
	neoverse, fallback := fallbackInput(t)
	inputs := []struct {
		name        string
		cat         *uarch.Catalog
		tr          *measure.Trace
		window, hop int
	}{
		{"skylake", skylake, measure.GroundTruth(skylake, measure.DefaultWorkload(60), rng.New(5)), 24, 4},
		{"neoverse-fallback", neoverse, fallback, 8, 3},
	}
	for _, in := range inputs {
		cat, tr := in.cat, in.tr
		for _, covariance := range []bool{false, true} {
			var base *Result
			var baseLabel string
			for _, batch := range []int{1, 3, 8, 64} {
				for _, workers := range []int{1, 4} {
					cfg := testConfig(workers)
					cfg.Window, cfg.Hop = in.window, in.hop
					cfg.Batch = batch
					cfg.Covariance = covariance
					label := in.name + " batch=" + strconv.Itoa(batch) + " workers=" + strconv.Itoa(workers)
					res := RunTrace(tr, measure.NewRoundRobin(cat), cfg, rng.New(6))
					if base == nil {
						base, baseLabel = res, label
						if in.name == "neoverse-fallback" && res.TotalSweeps <= res.Windows {
							t.Fatalf("%s: no fallback windows (%d sweeps over %d windows)",
								label, res.TotalSweeps, res.Windows)
						}
						continue
					}
					if res.Windows != base.Windows || res.Intervals != base.Intervals {
						t.Fatalf("cov=%v %s: shape %d/%d vs %s %d/%d", covariance, label,
							res.Windows, res.Intervals, baseLabel, base.Windows, base.Intervals)
					}
					for id := range base.Corrected {
						for _, pair := range []struct {
							name string
							a, b timeseries.Series
						}{
							{"corrected", res.Corrected[id], base.Corrected[id]},
							{"correctedStd", res.CorrectedStd[id], base.CorrectedStd[id]},
							{"windowedRaw", res.WindowedRaw[id], base.WindowedRaw[id]},
							{"naiveRaw", res.NaiveRaw[id], base.NaiveRaw[id]},
						} {
							for ti := range pair.b {
								if pair.a[ti] != pair.b[ti] {
									t.Fatalf("cov=%v %s: %s[%d][%d] = %v, want %v (%s)",
										covariance, label, pair.name, id, ti, pair.a[ti], pair.b[ti], baseLabel)
								}
							}
						}
					}
					for di := range base.DerivedCorrected {
						for _, pair := range []struct {
							name string
							a, b timeseries.Series
						}{
							{"derivedCorrected", res.DerivedCorrected[di], base.DerivedCorrected[di]},
							{"derivedCorrectedStd", res.DerivedCorrectedStd[di], base.DerivedCorrectedStd[di]},
						} {
							for ti := range pair.b {
								if pair.a[ti] != pair.b[ti] {
									t.Fatalf("cov=%v %s: %s[%d][%d] = %v, want %v (%s)",
										covariance, label, pair.name, di, ti, pair.a[ti], pair.b[ti], baseLabel)
								}
							}
						}
					}
					if res.PostRelStd != base.PostRelStd {
						t.Errorf("cov=%v %s: posterior-std pool diverged from %s", covariance, label, baseLabel)
					}
					if res.InferIters != base.InferIters || res.TotalSweeps != base.TotalSweeps ||
						res.Unconverged != base.Unconverged {
						t.Errorf("cov=%v %s: sweep accounting diverged from %s", covariance, label, baseLabel)
					}
				}
			}
		}
	}
}

// TestStreamCovarianceAwareDerivedStd checks the covariance threading end
// to end at the stream level: with Config.Covariance the derived posterior
// std series of a clique-coupled ratio (Branch_Misp_Rate: numerator and
// denominator share branch_breakdown) changes and stays strictly positive
// and finite, the corrected mean series is untouched, and formulas with no
// coupled inputs keep their diagonal stds bit for bit.
func TestStreamCovarianceAwareDerivedStd(t *testing.T) {
	cat := uarch.Skylake()
	tr := measure.GroundTruth(cat, measure.DefaultWorkload(60), rng.New(5))
	run := func(covariance bool) *Result {
		cfg := testConfig(2)
		cfg.Covariance = covariance
		return RunTrace(tr, measure.NewRoundRobin(cat), cfg, rng.New(6))
	}
	diag := run(false)
	cov := run(true)

	coupled := -1
	for di := range cat.Derived {
		if cat.Derived[di].Name == "Branch_Misp_Rate" {
			coupled = di
		}
	}
	if coupled < 0 {
		t.Fatal("Skylake catalog lost Branch_Misp_Rate")
	}
	for di := range cat.Derived {
		for ti := range diag.DerivedCorrected[di] {
			if cov.DerivedCorrected[di][ti] != diag.DerivedCorrected[di][ti] {
				t.Fatalf("%s: covariance mode changed the corrected mean at interval %d",
					cat.Derived[di].Name, ti)
			}
		}
	}
	changed := 0
	for ti := range diag.DerivedCorrectedStd[coupled] {
		c, d := cov.DerivedCorrectedStd[coupled][ti], diag.DerivedCorrectedStd[coupled][ti]
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("covariance-aware Branch_Misp_Rate std[%d] = %v", ti, c)
		}
		if c != d {
			changed++
		}
	}
	if changed == 0 {
		t.Error("covariance mode left every Branch_Misp_Rate std bit-identical to the diagonal")
	}
	// IPC's inputs share no relation on Skylake: its stds must be
	// untouched by the covariance mode.
	ipc := -1
	for di := range cat.Derived {
		if cat.Derived[di].Name == "IPC" {
			ipc = di
		}
	}
	for ti := range diag.DerivedCorrectedStd[ipc] {
		if cov.DerivedCorrectedStd[ipc][ti] != diag.DerivedCorrectedStd[ipc][ti] {
			t.Fatalf("uncoupled IPC std changed at interval %d", ti)
		}
	}
}

// TestStreamCorrectsLiveTrace is the streaming headline result on both
// catalogs: the stitched posterior's DTW-aligned per-interval error is
// below the naive multiplexed stream's, and the correction also beats
// window smoothing alone.
func TestStreamCorrectsLiveTrace(t *testing.T) {
	for _, cat := range uarch.Catalogs() {
		r := rng.New(42)
		tr := measure.GroundTruth(cat, measure.DefaultWorkload(100), r.Split())
		res := RunTrace(tr, measure.NewRoundRobin(cat), testConfig(0), r.Split())
		if !res.AllConverged {
			t.Errorf("%s: some windows did not converge", cat.Arch)
		}
		if res.Intervals != tr.Intervals() {
			t.Fatalf("%s: %d intervals out, want %d", cat.Arch, res.Intervals, tr.Intervals())
		}
		truth := trueRates(tr)
		var naive, windowed, corrected stats.Running
		for id := range truth {
			ne, err := timeseries.AlignedRelError(truth[id], res.NaiveRaw[id], res.Intervals/4, 1)
			if err != nil {
				t.Fatal(err)
			}
			we, err := timeseries.AlignedRelError(truth[id], res.WindowedRaw[id], res.Intervals/4, 1)
			if err != nil {
				t.Fatal(err)
			}
			ce, err := timeseries.AlignedRelError(truth[id], res.Corrected[id], res.Intervals/4, 1)
			if err != nil {
				t.Fatal(err)
			}
			naive.Add(ne)
			windowed.Add(we)
			corrected.Add(ce)
		}
		t.Logf("%s aligned err: naive %.3f%% windowed %.3f%% corrected %.3f%%",
			cat.Arch, 100*naive.Mean(), 100*windowed.Mean(), 100*corrected.Mean())
		if corrected.Mean() >= naive.Mean() {
			t.Errorf("%s: corrected aligned error %.4f%% not below naive %.4f%%",
				cat.Arch, 100*corrected.Mean(), 100*naive.Mean())
		}
		// Inference must never materially regress the windowed estimate it
		// starts from (per-interval error is dispersion-dominated, so the
		// window-level posterior win shows up only as a thin margin here;
		// the decisive posterior-vs-observation comparison is
		// TestPosteriorBeatsObservationsPerWindow).
		if corrected.Mean() >= 1.02*windowed.Mean() {
			t.Errorf("%s: corrected aligned error %.4f%% regresses windowed raw %.4f%%",
				cat.Arch, 100*corrected.Mean(), 100*windowed.Mean())
		}
	}
}

// derivedTruth evaluates one derived formula over the ground-truth trace's
// per-interval rates.
func derivedTruth(tr *measure.Trace, d *uarch.Derived) timeseries.Series {
	return DerivedSeries(d, tr.Series)
}

// TestDerivedSeries checks DerivedSeries against Eval at every interval for
// both formula kinds, over series of unequal length: the result covers the
// intervals every input covers. A formula with no inputs has no series,
// and one whose kind fails Validate evaluates to NaN.
func TestDerivedSeries(t *testing.T) {
	events := []timeseries.Series{
		{10, 20, 30, 40, 50},
		{2, 4, 0, 8},
		{1, 2, 3, 4, 5, 6},
	}
	formulas := []uarch.Derived{
		{Name: "ratio", Inputs: []uarch.EventID{0, 1}, Kind: uarch.KindRatio, Scale: 1000},
		{Name: "linear", Inputs: []uarch.EventID{0, 2, 1}, Kind: uarch.KindLinearRatio,
			Num: []float64{1, 3, 0}, Den: []float64{0, 1, 2}},
	}
	for i := range formulas {
		d := &formulas[i]
		got := DerivedSeries(d, events)
		if len(got) != 4 {
			t.Fatalf("%s: %d intervals, want the 4 every input covers", d.Name, len(got))
		}
		for ti, v := range got {
			in := make([]float64, len(d.Inputs))
			for j, id := range d.Inputs {
				in[j] = events[id][ti]
			}
			if want := d.Eval(in); math.Float64bits(v) != math.Float64bits(want) {
				t.Errorf("%s interval %d: %v, Eval %v", d.Name, ti, v, want)
			}
		}
	}
	if got := DerivedSeries(&uarch.Derived{Kind: uarch.KindLinearRatio}, events); got != nil {
		t.Errorf("formula without inputs: %v, want nil", got)
	}
	bad := &uarch.Derived{Inputs: []uarch.EventID{0, 1}, Kind: "polynomial"}
	for ti, v := range DerivedSeries(bad, events) {
		if !math.IsNaN(v) {
			t.Errorf("unknown kind, interval %d: %v, want NaN", ti, v)
		}
	}
}

// TestStreamDerivedSeries is the tentpole's §6.2 result at the stream
// level: every emitted interval carries each derived event's posterior
// (mean ± std), the stds are strictly positive, and the corrected derived
// series beats both baselines on DTW-aligned error — by more than the raw
// events do, since ratio numerator/denominator errors no longer compound.
func TestStreamDerivedSeries(t *testing.T) {
	for _, cat := range uarch.Catalogs() {
		r := rng.New(42)
		tr := measure.GroundTruth(cat, measure.DefaultWorkload(100), r.Split())
		res := RunTrace(tr, measure.NewRoundRobin(cat), testConfig(0), r.Split())
		if got := len(res.DerivedCorrected); got != len(cat.Derived) {
			t.Fatalf("%s: %d derived series, want %d", cat.Arch, got, len(cat.Derived))
		}
		var naive, windowed, corrected stats.Running
		for di := range cat.Derived {
			d := &cat.Derived[di]
			for _, s := range []timeseries.Series{
				res.DerivedCorrected[di], res.DerivedCorrectedStd[di],
				res.DerivedWindowedRaw[di], res.DerivedNaive[di],
			} {
				if len(s) != res.Intervals {
					t.Fatalf("%s/%s: series length %d, want %d", cat.Arch, d.Name, len(s), res.Intervals)
				}
			}
			for ti, v := range res.DerivedCorrectedStd[di] {
				if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s/%s: posterior std[%d] = %v, want > 0", cat.Arch, d.Name, ti, v)
				}
			}
			truth := derivedTruth(tr, d)
			band := res.Intervals / 4
			ne, err := timeseries.AlignedRelError(truth, res.DerivedNaive[di], band, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			we, err := timeseries.AlignedRelError(truth, res.DerivedWindowedRaw[di], band, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			ce, err := timeseries.AlignedRelError(truth, res.DerivedCorrected[di], band, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			naive.Add(ne)
			windowed.Add(we)
			corrected.Add(ce)
		}
		t.Logf("%s derived aligned err: naive %.3f%% windowed %.3f%% corrected %.3f%%",
			cat.Arch, 100*naive.Mean(), 100*windowed.Mean(), 100*corrected.Mean())
		if corrected.Mean() >= naive.Mean() {
			t.Errorf("%s: corrected derived aligned error %.4f%% not below naive %.4f%%",
				cat.Arch, 100*corrected.Mean(), 100*naive.Mean())
		}
		if corrected.Mean() >= windowed.Mean() {
			t.Errorf("%s: corrected derived aligned error %.4f%% not below windowed raw %.4f%%",
				cat.Arch, 100*corrected.Mean(), 100*windowed.Mean())
		}
	}
}

// TestAdaptiveBeatsRoundRobin closes the §5 loop end to end: steering
// multiplexing slots by posterior uncertainty must lower the pooled
// posterior relative std versus pure round-robin on both catalogs. The
// margin is structural on Skylake (its cache group's spread asymmetry
// gives the gradient several slots' worth of headroom, ~+5% across
// seeds); on Power9 the three groups divide the window evenly and
// round-robin is already near the measured optimum, so only small
// orientation-level gains remain.
func TestAdaptiveBeatsRoundRobin(t *testing.T) {
	for _, cat := range uarch.Catalogs() {
		r := rng.New(41)
		tr := measure.GroundTruth(cat, measure.DefaultWorkload(100), r.Split())
		seed := r.Split()

		cfg := testConfig(0)
		rr := RunTrace(tr, measure.NewRoundRobin(cat), cfg, rng.New(seed.Uint64()))
		ad := RunTrace(tr, measure.NewAdaptive(cat, cfg.Window), cfg, rng.New(seed.Uint64()))
		if ad.Reprioritizations == 0 {
			t.Fatalf("%s: adaptive loop never re-prioritized", cat.Arch)
		}
		if rr.Reprioritizations != 0 {
			t.Fatalf("%s: round-robin run reports reprioritizations", cat.Arch)
		}
		t.Logf("%s mean posterior rel std: round-robin %.4f%% adaptive %.4f%% (%d replans)",
			cat.Arch, 100*rr.PostRelStd.Mean(), 100*ad.PostRelStd.Mean(), ad.Reprioritizations)
		if ad.PostRelStd.Mean() >= rr.PostRelStd.Mean() {
			t.Errorf("%s: adaptive mean posterior rel std %.5f not below round-robin %.5f",
				cat.Arch, ad.PostRelStd.Mean(), rr.PostRelStd.Mean())
		}
	}
}

// TestStreamShortTrace: a trace shorter than one window still gets a
// (single, partial) window and full coverage.
func TestStreamShortTrace(t *testing.T) {
	cat := uarch.Skylake()
	wl := measure.Workload{Name: "short", Phases: []measure.Phase{{
		Name: "p", Intervals: 9, InstRate: 1e6,
		LoadFrac: 0.2, StoreFrac: 0.1, BranchFrac: 0.1, MispRate: 0.02,
		L1MissRate: 0.05, L2HitFrac: 0.6, L3HitFrac: 0.5,
		BaseCPI: 0.4, Jitter: 0.05,
	}}}
	tr := measure.GroundTruth(cat, wl, rng.New(2))
	res := RunTrace(tr, measure.NewRoundRobin(cat), testConfig(2), rng.New(3))
	if res.Windows != 1 {
		t.Fatalf("got %d windows, want 1", res.Windows)
	}
	if res.Intervals != 9 {
		t.Fatalf("got %d intervals, want 9", res.Intervals)
	}
	for id := range res.Corrected {
		if len(res.Corrected[id]) != 9 {
			t.Fatalf("event %d corrected length %d", id, len(res.Corrected[id]))
		}
		for ti, v := range res.Corrected[id] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("event %d interval %d corrected = %v", id, ti, v)
			}
		}
		for _, v := range res.CorrectedStd[id] {
			if v <= 0 || math.IsNaN(v) {
				t.Fatalf("event %d posterior std = %v", id, v)
			}
		}
	}
}

// TestStreamGumbelRejection: with corrupted readings injected, enabling the
// window-level Gumbel filter must lower the corrected trace's aligned
// error.
func TestStreamGumbelRejection(t *testing.T) {
	cat := uarch.Skylake()
	tr := measure.GroundTruth(cat, measure.DefaultWorkload(80), rng.New(13))
	truth := trueRates(tr)

	run := func(reject bool) float64 {
		cfg := testConfig(0)
		cfg.Mux.OutlierProb = 0.02
		cfg.Mux.OutlierMag = 8
		cfg.Mux.GumbelReject = reject
		res := RunTrace(tr, measure.NewRoundRobin(cat), cfg, rng.New(17))
		var errs stats.Running
		for id := range truth {
			e, err := timeseries.AlignedRelError(truth[id], res.Corrected[id], res.Intervals/4, 1)
			if err != nil {
				t.Fatal(err)
			}
			errs.Add(e)
		}
		return errs.Mean()
	}
	plain := run(false)
	filtered := run(true)
	t.Logf("corrected aligned err under outliers: unfiltered %.3f%% gumbel-filtered %.3f%%",
		100*plain, 100*filtered)
	if filtered >= plain {
		t.Errorf("Gumbel rejection did not help: %.4f%% -> %.4f%%", 100*plain, 100*filtered)
	}
}
