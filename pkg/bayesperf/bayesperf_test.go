package bayesperf_test

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"bayesperf/internal/measure"
	"bayesperf/internal/rng"
	"bayesperf/internal/timeseries"
	"bayesperf/internal/uarch"
	"bayesperf/pkg/bayesperf"
)

const zenSpecPath = "../../examples/catalogs/zen.json"

// TestBuilderAndSpecSessionsBitIdentical is the acceptance criterion at the
// Session level: the builder-based Skylake catalog and the registry's
// spec-loaded one produce bit-identical batch posteriors and bit-identical
// streamed corrected series for the same seed.
func TestBuilderAndSpecSessionsBitIdentical(t *testing.T) {
	builder := uarch.Skylake()
	spec, ok := bayesperf.LookupCatalog("skylake")
	if !ok {
		t.Fatal("skylake not in the registry")
	}
	fromSpec := spec.MustCatalog()
	wl := bayesperf.DefaultWorkload(50)
	mux := bayesperf.DefaultMuxConfig()

	runBoth := func(run func(cat *bayesperf.Catalog) *bayesperf.Report) (*bayesperf.Report, *bayesperf.Report) {
		return run(builder), run(fromSpec)
	}

	a, b := runBoth(func(cat *bayesperf.Catalog) *bayesperf.Report {
		sess, err := bayesperf.New(bayesperf.WithCatalog(cat), bayesperf.WithMux(mux))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.RunBatch(bayesperf.NewSimSource(cat, wl, mux, 42))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	})
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i].Mean != b.Events[i].Mean || a.Events[i].Std != b.Events[i].Std {
			t.Errorf("batch posterior differs for %s: %v±%v vs %v±%v", a.Events[i].Name,
				a.Events[i].Mean, a.Events[i].Std, b.Events[i].Mean, b.Events[i].Std)
		}
	}
	for i := range a.Derived {
		if a.Derived[i].Mean != b.Derived[i].Mean || a.Derived[i].Std != b.Derived[i].Std {
			t.Errorf("derived posterior differs for %s", a.Derived[i].Name)
		}
	}

	sa, sb := runBoth(func(cat *bayesperf.Catalog) *bayesperf.Report {
		sess, err := bayesperf.New(bayesperf.WithCatalog(cat), bayesperf.WithMux(mux),
			bayesperf.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.RunStream(bayesperf.NewSimSource(cat, wl, mux, 42))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	})
	for id := range sa.Stream.Corrected {
		for ti := range sa.Stream.Corrected[id] {
			if sa.Stream.Corrected[id][ti] != sb.Stream.Corrected[id][ti] {
				t.Fatalf("stream corrected series differs at event %d interval %d", id, ti)
			}
		}
	}
}

// TestZenJSONEndToEnd: the catalog defined purely in JSON — no Go changes —
// runs end to end through Session.RunStream with the corrected-beats-naive
// verdict holding, and through RunBatch with positive derived stds.
func TestZenJSONEndToEnd(t *testing.T) {
	spec, err := bayesperf.LoadSpecFile(zenSpecPath)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := bayesperf.New(
		bayesperf.WithSpec(spec),
		bayesperf.WithDerived(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	cat := sess.Catalog()
	if err := measure.ValidateModels(cat); err != nil {
		t.Fatal(err)
	}
	wl := bayesperf.DefaultWorkload(100)
	mux := bayesperf.DefaultMuxConfig()

	rep, err := sess.RunStream(bayesperf.NewSimSource(cat, wl, mux, 42))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasTruth || !rep.Converged {
		t.Fatalf("zen stream run: truth=%v converged=%v", rep.HasTruth, rep.Converged)
	}
	if !rep.Improved() {
		t.Errorf("zen corrected aligned error %.4f%% not below naive %.4f%%",
			100*rep.CorrectedAligned, 100*rep.NaiveAligned)
	}
	if len(rep.DerivedStream) != len(cat.Derived) {
		t.Fatalf("%d derived stream rows, want %d", len(rep.DerivedStream), len(cat.Derived))
	}
	for _, row := range rep.DerivedStream {
		if row.MinPostStd <= 0 {
			t.Errorf("%s: min per-interval posterior std %v, want > 0", row.Name, row.MinPostStd)
		}
	}

	batch, err := sess.RunBatch(bayesperf.NewSimSource(cat, wl, mux, 42))
	if err != nil {
		t.Fatal(err)
	}
	if !batch.Improved() {
		t.Errorf("zen batch corrected err %.4f%% not below raw %.4f%%",
			100*batch.CorrMeanErr, 100*batch.RawMeanErr)
	}
	for _, d := range batch.Derived {
		if d.Std <= 0 {
			t.Errorf("%s: batch posterior std %v, want > 0", d.Name, d.Std)
		}
	}
}

const neoverseSpecPath = "../../examples/catalogs/neoverse.json"

// TestNeoverseJSONEndToEnd runs the ARM Neoverse-like JSON catalog through
// the whole pipeline alongside zen's test, with the compile/execute
// additions switched on: a wide window batch and clique-covariance-aware
// derived stds. The catalog must form ≥4 multiplex groups and both run
// modes must beat their raw baselines.
func TestNeoverseJSONEndToEnd(t *testing.T) {
	spec, err := bayesperf.LoadSpecFile(neoverseSpecPath)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := bayesperf.New(
		bayesperf.WithSpec(spec),
		bayesperf.WithDerived(true),
		bayesperf.WithBatch(16),
		bayesperf.WithCovariance(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	cat := sess.Catalog()
	if err := measure.ValidateModels(cat); err != nil {
		t.Fatal(err)
	}
	wl := bayesperf.DefaultWorkload(100)
	mux := bayesperf.DefaultMuxConfig()

	rep, err := sess.RunStream(bayesperf.NewSimSource(cat, wl, mux, 42))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Groups < 4 {
		t.Fatalf("neoverse catalog forms %d multiplex groups, want >= 4", rep.Groups)
	}
	if !rep.HasTruth || !rep.Converged {
		t.Fatalf("neoverse stream run: truth=%v converged=%v", rep.HasTruth, rep.Converged)
	}
	if !rep.Improved() {
		t.Errorf("neoverse corrected aligned error %.4f%% not below naive %.4f%%",
			100*rep.CorrectedAligned, 100*rep.NaiveAligned)
	}
	if len(rep.DerivedStream) != len(cat.Derived) {
		t.Fatalf("%d derived stream rows, want %d", len(rep.DerivedStream), len(cat.Derived))
	}
	for _, row := range rep.DerivedStream {
		if row.MinPostStd <= 0 {
			t.Errorf("%s: min per-interval posterior std %v, want > 0", row.Name, row.MinPostStd)
		}
	}

	batch, err := sess.RunBatch(bayesperf.NewSimSource(cat, wl, mux, 42))
	if err != nil {
		t.Fatal(err)
	}
	if !batch.Improved() {
		t.Errorf("neoverse batch corrected err %.4f%% not below raw %.4f%%",
			100*batch.CorrMeanErr, 100*batch.RawMeanErr)
	}
	for _, d := range batch.Derived {
		if d.Std <= 0 {
			t.Errorf("%s: batch posterior std %v, want > 0", d.Name, d.Std)
		}
	}
}

// TestSessionBatchWidthInvariance is the WithBatch contract at the API
// surface: any batch width yields a bit-identical streamed report — aligned
// errors, corrected mean and std series, and derived series. The deprecated
// WithFastMath(true) is one more input: it selects nothing, so its report
// must match the default's bit for bit too.
func TestSessionBatchWidthInvariance(t *testing.T) {
	cat := uarch.Skylake()
	wl := bayesperf.DefaultWorkload(40)
	mux := bayesperf.DefaultMuxConfig()
	run := func(opt bayesperf.Option) *bayesperf.Report {
		sess, err := bayesperf.New(
			bayesperf.WithCatalog(cat),
			bayesperf.WithMux(mux),
			bayesperf.WithCovariance(true),
			bayesperf.WithDerived(true),
			opt,
		)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.RunStream(bayesperf.NewSimSource(cat, wl, mux, 11))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(bayesperf.WithBatch(1))
	for _, tc := range []struct {
		label string
		opt   bayesperf.Option
	}{
		{"batch=4", bayesperf.WithBatch(4)},
		{"batch=32", bayesperf.WithBatch(32)},
		{"WithFastMath(true)", bayesperf.WithFastMath(true)},
	} {
		rep := run(tc.opt)
		if rep.CorrectedAligned != base.CorrectedAligned ||
			rep.WindowedAligned != base.WindowedAligned ||
			rep.DerivedCorrectedAligned != base.DerivedCorrectedAligned ||
			rep.PostRelStd != base.PostRelStd {
			t.Errorf("%s: aligned errors or posterior std pool diverged from batch=1", tc.label)
		}
		for _, s := range []struct {
			name      string
			got, want []timeseries.Series
		}{
			{"corrected", rep.Stream.Corrected, base.Stream.Corrected},
			{"correctedStd", rep.Stream.CorrectedStd, base.Stream.CorrectedStd},
			{"derivedCorrected", rep.Stream.DerivedCorrected, base.Stream.DerivedCorrected},
			{"derivedCorrectedStd", rep.Stream.DerivedCorrectedStd, base.Stream.DerivedCorrectedStd},
		} {
			for id := range s.want {
				for ti := range s.want[id] {
					if s.got[id][ti] != s.want[id][ti] {
						t.Fatalf("%s: %s[%d][%d] = %v, batch=1 has %v",
							tc.label, s.name, id, ti, s.got[id][ti], s.want[id][ti])
					}
				}
			}
		}
	}
}

// TestSessionCovarianceTightensCoupledStd: WithCovariance must change only
// the derived stds whose inputs share an invariant — and on the
// sum-coupled Branch_Misp_Rate it must not increase the reported batch
// std, while every mean stays put.
func TestSessionCovarianceTightensCoupledStd(t *testing.T) {
	cat := uarch.Skylake()
	wl := bayesperf.DefaultWorkload(60)
	mux := bayesperf.DefaultMuxConfig()
	run := func(cov bool) *bayesperf.Report {
		sess, err := bayesperf.New(
			bayesperf.WithCatalog(cat),
			bayesperf.WithMux(mux),
			bayesperf.WithCovariance(cov),
		)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.RunBatch(bayesperf.NewSimSource(cat, wl, mux, 42))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	diag := run(false)
	cov := run(true)
	changed := false
	for i := range diag.Derived {
		if cov.Derived[i].Mean != diag.Derived[i].Mean {
			t.Errorf("%s: covariance mode changed the posterior mean", diag.Derived[i].Name)
		}
		if cov.Derived[i].Std != diag.Derived[i].Std {
			changed = true
		}
		if cov.Derived[i].Std <= 0 {
			t.Errorf("%s: covariance-aware std %v, want > 0", cov.Derived[i].Name, cov.Derived[i].Std)
		}
		if diag.Derived[i].Name == "IPC" && cov.Derived[i].Std != diag.Derived[i].Std {
			t.Errorf("IPC inputs share no invariant on Skylake; std must not change")
		}
		// branch_breakdown couples misp positively with branches (the
		// sum), so the ratio's covariance-aware std must come in at or
		// below the diagonal — a sign flip in the plumbing would widen it.
		if diag.Derived[i].Name == "Branch_Misp_Rate" && cov.Derived[i].Std >= diag.Derived[i].Std {
			t.Errorf("Branch_Misp_Rate covariance-aware std %v not below diagonal %v",
				cov.Derived[i].Std, diag.Derived[i].Std)
		}
	}
	if !changed {
		t.Error("covariance mode changed no derived std at all")
	}
}

// TestWithBatchRejectsNegative: the option surface validates its input.
func TestWithBatchRejectsNegative(t *testing.T) {
	if _, err := bayesperf.New(bayesperf.WithBatch(-1)); err == nil {
		t.Error("WithBatch(-1) accepted")
	}
}

// TestSamplerIsASource: a bare measure.Sampler is the second shipped Source
// implementation; streaming it through a Session produces exactly the
// SimSource run (same trace, same seed, same scheduler).
func TestSamplerIsASource(t *testing.T) {
	cat := uarch.Skylake()
	wl := bayesperf.DefaultWorkload(40)
	mux := bayesperf.DefaultMuxConfig()

	sim := bayesperf.NewSimSource(cat, wl, mux, 7)
	sess, err := bayesperf.New(bayesperf.WithCatalog(cat), bayesperf.WithMux(mux))
	if err != nil {
		t.Fatal(err)
	}
	simRep, err := sess.RunStream(sim)
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild the identical stream as a raw Sampler (same seed discipline
	// as NewSimSource).
	r := rng.New(7)
	tr := measure.GroundTruth(cat, wl, r.Split())
	smp := measure.NewSampler(tr, mux, measure.NewRoundRobin(cat), rng.New(r.Split().Uint64()))

	sess2, err := bayesperf.New(bayesperf.WithCatalog(cat), bayesperf.WithMux(mux))
	if err != nil {
		t.Fatal(err)
	}
	smpRep, err := sess2.RunStream(smp)
	if err != nil {
		t.Fatal(err)
	}
	if !smpRep.HasTruth {
		t.Error("sampler source did not expose ground truth")
	}
	if smpRep.CorrectedAligned != simRep.CorrectedAligned || smpRep.Windows != simRep.Windows {
		t.Errorf("sampler-source run differs from sim-source run: %v/%d vs %v/%d",
			smpRep.CorrectedAligned, smpRep.Windows, simRep.CorrectedAligned, simRep.Windows)
	}
}

// TestSessionAdoptsSourceCatalog: a catalog-less session binds to the
// source's catalog; a bound session rejects mismatched sources.
func TestSessionAdoptsSourceCatalog(t *testing.T) {
	wl := bayesperf.DefaultWorkload(20)
	mux := bayesperf.DefaultMuxConfig()

	sess, err := bayesperf.New()
	if err != nil {
		t.Fatal(err)
	}
	src := bayesperf.NewSimSource(uarch.Power9(), wl, mux, 3)
	rep, err := sess.RunBatch(src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arch != "ppc64-power9" || sess.Catalog() == nil {
		t.Errorf("session did not adopt the source catalog (arch %q)", rep.Arch)
	}

	other := bayesperf.NewSimSource(uarch.Skylake(), wl, mux, 3)
	if _, err := sess.RunBatch(other); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Errorf("mismatched source accepted: %v", err)
	}
}

// TestSessionSchedulerOption: WithScheduler(Adaptive) closes the feedback
// loop (slot moves happen) and reports the adaptive telemetry.
func TestSessionSchedulerOption(t *testing.T) {
	cat := uarch.Skylake()
	wl := bayesperf.DefaultWorkload(100)
	mux := bayesperf.DefaultMuxConfig()

	sess, err := bayesperf.New(
		bayesperf.WithCatalog(cat),
		bayesperf.WithMux(mux),
		bayesperf.WithScheduler(bayesperf.Adaptive),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.RunStream(bayesperf.NewSimSource(cat, wl, mux, 42))
	if err != nil {
		t.Fatal(err)
	}
	if rep.SlotMoves == 0 {
		t.Error("adaptive session made no slot moves")
	}
	if rep.Stream.Reprioritizations == 0 {
		t.Error("adaptive session never reprioritized")
	}
}

// TestSessionOptionErrors: invalid options fail at New, not at run time.
func TestSessionOptionErrors(t *testing.T) {
	nanNoise := bayesperf.DefaultMuxConfig()
	nanNoise.NoiseFrac = math.NaN()
	badGumbelQ := bayesperf.DefaultMuxConfig()
	badGumbelQ.GumbelQ = 1.5
	cases := []struct {
		name string
		opt  bayesperf.Option
	}{
		{"nil catalog", bayesperf.WithCatalog(nil)},
		{"negative noise", bayesperf.WithNoise(-0.5)},
		{"outlier probability above one", bayesperf.WithOutliers(2, 8)},
		{"negative outlier magnitude", bayesperf.WithOutliers(0.1, -1)},
		{"NaN noise", bayesperf.WithMux(nanNoise)},
		{"Gumbel quantile above one", bayesperf.WithMux(badGumbelQ)},
		{"unknown scheduler", bayesperf.WithScheduler(bayesperf.SchedulerKind(99))},
		{"missing catalog file", bayesperf.WithCatalogFile("/no/such/file.json")},
	}
	for _, tc := range cases {
		if _, err := bayesperf.New(tc.opt); err == nil {
			t.Errorf("%s: New accepted the option", tc.name)
		}
	}
}

// TestSessionRejectsMismatchedMux: a simulated source sampling under a
// different observation model than the session's is an error, not a silent
// mis-weighting of every estimate.
func TestSessionRejectsMismatchedMux(t *testing.T) {
	cat := uarch.Skylake()
	wl := bayesperf.DefaultWorkload(20)
	sess, err := bayesperf.New(bayesperf.WithCatalog(cat), bayesperf.WithNoise(0.05))
	if err != nil {
		t.Fatal(err)
	}
	src := bayesperf.NewSimSource(cat, wl, bayesperf.DefaultMuxConfig(), 3) // 1% noise
	if _, err := sess.RunBatch(src); err == nil || !strings.Contains(err.Error(), "observation model") {
		t.Errorf("diverging mux accepted: %v", err)
	}
}

// TestStreamDerivedUsesSessionCatalog: a session bound to a spec with a
// trimmed derived section must evaluate (and size) the derived stream rows
// from its own catalog, not the source's richer one.
func TestStreamDerivedUsesSessionCatalog(t *testing.T) {
	spec, ok := bayesperf.LookupCatalog("skylake")
	if !ok {
		t.Fatal("skylake not registered")
	}
	spec.Derived = spec.Derived[:1] // session knows only IPC
	sess, err := bayesperf.New(bayesperf.WithSpec(spec), bayesperf.WithDerived(true))
	if err != nil {
		t.Fatal(err)
	}
	// Source carries the full builder catalog (4 derived events); event
	// lists are identical so bindCatalog accepts it.
	mux := bayesperf.DefaultMuxConfig()
	src := bayesperf.NewSimSource(uarch.Skylake(), bayesperf.DefaultWorkload(30), mux, 5)
	rep, err := sess.RunStream(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DerivedStream) != 1 || rep.DerivedStream[0].Name != "IPC" {
		t.Fatalf("derived rows %+v, want exactly the session catalog's IPC", rep.DerivedStream)
	}
}

// TestValidateModelsExported: the polite model pre-check is reachable from
// the public API (external embedders cannot import internal/measure).
func TestValidateModelsExported(t *testing.T) {
	if err := bayesperf.ValidateModels(uarch.Skylake()); err != nil {
		t.Errorf("builder catalog failed model validation: %v", err)
	}
	spec, _ := bayesperf.LookupCatalog("skylake")
	spec.Events[0].Model = nil
	cat, err := spec.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if err := bayesperf.ValidateModels(cat); err == nil {
		t.Error("model-less catalog passed validation")
	}
}

// TestSessionEmptySource: zero intervals is an error, not a zero report.
func TestSessionEmptySource(t *testing.T) {
	cat := uarch.Skylake()
	mux := bayesperf.DefaultMuxConfig()
	wl := measure.Workload{Name: "empty"}
	sess, err := bayesperf.New(bayesperf.WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunBatch(bayesperf.NewSimSource(cat, wl, mux, 1)); err == nil {
		t.Error("RunBatch on an empty source succeeded")
	}
	sess2, _ := bayesperf.New(bayesperf.WithCatalog(cat))
	if _, err := sess2.RunStream(bayesperf.NewSimSource(cat, wl, mux, 1)); err == nil {
		t.Error("RunStream on an empty source succeeded")
	}
}

// overflowSource counts every catalog event each interval at 1e6, except
// at 1.7e308 on intervals [50, 98): finite readings whose sums overflow.
type overflowSource struct {
	cat  *bayesperf.Catalog
	n, t int
}

func (s *overflowSource) Catalog() *bayesperf.Catalog { return s.cat }

func (s *overflowSource) Next() (bayesperf.Interval, bool) {
	if s.t == s.n {
		return bayesperf.Interval{}, false
	}
	v := 1e6
	if s.t >= 50 && s.t < 98 {
		v = 1.7e308
	}
	ne := s.cat.NumEvents()
	iv := bayesperf.Interval{T: s.t, Group: -1, Events: make([]bayesperf.EventID, ne), Values: make([]float64, ne)}
	for id := range iv.Events {
		iv.Events[id] = bayesperf.EventID(id)
		iv.Values[id] = v
	}
	s.t++
	return iv, true
}

// TestSessionOverflowFailSoft: finite readings that overflow the sums must
// not panic either run mode — the batch path used to panic in
// graph.Observe on the caller's goroutine, the stream path in a worker.
// Both leave the overflowing events to the invariants and report finite
// posteriors with positive stds.
func TestSessionOverflowFailSoft(t *testing.T) {
	cat := uarch.Skylake()
	for _, workers := range []int{1, 2} {
		sess, err := bayesperf.New(bayesperf.WithCatalog(cat), bayesperf.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.RunStream(&overflowSource{cat: cat, n: 200})
		if err != nil {
			t.Fatal(err)
		}
		for id := range rep.Stream.Corrected {
			for ti, v := range rep.Stream.Corrected[id] {
				if s := rep.Stream.CorrectedStd[id][ti]; math.IsNaN(v) || math.IsInf(v, 0) || !(s > 0) || math.IsInf(s, 0) {
					t.Fatalf("workers=%d: event %d interval %d: corrected %v ± %v", workers, id, ti, v, s)
				}
			}
		}
	}
	sess, err := bayesperf.New(bayesperf.WithCatalog(cat))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.RunBatch(&overflowSource{cat: cat, n: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range rep.Events {
		if math.IsNaN(ev.Mean) || math.IsInf(ev.Mean, 0) || !(ev.Std > 0) || math.IsInf(ev.Std, 0) {
			t.Errorf("batch %s: posterior %v ± %v", ev.Name, ev.Mean, ev.Std)
		}
	}
	for _, d := range rep.Derived {
		if math.IsNaN(d.Mean) || math.IsInf(d.Mean, 0) || math.IsNaN(d.Std) || math.IsInf(d.Std, 0) {
			t.Errorf("batch derived %s: posterior %v ± %v", d.Name, d.Mean, d.Std)
		}
	}
}

// reusingSource replays recorded intervals with every 1009th reading set to
// NaN (about 0.1%). With reuse set it overwrites one Values buffer on every
// Next, and with events set one Events buffer too, as the Source contract
// allows; otherwise every interval gets slices of its own.
type reusingSource struct {
	cat           *bayesperf.Catalog
	ivs           []bayesperf.Interval
	reuse, events bool
	t, k          int
	ev            []bayesperf.EventID
	vals          []float64
}

func (s *reusingSource) Catalog() *bayesperf.Catalog { return s.cat }

func (s *reusingSource) Next() (bayesperf.Interval, bool) {
	if s.t == len(s.ivs) {
		return bayesperf.Interval{}, false
	}
	iv := s.ivs[s.t]
	s.t++
	vals := s.vals[:0]
	if !s.reuse {
		vals = nil
	}
	for _, v := range iv.Values {
		if s.k++; s.k%1009 == 0 {
			v = math.NaN()
		}
		vals = append(vals, v)
	}
	iv.Values = vals
	if s.reuse {
		s.vals = vals
		if s.events {
			s.ev = append(s.ev[:0], iv.Events...)
			iv.Events = s.ev
		}
	}
	return iv, true
}

// TestSessionSourceReusesBuffers: RunStream copies every reading it keeps,
// so a source that overwrites one Values buffer, or one Values and one
// Events buffer, on every Next gets the same stream output bit for bit as
// one that hands out fresh slices, at Workers 1 and 2, and at a Window of
// 24, which round-robin's group cycle divides, and of 25, which it does not.
func TestSessionSourceReusesBuffers(t *testing.T) {
	cat := uarch.Skylake()
	tr := measure.GroundTruth(cat, measure.DefaultWorkload(1000), rng.New(31))
	smp := measure.NewSampler(tr, bayesperf.DefaultMuxConfig(), measure.NewRoundRobin(cat), rng.New(32))
	var ivs []bayesperf.Interval
	for {
		iv, ok := smp.Next()
		if !ok {
			break
		}
		ivs = append(ivs, iv)
	}
	series := func(r *bayesperf.StreamResult) [][]timeseries.Series {
		return [][]timeseries.Series{r.Corrected, r.CorrectedStd, r.WindowedRaw, r.NaiveRaw,
			r.DerivedCorrected, r.DerivedCorrectedStd, r.DerivedWindowedRaw, r.DerivedNaive}
	}
	for _, c := range []struct{ window, workers int }{{24, 1}, {24, 2}, {25, 1}, {25, 2}} {
		run := func(reuse, events bool) *bayesperf.StreamResult {
			sess, err := bayesperf.New(bayesperf.WithCatalog(cat), bayesperf.WithWindow(c.window),
				bayesperf.WithWorkers(c.workers))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sess.RunStream(&reusingSource{cat: cat, ivs: ivs, reuse: reuse, events: events})
			if err != nil {
				t.Fatal(err)
			}
			return rep.Stream
		}
		fresh := series(run(false, false))
		for _, events := range []bool{false, true} {
			diff, total := 0, 0
			for k, group := range series(run(true, events)) {
				for id, s := range group {
					for ti, v := range s {
						total++
						if math.Float64bits(v) != math.Float64bits(fresh[k][id][ti]) {
							diff++
						}
					}
				}
			}
			if diff > 0 {
				t.Errorf("window=%d workers=%d, reused events buffer %v: %d of %d values differ from fresh buffers",
					c.window, c.workers, events, diff, total)
			}
		}
	}
}

// malformedSource emits n Skylake intervals that count every event at 1e6,
// except interval bad, which carries the given events and values.
type malformedSource struct {
	cat    *bayesperf.Catalog
	n, t   int
	bad    int
	events []bayesperf.EventID
	values []float64
}

func (s *malformedSource) Catalog() *bayesperf.Catalog { return s.cat }

func (s *malformedSource) Next() (bayesperf.Interval, bool) {
	if s.t == s.n {
		return bayesperf.Interval{}, false
	}
	iv := bayesperf.Interval{T: s.t, Group: -1, Events: s.events, Values: s.values}
	if s.t != s.bad {
		ne := s.cat.NumEvents()
		iv.Events, iv.Values = make([]bayesperf.EventID, ne), make([]float64, ne)
		for id := range iv.Events {
			iv.Events[id] = bayesperf.EventID(id)
			iv.Values[id] = 1e6
		}
	}
	s.t++
	return iv, true
}

// TestSessionRejectsMalformedInterval: an interval naming an event outside
// the catalog or twice, or with values not one to one with its events,
// ends either run mode with an error naming the interval and the event,
// never a panic. The stream run still finishes its engine, so every worker
// goroutine it started exits.
func TestSessionRejectsMalformedInterval(t *testing.T) {
	cat := uarch.Skylake()
	const bad = 30
	shapes := []struct {
		name   string
		events []bayesperf.EventID
		values []float64
		want   string
	}{
		{"event past catalog", []bayesperf.EventID{0, 99}, []float64{1e6, 1e6}, "event 99 outside catalog"},
		{"negative event", []bayesperf.EventID{0, -1}, []float64{1e6, 1e6}, "event -1 outside catalog"},
		{"short values", []bayesperf.EventID{0, 1}, []float64{1e6}, "1 values for 2 events"},
		{"repeated event", []bayesperf.EventID{0, 1, 0}, []float64{1e6, 1e6, 1e6}, "event 0 twice"},
	}
	for _, sh := range shapes {
		for _, mode := range []string{"batch", "stream"} {
			sess, err := bayesperf.New(bayesperf.WithCatalog(cat), bayesperf.WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			src := &malformedSource{cat: cat, n: 40, bad: bad, events: sh.events, values: sh.values}
			before := runtime.NumGoroutine()
			err = func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
					}
				}()
				if mode == "batch" {
					_, err = sess.RunBatch(src)
				} else {
					_, err = sess.RunStream(src)
				}
				return err
			}()
			label := mode + "/" + sh.name
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("interval %d", bad)) ||
				!strings.Contains(err.Error(), sh.want) || strings.HasPrefix(err.Error(), "panic") {
				t.Errorf("%s: error %v, want one naming interval %d and %q", label, err, bad, sh.want)
			}
			// A worker that has signalled the engine may not have exited yet.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%s: %d goroutines after the run, %d before", label, n, before)
			}
		}
	}
}
