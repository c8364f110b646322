package measure

import (
	"math"
	"testing"

	"bayesperf/internal/rng"
	"bayesperf/internal/stats"
	"bayesperf/internal/uarch"
)

// TestEstimateSamplesMatchesScalar: the batch estimator is one
// EstimateSample per event, bit for bit, including the never-counted zero
// Sample.
func TestEstimateSamplesMatchesScalar(t *testing.T) {
	cfg := DefaultMuxConfig()
	xss := [][]float64{
		{1e6, 1.1e6, 0.9e6},
		nil, // never counted
		{5e3},
		{2e6, 2e6, 2e6, 2e6, 2e6}, // full coverage
	}
	const intervals = 5
	got := EstimateSamples(xss, intervals, cfg)
	if len(got) != len(xss) {
		t.Fatalf("%d samples, want %d", len(got), len(xss))
	}
	for id, xs := range xss {
		want := EstimateSample(xs, intervals, cfg)
		if got[id] != want {
			t.Errorf("event %d: batch %+v != scalar %+v", id, got[id], want)
		}
	}
	if got[1].N != 0 || got[1].Total != 0 {
		t.Errorf("never-counted event estimated as %+v", got[1])
	}
}

// refPrimValue and refEventValue are the per-interval model walk that
// GroundTruth ran before models were compiled: for every primitive name in
// primOrder, a map lookup in the event's model and a name switch.
func refPrimValue(name string, p primitives) float64 {
	switch name {
	case "inst":
		return p.inst
	case "cycles":
		return p.cycles
	case "ref_cycles":
		return p.refCycles
	case "pend_cycles":
		return p.pendCycles
	case "loads":
		return p.loads
	case "stores":
		return p.stores
	case "branches":
		return p.branches
	case "misp":
		return p.misp
	case "other":
		return p.other
	case "l1_hit":
		return p.l1Hit
	case "l1_miss":
		return p.l1Miss
	case "l2_hit":
		return p.l2Hit
	case "l3_hit":
		return p.l3Hit
	case "l3_miss":
		return p.l3Miss
	}
	panic("unknown primitive " + name)
}

func refEventValue(ev uarch.Event, p primitives) float64 {
	var s float64
	for _, name := range primOrder {
		if coeff, ok := ev.Model[name]; ok {
			s += coeff * refPrimValue(name, p)
		}
	}
	return s
}

// TestGroundTruthMatchesModelWalk: the compiled event models reproduce the
// per-interval map walk bit for bit on all four catalogs.
func TestGroundTruthMatchesModelWalk(t *testing.T) {
	cats := uarch.Catalogs()
	for _, file := range []string{"zen.json", "neoverse.json"} {
		spec, err := uarch.LoadSpecFile("../../examples/catalogs/" + file)
		if err != nil {
			t.Fatal(err)
		}
		cat, err := spec.Catalog()
		if err != nil {
			t.Fatal(err)
		}
		cats = append(cats, cat)
	}
	wl := StreamWorkload(50)
	for _, cat := range cats {
		tr := GroundTruth(cat, wl, rng.New(3))
		r := rng.New(3)
		ti := 0
		for _, ph := range wl.Phases {
			for i := 0; i < ph.Intervals; i++ {
				p := drawPrimitives(ph, r)
				for id, ev := range cat.Events {
					if want := refEventValue(ev, p); tr.Series[id][ti] != want {
						t.Fatalf("%s interval %d event %s: %v, model walk %v",
							cat.Arch, ti, ev.Name, tr.Series[id][ti], want)
					}
				}
				ti++
			}
		}
		if ti != tr.Intervals() {
			t.Fatalf("%s: %d intervals, walked %d", cat.Arch, tr.Intervals(), ti)
		}
	}
}

func TestGroundTruthSatisfiesInvariants(t *testing.T) {
	for _, cat := range uarch.Catalogs() {
		tr := GroundTruth(cat, DefaultWorkload(40), rng.New(1))
		if tr.Intervals() != 120 {
			t.Fatalf("%s: got %d intervals, want 120", cat.Arch, tr.Intervals())
		}
		// Invariants must hold exactly per interval and on totals.
		for ti := 0; ti < tr.Intervals(); ti++ {
			vals := make([]float64, cat.NumEvents())
			for id := range vals {
				vals[id] = tr.Series[id][ti]
			}
			for _, rel := range cat.Rels {
				if res := math.Abs(rel.Residual(vals)); res > 1e-6*math.Max(rel.Magnitude(vals), 1) {
					t.Fatalf("%s: relation %s residual %g at interval %d",
						cat.Arch, rel.Name, res, ti)
				}
			}
		}
		totals := tr.Totals()
		for _, rel := range cat.Rels {
			if res := math.Abs(rel.Residual(totals)); res > 1e-6*rel.Magnitude(totals) {
				t.Errorf("%s: relation %s residual %g on totals", cat.Arch, rel.Name, res)
			}
		}
		for id, tot := range totals {
			if tot < 0 || math.IsNaN(tot) {
				t.Errorf("%s: event %s total = %g", cat.Arch, cat.Event(uarch.EventID(id)).Name, tot)
			}
		}
	}
}

// TestStreamWorkloadThrashPhase: the streaming stress workload keeps every
// catalog invariant intact while making the cache-hierarchy events
// materially spikier than the front-end stream during the thrash phase —
// the asymmetry adaptive multiplexing exists to exploit.
func TestStreamWorkloadThrashPhase(t *testing.T) {
	cat := uarch.Skylake()
	wl := StreamWorkload(50)
	if len(wl.Phases) != 4 || wl.Phases[3].MemJitter <= 1 {
		t.Fatalf("unexpected stream workload shape: %+v", wl.Phases)
	}
	tr := GroundTruth(cat, wl, rng.New(6))
	for ti := 0; ti < tr.Intervals(); ti++ {
		vals := make([]float64, cat.NumEvents())
		for id := range vals {
			vals[id] = tr.Series[id][ti]
		}
		for _, rel := range cat.Rels {
			if res := math.Abs(rel.Residual(vals)); res > 1e-6*math.Max(rel.Magnitude(vals), 1) {
				t.Fatalf("relation %s residual %g at interval %d", rel.Name, res, ti)
			}
		}
	}
	// In the thrash phase the cache-hierarchy events must be far spikier
	// than the front-end stream, and spikier than their own compute-phase
	// behavior.
	relSpread := func(name string, lo, hi int) float64 {
		seg := tr.Series[cat.MustEvent(name)][lo:hi]
		return stats.Std(seg) / stats.Mean(seg)
	}
	l3Thrash := relSpread("MEM_LOAD_RETIRED.L3_MISS", 150, 200)
	loadsThrash := relSpread("MEM_INST_RETIRED.ALL_LOADS", 150, 200)
	l3Compute := relSpread("MEM_LOAD_RETIRED.L3_MISS", 0, 50)
	if l3Thrash < 3*loadsThrash {
		t.Errorf("thrash L3-miss rel spread %.3f not at least 3x the load stream's %.3f", l3Thrash, loadsThrash)
	}
	if l3Thrash <= l3Compute {
		t.Errorf("thrash L3-miss rel spread %.3f not above compute phase's %.3f", l3Thrash, l3Compute)
	}
}

func TestScheduleGroupsRespectConstraints(t *testing.T) {
	for _, cat := range uarch.Catalogs() {
		groups := scheduleGroups(cat)
		if len(groups) < 2 {
			t.Errorf("%s: %d programmable events fit one group; multiplexing degenerate",
				cat.Arch, len(cat.ProgrammableEvents()))
		}
		seen := make(map[uarch.EventID]bool)
		for _, g := range groups {
			if !canSchedule(cat, g) {
				t.Errorf("%s: emitted unschedulable group %v", cat.Arch, g)
			}
			if len(g) > cat.NumProg {
				t.Errorf("%s: group of %d exceeds %d counters", cat.Arch, len(g), cat.NumProg)
			}
			msr := 0
			for _, id := range g {
				if seen[id] {
					t.Errorf("%s: event %s in two groups", cat.Arch, cat.Event(id).Name)
				}
				seen[id] = true
				if cat.Event(id).NeedsMSR {
					msr++
				}
			}
			if msr > cat.NumMSR {
				t.Errorf("%s: group uses %d MSRs, budget %d", cat.Arch, msr, cat.NumMSR)
			}
		}
		for _, id := range cat.ProgrammableEvents() {
			if !seen[id] {
				t.Errorf("%s: event %s never scheduled", cat.Arch, cat.Event(id).Name)
			}
		}
	}
}

func TestCanScheduleRejectsConflicts(t *testing.T) {
	cat := uarch.Skylake()
	pend := cat.MustEvent("L1D_PEND_MISS.PENDING")
	// Two copies of a counter-2-only event can never co-schedule; simulate
	// by checking the single-counter event plus three any-counter events
	// passes, while exceeding the MSR budget fails.
	offA := cat.MustEvent("OFFCORE_RESPONSE.DEMAND_DATA_RD")
	offB := cat.MustEvent("OFFCORE_RESPONSE.DEMAND_DATA_RD.L3_MISS")
	loads := cat.MustEvent("MEM_INST_RETIRED.ALL_LOADS")
	stores := cat.MustEvent("MEM_INST_RETIRED.ALL_STORES")
	if !canSchedule(cat, []uarch.EventID{pend, offA, offB, loads}) {
		t.Error("schedulable group rejected")
	}
	if canSchedule(cat, []uarch.EventID{pend, offA, offB, loads, stores}) {
		t.Error("5-event group accepted with 4 counters")
	}
	// Exercise the counter-matching backtracker itself (not the MSR
	// budget): two copies of the counter-2-only event both demand the same
	// counter, which no assignment can satisfy.
	if canSchedule(cat, []uarch.EventID{pend, pend}) {
		t.Error("two events pinned to the same single counter accepted")
	}
}

// multiplexRun simulates one whole multiplexed run the way
// pkg/bayesperf.Session.RunBatch consumes it: a round-robin Sampler over the
// trace, then one §4.2 estimate per event from its counted readings.
func multiplexRun(tr *Trace, cfg MuxConfig, r *rng.Rand) []Sample {
	smp := NewSampler(tr, cfg, NewRoundRobin(tr.Cat), r)
	xss := make([][]float64, tr.Cat.NumEvents())
	for {
		s, ok := smp.Next()
		if !ok {
			break
		}
		for i, id := range s.Events {
			xss[id] = append(xss[id], s.Values[i])
		}
	}
	return EstimateSamples(xss, tr.Intervals(), cfg)
}

func TestMultiplexEstimates(t *testing.T) {
	for _, cat := range uarch.Catalogs() {
		r := rng.New(7)
		tr := GroundTruth(cat, DefaultWorkload(60), r.Split())
		ests := multiplexRun(tr, DefaultMuxConfig(), r.Split())
		truth := tr.Totals()
		intervals := tr.Intervals()

		var rawErr stats.Running
		for id, est := range ests {
			ev := cat.Event(uarch.EventID(id))
			if est.Std <= 0 || math.IsNaN(est.Std) {
				t.Errorf("%s: %s std = %g", cat.Arch, ev.Name, est.Std)
			}
			if ev.Fixed {
				if est.N != intervals {
					t.Errorf("%s: fixed %s counted %d/%d intervals", cat.Arch, ev.Name, est.N, intervals)
				}
			} else {
				if est.N >= intervals {
					t.Errorf("%s: programmable %s counted every interval", cat.Arch, ev.Name)
				}
				if est.N == 0 {
					t.Errorf("%s: %s never counted", cat.Arch, ev.Name)
				}
			}
			// Scaled estimates are in the right ballpark (within 50%).
			if truth[id] > 0 && stats.RelErr(est.Total, truth[id], 1) > 0.5 {
				t.Errorf("%s: %s estimate %.3g vs truth %.3g", cat.Arch, ev.Name, est.Total, truth[id])
			}
			rawErr.Add(stats.RelErr(est.Total, truth[id], 1))
		}
		// Multiplexing must actually introduce error — otherwise the
		// correction demo is vacuous.
		if rawErr.Mean() == 0 {
			t.Errorf("%s: multiplexed estimates are exact; no error to correct", cat.Arch)
		}
	}
}

// TestMultiplexShortRun covers runs shorter than the group rotation: the
// never-live group's events get an explicit zero Sample (N == 0) rather
// than a NaN observation.
func TestMultiplexShortRun(t *testing.T) {
	cat := uarch.Skylake()
	wl := Workload{Name: "tiny", Phases: []Phase{{
		Name: "p", Intervals: 3, InstRate: 1e6,
		LoadFrac: 0.2, StoreFrac: 0.1, BranchFrac: 0.1, MispRate: 0.02,
		L1MissRate: 0.05, L2HitFrac: 0.6, L3HitFrac: 0.5,
		BaseCPI: 0.4, Jitter: 0.05,
	}}}
	tr := GroundTruth(cat, wl, rng.New(2))
	if groups := len(NewRoundRobin(cat).Groups()); groups <= 3 {
		t.Skipf("need more groups than intervals to exercise the path (got %d)", groups)
	}
	sawUncounted := false
	for id, est := range multiplexRun(tr, DefaultMuxConfig(), rng.New(3)) {
		if math.IsNaN(est.Std) || math.IsNaN(est.Total) {
			t.Errorf("event %d has NaN estimate %+v", id, est)
		}
		if est.N == 0 {
			sawUncounted = true
			if est.Total != 0 || est.Std != 0 {
				t.Errorf("uncounted event %d has non-zero sample %+v", id, est)
			}
		}
	}
	if !sawUncounted {
		t.Error("3-interval run with 4 groups produced no uncounted events")
	}
}

// TestMuxConfigValidate: each field's domain edge. The defaults, the zero
// config and an outlier rate of one are inside it.
func TestMuxConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		set   func(*MuxConfig)
		valid bool
	}{
		{func(*MuxConfig) {}, true},
		{func(c *MuxConfig) { *c = MuxConfig{} }, true},
		{func(c *MuxConfig) { c.OutlierProb, c.OutlierMag = 1, 8 }, true},
		{func(c *MuxConfig) { c.NoiseFrac = math.Inf(1) }, false},
		{func(c *MuxConfig) { c.StdFloorFrac = -1e-4 }, false},
		{func(c *MuxConfig) { c.OutlierProb = math.NaN() }, false},
		{func(c *MuxConfig) { c.GumbelQ = 1 }, false},
		{func(c *MuxConfig) { c.GumbelQ = -0.5 }, false},
	} {
		c := DefaultMuxConfig()
		tc.set(&c)
		if err := c.Validate(); (err == nil) != tc.valid {
			t.Errorf("%+v: Validate() = %v, want valid %v", c, err, tc.valid)
		}
	}
}

func TestMultiplexDeterminism(t *testing.T) {
	cat := uarch.Skylake()
	tr := GroundTruth(cat, DefaultWorkload(30), rng.New(5))
	a := multiplexRun(tr, DefaultMuxConfig(), rng.New(9))
	b := multiplexRun(tr, DefaultMuxConfig(), rng.New(9))
	for id := range a {
		if a[id] != b[id] {
			t.Fatalf("estimates diverged for event %d", id)
		}
	}
}

// TestGumbelRejectionReducesError injects CounterMiner-style corrupted
// readings and checks that turning on Gumbel rejection (a pure
// post-processing step, so both runs see byte-identical samples) lowers the
// mean relative estimation error.
func TestGumbelRejectionReducesError(t *testing.T) {
	for _, cat := range uarch.Catalogs() {
		tr := GroundTruth(cat, DefaultWorkload(80), rng.New(13))
		truth := tr.Totals()

		cfg := DefaultMuxConfig()
		cfg.OutlierProb = 0.02
		cfg.OutlierMag = 8

		plain := multiplexRun(tr, cfg, rng.New(17))
		cfg.GumbelReject = true
		filtered := multiplexRun(tr, cfg, rng.New(17))

		var plainErr, filteredErr stats.Running
		sawRejection := false
		for id := range truth {
			plainErr.Add(stats.RelErr(plain[id].Total, truth[id], 1))
			filteredErr.Add(stats.RelErr(filtered[id].Total, truth[id], 1))
			if plain[id].Rejected != 0 {
				t.Errorf("%s: rejection reported with GumbelReject off", cat.Arch)
			}
			if filtered[id].Rejected > 0 {
				sawRejection = true
			}
			// Coverage bookkeeping counts counted intervals, not kept ones.
			if filtered[id].N != plain[id].N {
				t.Errorf("%s: event %d counted-interval count changed under rejection", cat.Arch, id)
			}
		}
		if !sawRejection {
			t.Fatalf("%s: outlier injection produced no rejections", cat.Arch)
		}
		if filteredErr.Mean() >= plainErr.Mean() {
			t.Errorf("%s: Gumbel rejection raised mean error: %.4f%% -> %.4f%%",
				cat.Arch, 100*plainErr.Mean(), 100*filteredErr.Mean())
		}
	}
}

// TestSamplerMatchesMultiplexLiveness: the sampler under a round-robin
// scheduler must reproduce exactly perf's multiplexing liveness pattern
// (group g live at t ≡ g mod numGroups), with fixed events present in every
// interval.
func TestSamplerMatchesMultiplexLiveness(t *testing.T) {
	cat := uarch.Skylake()
	tr := GroundTruth(cat, DefaultWorkload(20), rng.New(3))
	sched := NewRoundRobin(cat)
	numGroups := len(sched.Groups())
	smp := NewSampler(tr, DefaultMuxConfig(), sched, rng.New(4))

	fixed := make(map[uarch.EventID]bool)
	for _, id := range cat.FixedEvents() {
		fixed[id] = true
	}
	seen := 0
	for {
		s, ok := smp.Next()
		if !ok {
			break
		}
		if s.T != seen {
			t.Fatalf("interval %d reported as T=%d", seen, s.T)
		}
		if s.Group != seen%numGroups {
			t.Fatalf("interval %d: live group %d, want %d", seen, s.Group, seen%numGroups)
		}
		if len(s.Events) != len(s.Values) {
			t.Fatalf("interval %d: %d events, %d values", seen, len(s.Events), len(s.Values))
		}
		got := make(map[uarch.EventID]bool)
		for i, id := range s.Events {
			got[id] = true
			if s.Values[i] < 0 || math.IsNaN(s.Values[i]) {
				t.Fatalf("interval %d: event %s value %v", seen, cat.Event(id).Name, s.Values[i])
			}
		}
		for id := range fixed {
			if !got[id] {
				t.Fatalf("interval %d: fixed event %s not counted", seen, cat.Event(id).Name)
			}
		}
		for _, id := range sched.Groups()[s.Group] {
			if !got[id] {
				t.Fatalf("interval %d: live-group event %s not counted", seen, cat.Event(id).Name)
			}
		}
		if len(got) != len(fixed)+len(sched.Groups()[s.Group]) {
			t.Fatalf("interval %d: unexpected extra events counted", seen)
		}
		seen++
	}
	if seen != tr.Intervals() {
		t.Fatalf("sampler emitted %d intervals, want %d", seen, tr.Intervals())
	}
}

// TestAdaptiveSchedulerPlan checks the slot-allocation mechanics: before
// feedback the plan is round-robin; after feedback the most uncertain group
// gains slots, no group starves, and the plan length equals the epoch.
func TestAdaptiveSchedulerPlan(t *testing.T) {
	cat := uarch.Skylake()
	if a := NewAdaptive(cat, 0); a.EpochLen() != 4*len(a.Groups()) {
		t.Fatalf("default epoch = %d, want %d", a.EpochLen(), 4*len(a.Groups()))
	}
	// Use an epoch with slack above the 5-slot floor so the descent has
	// somewhere to move slots.
	a := NewAdaptive(cat, 32)
	ng := len(a.Groups())
	for i := 0; i < 2*ng; i++ {
		if g := a.NextGroup(); g != i%ng {
			t.Fatalf("pre-feedback slot %d = group %d, want round-robin %d", i, g, i%ng)
		}
	}

	// Posterior feedback: all events certain except group 0's events,
	// every event fully driven by its own observation (obsStd == std).
	mean := make([]float64, cat.NumEvents())
	std := make([]float64, cat.NumEvents())
	for id := range mean {
		mean[id] = 1e6
		std[id] = 1e3 // 0.1% relative
	}
	for _, id := range a.Groups()[0] {
		std[id] = 2e5 // 20% relative: group 0 is starving for slots
	}
	// One slot moves per epoch; feed the same gradient until it flattens
	// (every donor at the 2-slot floor).
	for i := 0; i < 3*a.EpochLen(); i++ {
		a.Reprioritize(mean, std, std)
	}
	if a.Reprioritizations() != 3*a.EpochLen() {
		t.Fatalf("reprioritizations = %d, want %d", a.Reprioritizations(), 3*a.EpochLen())
	}
	if a.Moves() == 0 {
		t.Fatal("gradient descent never moved a slot")
	}

	counts := make([]int, ng)
	for i := 0; i < a.EpochLen(); i++ {
		counts[a.NextGroup()]++
	}
	totalSlots := 0
	for gi, c := range counts {
		totalSlots += c
		if c < 5 {
			t.Errorf("group %d starved to %d slots (floor is 5)", gi, c)
		}
		if gi != 0 && c >= counts[0] {
			t.Errorf("group %d got %d slots, not fewer than uncertain group 0's %d", gi, c, counts[0])
		}
	}
	if totalSlots != a.EpochLen() {
		t.Errorf("plan length %d != epoch %d", totalSlots, a.EpochLen())
	}
	// With one group vastly more uncertain, the descent converges to it
	// holding every slot above the others' 5-slot floor.
	if counts[0] != a.EpochLen()-5*(ng-1) {
		t.Errorf("uncertain group got %d slots, want %d", counts[0], a.EpochLen()-5*(ng-1))
	}
}

// TestAdaptiveSchedulerUniformWhenEqual: equal uncertainties must leave
// the round-robin allocation untouched (flat gradient, hysteresis holds).
func TestAdaptiveSchedulerUniformWhenEqual(t *testing.T) {
	cat := uarch.Skylake()
	a := NewAdaptive(cat, 0)
	ng := len(a.Groups())
	mean := make([]float64, cat.NumEvents())
	std := make([]float64, cat.NumEvents())
	for id := range mean {
		mean[id] = 1e6
		std[id] = 5e4
	}
	for i := 0; i < 10; i++ {
		a.Reprioritize(mean, std, std)
	}
	if a.Moves() != 0 {
		t.Errorf("equal uncertainty moved %d slots, want 0", a.Moves())
	}
	counts := make([]int, ng)
	for i := 0; i < a.EpochLen(); i++ {
		counts[a.NextGroup()]++
	}
	want := a.EpochLen() / ng
	for gi, c := range counts {
		if c != want {
			t.Errorf("group %d got %d slots under equal uncertainty, want %d (counts %v)",
				gi, c, want, counts)
		}
	}
}

// TestAdaptiveSchedulerIgnoresCoupledEvents: an event whose posterior is
// already pinned by the invariant network (posterior std far below its
// observation std) must not attract slots, however uncertain its raw
// observations are.
func TestAdaptiveSchedulerIgnoresCoupledEvents(t *testing.T) {
	cat := uarch.Skylake()
	a := NewAdaptive(cat, 0)
	mean := make([]float64, cat.NumEvents())
	std := make([]float64, cat.NumEvents())
	obsStd := make([]float64, cat.NumEvents())
	for id := range mean {
		mean[id] = 1e6
		std[id] = 1e3
		obsStd[id] = 1e3
	}
	// Group 1's events look wildly uncertain at the observation level but
	// the invariants have already nailed their posteriors: sensitivity
	// ρ = (std/obsStd)² ≈ 2.5e-5, so no gradient toward group 1.
	for _, id := range a.Groups()[1] {
		obsStd[id] = 2e5
	}
	for i := 0; i < 10; i++ {
		a.Reprioritize(mean, std, obsStd)
	}
	counts := make([]int, len(a.Groups()))
	for i := 0; i < a.EpochLen(); i++ {
		counts[a.NextGroup()]++
	}
	if counts[1] > a.EpochLen()/len(a.Groups()) {
		t.Errorf("coupled group 1 attracted slots: %v", counts)
	}
}

// TestInterleaveSpreadsSlots: smooth weighted round-robin must emit each
// group exactly its slot count and never bunch a starved group's single
// slot against another of its own.
func TestInterleaveSpreadsSlots(t *testing.T) {
	slots := []int{4, 1, 1, 2}
	plan := interleave(slots, nil)
	if len(plan) != 8 {
		t.Fatalf("plan length %d, want 8", len(plan))
	}
	counts := make([]int, len(slots))
	for i, g := range plan {
		counts[g]++
		if i > 0 && plan[i-1] == g && slots[g] < len(plan)/2 {
			t.Errorf("minority group %d emitted twice in a row at %d (plan %v)", g, i, plan)
		}
	}
	for gi, want := range slots {
		if counts[gi] != want {
			t.Errorf("group %d emitted %d times, want %d (plan %v)", gi, counts[gi], want, slots)
		}
	}
}
