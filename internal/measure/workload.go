// Package measure implements BayesPerf's measurement layer: a
// phase-structured ground-truth workload generator and a round-robin
// counter-multiplexing simulator that reproduces the paper's observation
// model (§4.2) — scaled, noisy per-event estimates whose uncertainty comes
// from the Student-t marginal of the observed per-interval samples.
package measure

import (
	"fmt"
	"sort"

	"bayesperf/internal/rng"
	"bayesperf/internal/timeseries"
	"bayesperf/internal/uarch"
)

// Phase is one steady-state region of a workload. Rates are per sampling
// interval; fractions are of the phase's instruction stream. Within a phase
// every interval's primitives jitter around the phase means, but the
// catalogs' invariants hold exactly in every interval by construction.
type Phase struct {
	Name      string
	Intervals int
	InstRate  float64 // mean instructions per interval

	LoadFrac   float64 // fraction of instructions that are loads
	StoreFrac  float64 // fraction that are stores
	BranchFrac float64 // fraction that are branches
	MispRate   float64 // fraction of branches mispredicted

	L1MissRate float64 // fraction of loads missing the L1D
	L2HitFrac  float64 // fraction of L1 misses served by L2
	L3HitFrac  float64 // fraction of post-L2 misses served by L3

	BaseCPI float64 // cycles per instruction before memory penalties
	Jitter  float64 // relative per-interval noise on the phase rates
	// MemJitter multiplies Jitter for the cache-hierarchy draws (L1 miss
	// rate and L2/L3 hit fractions). Zero means 1 (uniform jitter). A
	// thrashing working set makes cache events far spikier than the
	// front-end stream — the asymmetry that uncertainty-driven
	// multiplexing exploits.
	MemJitter float64
}

// memJitter returns the effective cache-hierarchy jitter.
func (p Phase) memJitter() float64 {
	if p.MemJitter <= 0 {
		return p.Jitter
	}
	return p.Jitter * p.MemJitter
}

// Workload is a named sequence of phases.
type Workload struct {
	Name   string
	Phases []Phase
}

// Intervals returns the total number of sampling intervals.
func (w Workload) Intervals() int {
	n := 0
	for _, p := range w.Phases {
		n += p.Intervals
	}
	return n
}

// DefaultWorkload is the evaluation workload: a compute-bound phase, a
// memory-bound phase with heavy cache missing, and a branchy phase — the
// phase changes are what make naive multiplexed extrapolation err (§2).
func DefaultWorkload(intervalsPerPhase int) Workload {
	return Workload{
		Name: "compute-memory-branchy",
		Phases: []Phase{
			{
				Name: "compute", Intervals: intervalsPerPhase, InstRate: 5e6,
				LoadFrac: 0.22, StoreFrac: 0.08, BranchFrac: 0.10, MispRate: 0.01,
				L1MissRate: 0.01, L2HitFrac: 0.85, L3HitFrac: 0.80,
				BaseCPI: 0.30, Jitter: 0.03,
			},
			{
				Name: "memory", Intervals: intervalsPerPhase, InstRate: 2e6,
				LoadFrac: 0.38, StoreFrac: 0.14, BranchFrac: 0.08, MispRate: 0.02,
				L1MissRate: 0.12, L2HitFrac: 0.55, L3HitFrac: 0.50,
				BaseCPI: 0.45, Jitter: 0.06,
			},
			{
				Name: "branchy", Intervals: intervalsPerPhase, InstRate: 3.5e6,
				LoadFrac: 0.18, StoreFrac: 0.07, BranchFrac: 0.28, MispRate: 0.08,
				L1MissRate: 0.02, L2HitFrac: 0.75, L3HitFrac: 0.65,
				BaseCPI: 0.40, Jitter: 0.04,
			},
		},
	}
}

// StreamWorkload is a stress workload for the streaming layer: the three
// default phases plus a cache-thrash phase whose working set no longer
// fits — cache-hierarchy rates stay high AND swing hard interval to
// interval (MemJitter), so measurement uncertainty concentrates in the
// cache event groups. The headline stream evaluation runs on
// DefaultWorkload (the thrash phase's wild per-interval swings make the
// DTW metric over-forgive a spiky raw trace); this one exists to validate
// the asymmetric-uncertainty regime itself — see
// TestStreamWorkloadThrashPhase.
func StreamWorkload(intervalsPerPhase int) Workload {
	wl := DefaultWorkload(intervalsPerPhase)
	wl.Name = "compute-memory-branchy-thrash"
	wl.Phases = append(wl.Phases, Phase{
		Name: "thrash", Intervals: intervalsPerPhase, InstRate: 1.5e6,
		LoadFrac: 0.42, StoreFrac: 0.16, BranchFrac: 0.07, MispRate: 0.03,
		L1MissRate: 0.25, L2HitFrac: 0.40, L3HitFrac: 0.35,
		BaseCPI: 0.50, Jitter: 0.05, MemJitter: 6,
	})
	return wl
}

// primitives are the machine-level quantities of one sampling interval from
// which every catalog event derives; building events from shared primitives
// is what makes the declared invariants hold exactly in the ground truth.
type primitives struct {
	loads, stores, branches, misp, other float64
	l1Hit, l1Miss, l2Hit, l3Hit, l3Miss  float64
	inst, cycles, refCycles, pendCycles  float64
}

// jittered draws a rate around mean with the phase's relative jitter,
// clamped positive.
func jittered(r *rng.Rand, mean, jitter float64) float64 {
	v := r.Gaussian(mean, jitter*mean)
	if v < 0 {
		return 0
	}
	return v
}

// drawPrimitives samples one interval of the phase.
func drawPrimitives(p Phase, r *rng.Rand) primitives {
	var pr primitives
	pr.inst = jittered(r, p.InstRate, p.Jitter)
	pr.loads = jittered(r, p.LoadFrac, p.Jitter) * pr.inst
	pr.stores = jittered(r, p.StoreFrac, p.Jitter) * pr.inst
	pr.branches = jittered(r, p.BranchFrac, p.Jitter) * pr.inst
	pr.other = pr.inst - pr.loads - pr.stores - pr.branches
	pr.misp = jittered(r, p.MispRate, p.Jitter) * pr.branches

	mj := p.memJitter()
	pr.l1Miss = jittered(r, p.L1MissRate, mj) * pr.loads
	pr.l1Hit = pr.loads - pr.l1Miss
	pr.l2Hit = jittered(r, p.L2HitFrac, mj) * pr.l1Miss
	rest := pr.l1Miss - pr.l2Hit
	pr.l3Hit = jittered(r, p.L3HitFrac, mj) * rest
	pr.l3Miss = rest - pr.l3Hit

	// Cycle model: base CPI plus idealized memory latencies (matching the
	// Backend_Bound derived-event weights in the Skylake catalog).
	pr.cycles = p.BaseCPI*pr.inst + 12*pr.l2Hit + 44*pr.l3Hit + 200*pr.l3Miss
	pr.refCycles = 0.94 * pr.cycles
	pr.pendCycles = 10 * pr.l1Miss
	return pr
}

// primOrder is the canonical evaluation order of the machine primitives.
// Model sums accumulate in this order — never in map order — so a
// multi-primitive event's value is deterministic and a spec-loaded catalog
// reproduces the builder catalog's ground truth bit for bit.
var primOrder = [...]string{
	"inst", "cycles", "ref_cycles", "pend_cycles",
	"loads", "stores", "branches", "misp", "other",
	"l1_hit", "l1_miss", "l2_hit", "l3_hit", "l3_miss",
}

// values returns the interval's primitives in primOrder.
func (p primitives) values() [len(primOrder)]float64 {
	return [len(primOrder)]float64{
		p.inst, p.cycles, p.refCycles, p.pendCycles,
		p.loads, p.stores, p.branches, p.misp, p.other,
		p.l1Hit, p.l1Miss, p.l2Hit, p.l3Hit, p.l3Miss,
	}
}

// primIndex returns a primitive's position in primOrder.
func primIndex(name string) (int, bool) {
	for i, known := range primOrder {
		if known == name {
			return i, true
		}
	}
	return 0, false
}

// modelTerm is one coeff·primitive term of a compiled event model; prim
// indexes primitives.values().
type modelTerm struct {
	prim  int
	coeff float64
}

// compileModel resolves one catalog event's declared primitive model
// (Event.Model, Σ coeff·primitive) into terms in primOrder, so every
// interval sums them in the canonical order without touching the map.
// Events without a model — or with a key outside the primitive set, which
// the canonical-order walk would otherwise silently skip — panic, which the
// tests turn into a catalog/generator drift check; ValidateModels offers
// the polite, error-returning form of the same check for catalogs loaded
// from user-supplied JSON.
func compileModel(ev uarch.Event) []modelTerm {
	if len(ev.Model) == 0 {
		panic(fmt.Sprintf("measure: no ground-truth model for event %q", ev.Name))
	}
	terms := make([]modelTerm, 0, len(ev.Model))
	for i, name := range primOrder {
		if coeff, ok := ev.Model[name]; ok {
			terms = append(terms, modelTerm{prim: i, coeff: coeff})
		}
	}
	if len(terms) != len(ev.Model) {
		panic(fmt.Sprintf("measure: event %q model references unknown primitives %q (known: %v)",
			ev.Name, unknownPrimitives(ev.Model), primOrder))
	}
	return terms
}

// unknownPrimitives lists a model's keys outside the primitive set, sorted.
func unknownPrimitives(model map[string]float64) []string {
	var unknown []string
	for name := range model {
		if _, ok := primIndex(name); !ok {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(unknown)
	return unknown
}

// ValidateModels checks that every event in the catalog declares a
// ground-truth model over known primitives, so GroundTruth cannot panic on
// it. Call it after loading a catalog spec from untrusted input.
func ValidateModels(cat *uarch.Catalog) error {
	for _, ev := range cat.Events {
		if len(ev.Model) == 0 {
			return fmt.Errorf("measure: %s: event %s declares no ground-truth model", cat.Arch, ev.Name)
		}
		if unknown := unknownPrimitives(ev.Model); len(unknown) > 0 {
			sort.Strings(unknown)
			return fmt.Errorf("measure: %s: event %s references unknown primitives %q (known: %v)",
				cat.Arch, ev.Name, unknown, primOrder)
		}
	}
	return nil
}

// Trace is the ground-truth event trace of one workload run on one catalog:
// one uniformly sampled series per event, in EventID order.
type Trace struct {
	Cat    *uarch.Catalog
	Series []timeseries.Series
}

// GroundTruth simulates the workload on the catalog's idealized core,
// producing the polling-mode trace every event would show if the PMU had
// unlimited counters. All catalog invariants hold exactly in every interval.
func GroundTruth(cat *uarch.Catalog, wl Workload, r *rng.Rand) *Trace {
	tr := &Trace{Cat: cat, Series: make([]timeseries.Series, cat.NumEvents())}
	total := wl.Intervals()
	models := make([][]modelTerm, len(tr.Series))
	for id := range tr.Series {
		tr.Series[id] = make(timeseries.Series, 0, total)
		models[id] = compileModel(cat.Event(uarch.EventID(id)))
	}
	for _, ph := range wl.Phases {
		for t := 0; t < ph.Intervals; t++ {
			v := drawPrimitives(ph, r).values()
			for id, terms := range models {
				var s float64
				for _, term := range terms {
					s += term.coeff * v[term.prim]
				}
				tr.Series[id] = append(tr.Series[id], s)
			}
		}
	}
	return tr
}

// Totals returns the whole-run true count per event.
func (t *Trace) Totals() []float64 {
	out := make([]float64, len(t.Series))
	for i, s := range t.Series {
		out[i] = s.Sum()
	}
	return out
}

// Intervals returns the trace length.
func (t *Trace) Intervals() int {
	if len(t.Series) == 0 {
		return 0
	}
	return len(t.Series[0])
}
