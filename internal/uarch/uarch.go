// Package uarch defines the microarchitectural knowledge base that drives
// BayesPerf: per-CPU event catalogs (fixed and programmable events together
// with their counter-placement constraints), the library of algebraic
// invariants between events (§3–§4 of the paper: "microarchitectural
// invariants … can be composed, encoded as statistical relationships"), and
// the derived-event formulas evaluated in §6.2.
//
// The catalogs model an Intel Skylake-like x86_64 core and an IBM
// Power9-like ppc64 core. Event semantics are grounded in a common set of
// machine primitives (see internal/measure's workload generator), so the
// invariants declared here hold exactly in the simulated ground truth, just
// as the vendor-documented relations hold on real silicon.
package uarch

import (
	"fmt"
	"math"
	"math/bits"
)

// EventID indexes an event within one catalog. IDs are dense from 0.
type EventID int

// InvalidEvent is the sentinel for "no event".
const InvalidEvent EventID = -1

// Event describes one countable architectural or microarchitectural event.
type Event struct {
	ID    EventID
	Name  string
	Fixed bool // counted on a dedicated fixed counter, never multiplexed
	// FixedIndex is the fixed-counter slot for fixed events (0-based).
	FixedIndex int
	// CounterMask is the bitmask of programmable counters able to count the
	// event (bit i set ⇒ counter c_i can host it). Ignored for fixed events.
	// This models constraints like "L1D_PEND_MISS.PENDING can be only
	// counted on the third HPC on Haswell/Broadwell systems" (§4).
	CounterMask uint
	// NeedsMSR marks off-core-response style events that consume one of the
	// PMU's auxiliary MSRs in addition to a counter ("an Intel off-core
	// response event requires one HPC and one MSR register", §4).
	NeedsMSR bool
	// Model grounds the event in the shared machine primitives of the
	// simulated core (internal/measure): the event's value is the linear
	// combination Σ Model[p]·primitive(p). Catalogs declared as data (JSON
	// specs) carry their ground-truth semantics here instead of in compiled
	// Go, which is what lets a catalog defined purely in JSON run end to
	// end through the simulator.
	Model map[string]float64
	Desc  string
}

// Term is one addend of a linear invariant: Coeff · value(Event).
type Term struct {
	Event EventID
	Coeff float64
}

// Relation is a linear microarchitectural invariant Σᵢ Coeffᵢ·eᵢ ≈ 0.
// RelTol expresses how exactly it holds as a fraction of the relation's
// magnitude; it becomes the factor noise scale in the factor graph.
type Relation struct {
	Name   string
	Terms  []Term
	RelTol float64
	Desc   string
}

// Residual evaluates Σᵢ Coeffᵢ·vals[eᵢ] for the relation.
func (r Relation) Residual(vals []float64) float64 {
	var s float64
	for _, t := range r.Terms {
		s += t.Coeff * vals[t.Event]
	}
	return s
}

// Magnitude returns the scale of the relation at the given values:
// Σᵢ |Coeffᵢ·vals[eᵢ]| / 2 (half the gross flow, so that an exact A=B+C
// relation has magnitude ≈ A).
func (r Relation) Magnitude(vals []float64) float64 {
	var s float64
	for _, t := range r.Terms {
		s += math.Abs(t.Coeff * vals[t.Event])
	}
	return s / 2
}

// Expression kinds a Derived formula is declared as. Every formula is one
// of these, so a formula is pure data: catalogs round-trip through JSON
// without losing their derived events, and Eval and GradientInto read the
// kind's coefficients directly.
const (
	// KindRatio is Scale·in[0]/in[1] under the zero-denominator guard (see
	// RatioValue and RatioGradient).
	KindRatio = "ratio"
	// KindLinearRatio is N/D with N = ΣNum[i]·in[i] and D = ΣDen[i]·in[i],
	// under the same guard (see LinearTerm, LinearValue and
	// LinearGradient).
	KindLinearRatio = "linear_ratio"
)

// Derived is a derived event (§2 "Errors in Derived Events"): a mathematical
// combination of individual HPC values, e.g. IPC or Backend_Bound. It is
// data: Kind selects the expression and Scale (KindRatio) or Num and Den
// (KindLinearRatio) hold its coefficients, in Inputs order. A Derived is
// never mutated after its catalog is built, so any number of goroutines may
// evaluate it at once.
type Derived struct {
	Name     string
	Inputs   []EventID
	Kind     string
	Scale    float64
	Num, Den []float64
	Desc     string
}

// newRatioDerived builds the KindRatio formula scale·num/den. Both the
// catalog builders and the Spec loader construct ratios through here, so a
// spec-loaded catalog's formulas are identical to the builder's.
func newRatioDerived(name, desc string, num, den EventID, scale float64) Derived {
	return Derived{
		Name:   name,
		Inputs: []EventID{num, den},
		Kind:   KindRatio,
		Scale:  scale,
		Desc:   desc,
	}
}

// newLinearRatioDerived builds the KindLinearRatio formula
// Σ num[i]·in[i] / Σ den[i]·in[i] over private copies of its coefficients.
func newLinearRatioDerived(name, desc string, inputs []EventID, num, den []float64) Derived {
	return Derived{
		Name:   name,
		Inputs: append([]EventID(nil), inputs...),
		Kind:   KindLinearRatio,
		Num:    append([]float64(nil), num...),
		Den:    append([]float64(nil), den...),
		Desc:   desc,
	}
}

// The helpers below are the only implementation of each kind's value and
// gradient and of the delta method's terms. Eval, GradientInto and DeltaStd
// call them, and so do the stream engine's per-kind series loops, so every
// caller computes the same bits. Each is small enough to inline.

// RatioValue is the KindRatio formula scale·a/b; 0 when b = 0.
func RatioValue(scale, a, b float64) float64 {
	return safeDiv(scale*a, b)
}

// RatioGradient is the gradient of scale·a/b with respect to (a, b):
// (scale/b, −scale·a/b²). At b = 0 it is the guard's flat (0, 0): a zero
// denominator carries no first-order information.
func RatioGradient(scale, a, b float64) (ga, gb float64) {
	if b == 0 { //bayesvet:bitwise guard against exact-zero denominator
		return 0, 0
	}
	return scale / b, -scale * a / (b * b)
}

// LinearTerm adds input x, with numerator and denominator coefficients num
// and den, to a KindLinearRatio formula's running sums n and d. Folding the
// inputs in Inputs order from zero gives the formula's N and D.
func LinearTerm(n, d, num, den, x float64) (float64, float64) {
	return n + num*x, d + den*x
}

// LinearValue is the KindLinearRatio value f = n/d from its sums; 0 when
// d = 0.
func LinearValue(n, d float64) float64 { return safeDiv(n, d) }

// LinearGradient is ∂f/∂xᵢ of a KindLinearRatio formula at f = N/D for the
// input with coefficients num and den: (num − f·den)/D. The form divides by
// D once, where the quotient rule's (num·D − N·den)/D² overflows once |D|
// passes ~1e154. An input absent from D contributes num/D, which stays
// finite even where f itself overflowed. At D = 0 the gradient is the
// guard's flat 0, like RatioGradient.
func LinearGradient(num, den, f, d float64) float64 {
	if d == 0 { //bayesvet:bitwise guard against exact-zero denominator
		return 0
	}
	if den == 0 { //bayesvet:bitwise an exactly-zero coefficient drops the f·den term
		return num / d
	}
	return (num - f*den) / d
}

// DeltaTerm adds input i's diagonal delta-method term (gᵢ·σᵢ)² to the
// variance v. A non-finite gradient component adds nothing instead of
// poisoning the result.
func DeltaTerm(v, g, s float64) float64 {
	if !finite(g) {
		return v
	}
	t := g * s
	return v + t*t
}

// DeltaCross adds the cross term 2·(gᵢσᵢ)·(gⱼσⱼ)·ρ of inputs i < j with
// correlation r to the variance v. A zero or NaN r leaves the pair
// independent, r is clamped to [−1, 1], and a non-finite gradient component
// adds nothing.
func DeltaCross(v, gi, si, gj, sj, r float64) float64 {
	// Untracked pairs hold an exact 0 r; a NaN r fails the test too.
	if !finite(gi) || !finite(gj) || !(r > 0 || r < 0) {
		return v
	}
	return v + 2*(gi*si)*(gj*sj)*min(max(r, -1), 1)
}

// DeltaRoot turns an accumulated delta-method variance into the std,
// flooring it at 0 so an inconsistent covariance model can never yield a
// NaN std.
func DeltaRoot(v float64) float64 {
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// finite reports whether x is neither NaN nor ±Inf: x−x is exactly 0 for
// every finite x and NaN otherwise. It is the cheapest form of the test,
// which keeps the delta-method helpers within the inlining budget.
func finite(x float64) bool {
	return x-x == 0 //bayesvet:bitwise x−x is exactly 0 for finite x, NaN otherwise
}

// Eval computes the formula's value at the input values in (Inputs order).
// A formula whose Kind fails Validate evaluates to NaN.
func (d *Derived) Eval(in []float64) float64 {
	switch d.Kind {
	case KindRatio:
		return RatioValue(d.Scale, in[0], in[1])
	case KindLinearRatio:
		var n, den float64
		for i, x := range in {
			n, den = LinearTerm(n, den, d.Num[i], d.Den[i], x)
		}
		return LinearValue(n, den)
	}
	return math.NaN()
}

// Gradient returns ∂Eval/∂inᵢ at in (Inputs order) in a new slice; see
// GradientInto.
func (d *Derived) Gradient(in []float64) []float64 {
	g := make([]float64, len(in))
	d.GradientInto(g, in)
	return g
}

// GradientInto writes the exact gradient ∂Eval/∂inᵢ at in (Inputs order)
// into g, which must have len(in): RatioGradient for a ratio, and
// LinearGradient at each input for a linear ratio. Both are flat at a zero
// denominator. A formula whose Kind fails Validate gets a NaN gradient,
// which DeltaStd ignores.
func (d *Derived) GradientInto(g, in []float64) {
	switch d.Kind {
	case KindRatio:
		g[0], g[1] = RatioGradient(d.Scale, in[0], in[1])
	case KindLinearRatio:
		var n, den float64
		for i, x := range in {
			n, den = LinearTerm(n, den, d.Num[i], d.Den[i], x)
		}
		f := LinearValue(n, den)
		for i := range g {
			g[i] = LinearGradient(d.Num[i], d.Den[i], f, den)
		}
	default:
		for i := range g {
			g[i] = math.NaN()
		}
	}
}

// PropagateStd applies the first-order delta method at the point in: the
// std of Eval given per-input stds, treating the inputs as independent
// (the factor graph exposes marginals only, so cross-covariances are not
// available; the diagonal approximation is conservative for the
// negatively-correlated ratio formulas here).
func (d *Derived) PropagateStd(in, std []float64) float64 {
	return DeltaStd(d.Gradient(in), std, nil)
}

// PropagateStdCov is the covariance-aware delta method at the point in:
// like PropagateStd, but cross-input coupling enters through corr(i, j) —
// the posterior correlation of inputs i < j (positions in Inputs order),
// as extracted per relation clique by the factor graph. A nil corr, or one
// returning 0 for every pair, reproduces PropagateStd bit for bit.
func (d *Derived) PropagateStdCov(in, std []float64, corr func(i, j int) float64) float64 {
	var rho []float64
	if corr != nil {
		k := len(in)
		rho = make([]float64, k*k)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				rho[i*k+j] = corr(i, j)
			}
		}
	}
	return DeltaStd(d.Gradient(in), std, rho)
}

// DeltaStd is the first-order delta method given a formula's gradient g
// at the point (GradientInto) and per-input stds: the std of the formula,
// accumulated as every diagonal DeltaTerm in input order, then every
// DeltaCross in (i, j) order, through DeltaRoot. rho holds the inputs'
// correlations row-major: rho[i*len(g)+j] couples inputs i < j, and only
// that upper triangle is read. A nil rho, or a zero entry, leaves a pair
// independent.
func DeltaStd(g, std, rho []float64) float64 {
	var v float64
	for i, gi := range g {
		v = DeltaTerm(v, gi, std[i])
	}
	if rho != nil {
		k := len(g)
		for i, gi := range g {
			for j := i + 1; j < k; j++ {
				v = DeltaCross(v, gi, std[i], g[j], std[j], rho[i*k+j])
			}
		}
	}
	return DeltaRoot(v)
}

// Catalog is the complete event model for one CPU architecture.
type Catalog struct {
	Arch     string // e.g. "x86_64-skylake"
	NumFixed int    // fixed HPCs (n_f in the paper's formalism)
	NumProg  int    // programmable HPCs (n_p)
	NumMSR   int    // auxiliary off-core-response MSRs available
	Events   []Event
	Rels     []Relation
	Derived  []Derived

	byName map[string]EventID
}

// newCatalog starts a catalog builder.
func newCatalog(arch string, numFixed, numProg, numMSR int) *Catalog {
	return &Catalog{
		Arch:     arch,
		NumFixed: numFixed,
		NumProg:  numProg,
		NumMSR:   numMSR,
		byName:   make(map[string]EventID),
	}
}

func (c *Catalog) addEvent(e Event) EventID {
	if _, dup := c.byName[e.Name]; dup {
		panic(fmt.Sprintf("uarch: duplicate event %q in %s", e.Name, c.Arch))
	}
	e.ID = EventID(len(c.Events))
	c.Events = append(c.Events, e)
	c.byName[e.Name] = e.ID
	return e.ID
}

// fixed registers a fixed-counter event at the given fixed slot.
func (c *Catalog) fixed(name string, slot int, desc string) EventID {
	return c.addEvent(Event{Name: name, Fixed: true, FixedIndex: slot, Desc: desc})
}

// prog registers a programmable event with the given counter mask.
func (c *Catalog) prog(name string, mask uint, desc string) EventID {
	return c.addEvent(Event{Name: name, CounterMask: mask, Desc: desc})
}

// progMSR registers a programmable event that also consumes an MSR.
func (c *Catalog) progMSR(name string, mask uint, desc string) EventID {
	return c.addEvent(Event{Name: name, CounterMask: mask, NeedsMSR: true, Desc: desc})
}

// relation registers a linear invariant by event name. Terms are given as
// (coeff, name) pairs.
func (c *Catalog) relation(name string, relTol float64, desc string, terms ...Term) {
	c.Rels = append(c.Rels, Relation{Name: name, Terms: terms, RelTol: relTol, Desc: desc})
}

// derivedRatio registers a scale·num/den ratio formula (KindRatio).
func (c *Catalog) derivedRatio(name, desc string, num, den EventID, scale float64) {
	c.Derived = append(c.Derived, newRatioDerived(name, desc, num, den, scale))
}

// derivedLinear registers a weighted-sum-over-weighted-sum formula
// (KindLinearRatio).
func (c *Catalog) derivedLinear(name, desc string, inputs []EventID, num, den []float64) {
	c.Derived = append(c.Derived, newLinearRatioDerived(name, desc, inputs, num, den))
}

// setModels assigns each named event's ground-truth model (see Event.Model).
// Unknown names panic: the builder catalogs call this at construction time
// only, so a typo fails loudly in every test.
func (c *Catalog) setModels(models map[string]map[string]float64) {
	for name, m := range models { //bayesvet:maporder each iteration writes a distinct slice index keyed by event name; order-insensitive
		c.Events[c.MustEvent(name)].Model = m
	}
}

// Lookup returns the EventID for name, or InvalidEvent if unknown.
func (c *Catalog) Lookup(name string) EventID {
	if id, ok := c.byName[name]; ok {
		return id
	}
	return InvalidEvent
}

// MustEvent returns the EventID for name, panicking if unknown. It is used
// at catalog-construction and test time only.
func (c *Catalog) MustEvent(name string) EventID {
	id := c.Lookup(name)
	if id == InvalidEvent {
		panic(fmt.Sprintf("uarch: unknown event %q in %s", name, c.Arch))
	}
	return id
}

// Event returns the event descriptor for id.
func (c *Catalog) Event(id EventID) Event { return c.Events[id] }

// NumEvents returns the number of events in the catalog (n_e).
func (c *Catalog) NumEvents() int { return len(c.Events) }

// FixedEvents returns the IDs of all fixed-counter events.
func (c *Catalog) FixedEvents() []EventID {
	var out []EventID
	for _, e := range c.Events {
		if e.Fixed {
			out = append(out, e.ID)
		}
	}
	return out
}

// ProgrammableEvents returns the IDs of all programmable events.
func (c *Catalog) ProgrammableEvents() []EventID {
	var out []EventID
	for _, e := range c.Events {
		if !e.Fixed {
			out = append(out, e.ID)
		}
	}
	return out
}

// RelationsOf returns the indices (into Rels) of every relation mentioning
// the event.
func (c *Catalog) RelationsOf(id EventID) []int {
	var out []int
	for i, r := range c.Rels {
		for _, t := range r.Terms {
			if t.Event == id {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// DerivedByName returns the derived-event definition, or nil.
func (c *Catalog) DerivedByName(name string) *Derived {
	for i := range c.Derived {
		if c.Derived[i].Name == name {
			return &c.Derived[i]
		}
	}
	return nil
}

// Validate checks internal consistency of the catalog. It is called by the
// constructors and exercised directly in tests.
func (c *Catalog) Validate() error {
	if c.NumFixed < 0 || c.NumProg <= 0 {
		return fmt.Errorf("uarch: %s: need at least one programmable counter", c.Arch)
	}
	// CounterMask is a uint, so a catalog can address at most UintSize−1
	// programmable counters; beyond that the full-mask shift below would
	// overflow and mask validation would silently accept garbage.
	if c.NumProg > bits.UintSize-1 {
		return fmt.Errorf("uarch: %s: NumProg %d exceeds the %d counters addressable by a counter mask",
			c.Arch, c.NumProg, bits.UintSize-1)
	}
	fullMask := uint(1)<<uint(c.NumProg) - 1
	fixedSeen := make(map[int]string)
	for _, e := range c.Events {
		if e.Fixed {
			if e.FixedIndex < 0 || e.FixedIndex >= c.NumFixed {
				return fmt.Errorf("uarch: %s: %s fixed slot %d out of range", c.Arch, e.Name, e.FixedIndex)
			}
			if prev, dup := fixedSeen[e.FixedIndex]; dup {
				return fmt.Errorf("uarch: %s: fixed slot %d claimed by both %s and %s", c.Arch, e.FixedIndex, prev, e.Name)
			}
			fixedSeen[e.FixedIndex] = e.Name
			continue
		}
		if e.CounterMask == 0 {
			return fmt.Errorf("uarch: %s: %s has empty counter mask", c.Arch, e.Name)
		}
		if e.NeedsMSR && c.NumMSR < 1 {
			return fmt.Errorf("uarch: %s: %s needs an MSR but catalog has none", c.Arch, e.Name)
		}
		if e.CounterMask&^fullMask != 0 {
			return fmt.Errorf("uarch: %s: %s mask %#x exceeds %d counters", c.Arch, e.Name, e.CounterMask, c.NumProg)
		}
	}
	for _, r := range c.Rels {
		if len(r.Terms) < 2 {
			return fmt.Errorf("uarch: %s: relation %s has <2 terms", c.Arch, r.Name)
		}
		if r.RelTol <= 0 {
			return fmt.Errorf("uarch: %s: relation %s has non-positive tolerance", c.Arch, r.Name)
		}
		for _, t := range r.Terms {
			if t.Event < 0 || int(t.Event) >= len(c.Events) {
				return fmt.Errorf("uarch: %s: relation %s references unknown event %d", c.Arch, r.Name, t.Event)
			}
			if t.Coeff == 0 { //bayesvet:bitwise validation rejects an exactly-zero coefficient, which the spec assigns
				return fmt.Errorf("uarch: %s: relation %s has zero coefficient", c.Arch, r.Name)
			}
		}
	}
	for _, d := range c.Derived {
		for _, in := range d.Inputs {
			if in < 0 || int(in) >= len(c.Events) {
				return fmt.Errorf("uarch: %s: derived %s references unknown event %d", c.Arch, d.Name, in)
			}
		}
		switch d.Kind {
		case "":
			return fmt.Errorf("uarch: %s: derived %s has no formula: empty kind", c.Arch, d.Name)
		case KindRatio:
			if len(d.Inputs) != 2 {
				return fmt.Errorf("uarch: %s: ratio derived %s needs 2 inputs, has %d", c.Arch, d.Name, len(d.Inputs))
			}
			if d.Scale == 0 { //bayesvet:bitwise validation rejects an exactly-zero scale, which the spec assigns
				return fmt.Errorf("uarch: %s: ratio derived %s has zero scale", c.Arch, d.Name)
			}
		case KindLinearRatio:
			if len(d.Num) != len(d.Inputs) || len(d.Den) != len(d.Inputs) {
				return fmt.Errorf("uarch: %s: linear_ratio derived %s coefficient lengths %d/%d do not match %d inputs",
					c.Arch, d.Name, len(d.Num), len(d.Den), len(d.Inputs))
			}
		default:
			return fmt.Errorf("uarch: %s: derived %s has unknown kind %q", c.Arch, d.Name, d.Kind)
		}
	}
	return nil
}

// EvalDerived computes a derived event from a full event-value vector
// (indexed by EventID).
func (c *Catalog) EvalDerived(d *Derived, vals []float64) float64 {
	in := make([]float64, len(d.Inputs))
	for i, id := range d.Inputs {
		in[i] = vals[id]
	}
	return d.Eval(in)
}

// PosteriorFrom computes the derived event's (mean, std) from full
// per-event posterior mean and std vectors (indexed by EventID): the value
// at the posterior mean and the delta-method std (PropagateStd). It is the
// single gather point shared by the batch (graph.Result) and any
// vector-shaped caller, so a future covariance-aware propagation lands in
// one place.
func (d *Derived) PosteriorFrom(mean, std []float64) (dMean, dStd float64) {
	in := make([]float64, len(d.Inputs))
	sd := make([]float64, len(d.Inputs))
	for i, id := range d.Inputs {
		in[i] = mean[id]
		sd[i] = std[id]
	}
	return d.Eval(in), d.PropagateStd(in, sd)
}

// anyCtr returns the "any programmable counter" mask for n counters.
func anyCtr(n int) uint { return uint(1)<<uint(n) - 1 }

// loCtr returns the mask selecting the low k of n counters.
func loCtr(k int) uint { return uint(1)<<uint(k) - 1 }

// oneCtr returns the mask selecting exactly counter i.
func oneCtr(i int) uint { return uint(1) << uint(i) }

func safeDiv(a, b float64) float64 {
	if b == 0 { //bayesvet:bitwise guard against exact-zero denominator
		return 0
	}
	return a / b
}
