package uarch

import (
	"math"
	"math/big"
	"math/bits"
	"strings"
	"testing"
)

// validBase returns a minimal catalog that passes Validate, for the error
// paths to perturb.
func validBase() *Catalog {
	c := newCatalog("test-arch", 1, 2, 0)
	c.fixed("FIXED_A", 0, "")
	c.prog("PROG_A", loCtr(2), "")
	c.prog("PROG_B", oneCtr(1), "")
	c.relation("rel", 1e-3, "", Term{0, 1}, Term{1, -1}, Term{2, -1})
	return c
}

func TestValidateAcceptsBase(t *testing.T) {
	if err := validBase().Validate(); err != nil {
		t.Fatalf("base catalog invalid: %v", err)
	}
}

func TestValidateErrorPaths(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Catalog)
		want   string
	}{
		{
			"duplicate fixed slot",
			func(c *Catalog) { c.fixed("FIXED_B", 0, "") },
			"fixed slot 0 claimed by both",
		},
		{
			"fixed slot out of range",
			func(c *Catalog) { c.fixed("FIXED_B", 7, "") },
			"out of range",
		},
		{
			"empty counter mask",
			func(c *Catalog) { c.addEvent(Event{Name: "PROG_C"}) },
			"empty counter mask",
		},
		{
			"oversized counter mask",
			func(c *Catalog) { c.prog("PROG_C", 1<<5, "") },
			"exceeds 2 counters",
		},
		{
			"MSR event without MSR budget",
			func(c *Catalog) { c.progMSR("PROG_MSR", loCtr(2), "") },
			"needs an MSR but catalog has none",
		},
		{
			"relation with <2 terms",
			func(c *Catalog) { c.relation("short", 1e-3, "", Term{0, 1}) },
			"<2 terms",
		},
		{
			"relation with non-positive tolerance",
			func(c *Catalog) { c.relation("loose", 0, "", Term{0, 1}, Term{1, -1}) },
			"non-positive tolerance",
		},
		{
			"relation with unknown event",
			func(c *Catalog) { c.relation("bad", 1e-3, "", Term{0, 1}, Term{99, -1}) },
			"unknown event",
		},
		{
			"relation with zero coefficient",
			func(c *Catalog) { c.relation("zero", 1e-3, "", Term{0, 1}, Term{1, 0}) },
			"zero coefficient",
		},
		{
			"derived without formula", // an empty Kind
			func(c *Catalog) { c.Derived = append(c.Derived, Derived{Name: "d", Inputs: []EventID{0, 1}}) },
			"no formula",
		},
		{
			"derived with unknown kind",
			func(c *Catalog) {
				c.Derived = append(c.Derived, Derived{Name: "d", Inputs: []EventID{0, 1}, Kind: "polynomial"})
			},
			"unknown kind",
		},
		{
			"derived with unknown input",
			func(c *Catalog) { c.derivedRatio("d", "", 0, 42, 1) },
			"unknown event",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := validBase()
			tc.mutate(c)
			err := c.Validate()
			if err == nil {
				t.Fatalf("Validate accepted catalog with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateRejectsOversizedNumProg is the regression test for the
// full-mask overflow: CounterMask is a uint, so NumProg beyond UintSize−1
// cannot be validated (the shift 1<<NumProg wraps) and must be rejected
// instead of silently accepting arbitrary masks.
func TestValidateRejectsOversizedNumProg(t *testing.T) {
	for _, numProg := range []int{bits.UintSize - 1, bits.UintSize, bits.UintSize + 1, 2 * bits.UintSize} {
		c := newCatalog("test-arch", 0, numProg, 0)
		c.prog("PROG_A", 1, "")
		err := c.Validate()
		if numProg <= bits.UintSize-1 {
			if err != nil {
				t.Errorf("NumProg=%d rejected: %v", numProg, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("NumProg=%d accepted despite overflowing the counter mask", numProg)
		} else if !strings.Contains(err.Error(), "addressable") {
			t.Errorf("NumProg=%d error %q does not mention mask addressability", numProg, err)
		}
	}
}

func TestLookupAndMustEvent(t *testing.T) {
	c := Skylake()
	if id := c.Lookup("INST_RETIRED.ANY"); id == InvalidEvent {
		t.Error("Lookup failed for known event")
	} else if c.Event(id).Name != "INST_RETIRED.ANY" {
		t.Errorf("Lookup returned wrong event %q", c.Event(id).Name)
	}
	if id := c.Lookup("NO_SUCH_EVENT"); id != InvalidEvent {
		t.Errorf("Lookup of unknown event returned %d", id)
	}
	if id := c.MustEvent("CPU_CLK_UNHALTED.THREAD"); c.Event(id).Name != "CPU_CLK_UNHALTED.THREAD" {
		t.Error("MustEvent returned wrong event")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustEvent of unknown event did not panic")
		}
	}()
	c.MustEvent("NO_SUCH_EVENT")
}

func TestRelationsOf(t *testing.T) {
	c := Skylake()
	loads := c.MustEvent("MEM_INST_RETIRED.ALL_LOADS")
	rels := c.RelationsOf(loads)
	if len(rels) != 2 {
		t.Fatalf("ALL_LOADS appears in %d relations, want 2", len(rels))
	}
	names := map[string]bool{}
	for _, ri := range rels {
		names[c.Rels[ri].Name] = true
	}
	if !names["retirement_breakdown"] || !names["l1_load_flow"] {
		t.Errorf("RelationsOf(ALL_LOADS) = %v", names)
	}
	pend := c.MustEvent("L1D_PEND_MISS.PENDING")
	if got := c.RelationsOf(pend); len(got) != 0 {
		t.Errorf("L1D_PEND_MISS.PENDING in relations %v, want none", got)
	}
}

// consistentSkylake fills an event vector from machine primitives so every
// invariant should hold exactly.
func consistentSkylake(c *Catalog) []float64 {
	const (
		loads, stores = 2.4e8, 1.1e8
		misp, pred    = 4.0e6, 9.0e7
		other         = 3.8e8
		l2Hit, l3Hit  = 9.0e6, 2.0e6
		l3Miss        = 5.0e5
		cycles        = 7.0e8
	)
	branches := misp + pred
	l1Miss := l2Hit + l3Hit + l3Miss
	v := make([]float64, c.NumEvents())
	set := func(name string, x float64) { v[c.MustEvent(name)] = x }
	set("MEM_INST_RETIRED.ALL_LOADS", loads)
	set("MEM_INST_RETIRED.ALL_STORES", stores)
	set("BR_MISP_RETIRED.ALL_BRANCHES", misp)
	set("BR_PRED_RETIRED.ALL_BRANCHES", pred)
	set("BR_INST_RETIRED.ALL_BRANCHES", branches)
	set("INST_RETIRED.OTHER", other)
	set("INST_RETIRED.ANY", loads+stores+branches+other)
	set("MEM_LOAD_RETIRED.L1_MISS", l1Miss)
	set("MEM_LOAD_RETIRED.L1_HIT", loads-l1Miss)
	set("MEM_LOAD_RETIRED.L2_HIT", l2Hit)
	set("MEM_LOAD_RETIRED.L3_HIT", l3Hit)
	set("MEM_LOAD_RETIRED.L3_MISS", l3Miss)
	set("OFFCORE_RESPONSE.DEMAND_DATA_RD", l3Hit+l3Miss)
	set("OFFCORE_RESPONSE.DEMAND_DATA_RD.L3_MISS", l3Miss)
	set("CPU_CLK_UNHALTED.THREAD", cycles)
	set("CPU_CLK_UNHALTED.REF_TSC", 0.94*cycles)
	set("L1D_PEND_MISS.PENDING", 10*l1Miss)
	return v
}

func consistentPower9(c *Catalog) []float64 {
	const (
		loads, stores  = 1.6e8, 7.0e7
		misp, branches = 3.0e6, 6.0e7
		other          = 2.1e8
		fromL2, fromL3 = 6.0e6, 1.2e6
		fromMem        = 4.0e5
		cycles         = 4.5e8
	)
	l1Miss := fromL2 + fromL3 + fromMem
	v := make([]float64, c.NumEvents())
	set := func(name string, x float64) { v[c.MustEvent(name)] = x }
	set("PM_LD_CMPL", loads)
	set("PM_ST_CMPL", stores)
	set("PM_BR_CMPL", branches)
	set("PM_BR_MPRED_CMPL", misp)
	set("PM_INST_OTHER_CMPL", other)
	set("PM_INST_CMPL", loads+stores+branches+other)
	set("PM_LD_MISS_L1", l1Miss)
	set("PM_LD_HIT_L1", loads-l1Miss)
	set("PM_DATA_FROM_L2", fromL2)
	set("PM_DATA_FROM_L3", fromL3)
	set("PM_DATA_FROM_MEM", fromMem)
	set("PM_RUN_CYC", cycles)
	return v
}

// TestCatalogInvariantsZeroResidual checks that both built-in catalogs'
// invariants have zero residual on a consistent synthetic event vector.
func TestCatalogInvariantsZeroResidual(t *testing.T) {
	sky := Skylake()
	p9 := Power9()
	cases := []struct {
		cat  *Catalog
		vals []float64
	}{
		{sky, consistentSkylake(sky)},
		{p9, consistentPower9(p9)},
	}
	for _, tc := range cases {
		for _, r := range tc.cat.Rels {
			res := math.Abs(r.Residual(tc.vals))
			if res > 1e-9*math.Max(r.Magnitude(tc.vals), 1) {
				t.Errorf("%s: relation %s residual %g on consistent vector",
					tc.cat.Arch, r.Name, res)
			}
		}
	}
}

func TestBuiltinCatalogsShape(t *testing.T) {
	sky := Skylake()
	if err := sky.Validate(); err != nil {
		t.Errorf("Skylake invalid: %v", err)
	}
	if sky.NumFixed != 3 || sky.NumProg != 4 {
		t.Errorf("Skylake counters = %d fixed/%d prog, want 3/4", sky.NumFixed, sky.NumProg)
	}
	if n := sky.NumEvents(); n < 12 {
		t.Errorf("Skylake has %d events, want >= 12", n)
	}
	if n := len(sky.Rels); n < 5 {
		t.Errorf("Skylake has %d invariants, want >= 5", n)
	}
	hasMSR := false
	for _, e := range sky.Events {
		if e.NeedsMSR {
			hasMSR = true
		}
	}
	if !hasMSR {
		t.Error("Skylake has no off-core-response MSR events")
	}
	for _, name := range []string{"IPC", "L3_MPKI", "Backend_Bound"} {
		if sky.DerivedByName(name) == nil {
			t.Errorf("Skylake missing derived event %s", name)
		}
	}
	if d := sky.DerivedByName("NOPE"); d != nil {
		t.Errorf("DerivedByName(NOPE) = %v", d)
	}

	p9 := Power9()
	if err := p9.Validate(); err != nil {
		t.Errorf("Power9 invalid: %v", err)
	}
	if n := p9.NumEvents(); n < 8 {
		t.Errorf("Power9 has %d events, want >= 8", n)
	}
	if n := len(p9.Rels); n < 3 {
		t.Errorf("Power9 has %d invariants, want >= 3", n)
	}

	// Fixed + programmable partition covers every event in both catalogs.
	for _, c := range Catalogs() {
		if got := len(c.FixedEvents()) + len(c.ProgrammableEvents()); got != c.NumEvents() {
			t.Errorf("%s: fixed+prog = %d, want %d", c.Arch, got, c.NumEvents())
		}
	}
}

func TestEvalDerived(t *testing.T) {
	c := Skylake()
	v := consistentSkylake(c)
	ipc := c.EvalDerived(c.DerivedByName("IPC"), v)
	want := v[c.MustEvent("INST_RETIRED.ANY")] / v[c.MustEvent("CPU_CLK_UNHALTED.THREAD")]
	if math.Abs(ipc-want) > 1e-12 {
		t.Errorf("IPC = %v, want %v", ipc, want)
	}
}

// allCatalogs returns every registered catalog and both example specs'
// catalogs.
func allCatalogs(t *testing.T) []*Catalog {
	t.Helper()
	var cats []*Catalog
	for _, name := range Names() {
		spec, _ := Lookup(name)
		cats = append(cats, spec.MustCatalog())
	}
	for _, name := range []string{"zen.json", "neoverse.json"} {
		spec, err := LoadSpecFile("../../examples/catalogs/" + name)
		if err != nil {
			t.Fatal(err)
		}
		cat, err := spec.Catalog()
		if err != nil {
			t.Fatal(err)
		}
		cats = append(cats, cat)
	}
	return cats
}

// xorshift returns a deterministic generator of draws in [0, 1).
func xorshift(seed uint64) func() float64 {
	return func() float64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return float64(seed>>11) / (1 << 53)
	}
}

// centralDifference is the test's independent gradient: a central finite
// difference of Eval with the per-coordinate step h = 1e-6·max(|inᵢ|, 1).
func centralDifference(d *Derived, in []float64) []float64 {
	g := make([]float64, len(in))
	x := append([]float64(nil), in...)
	for i := range x {
		h := 1e-6 * math.Max(math.Abs(x[i]), 1)
		x[i] = in[i] + h
		fp := d.Eval(x)
		x[i] = in[i] - h
		fm := d.Eval(x)
		x[i] = in[i]
		g[i] = (fp - fm) / (2 * h)
	}
	return g
}

// denominator returns the formula's denominator at in and how far the
// central-difference stencil can move it: Σ|∂D/∂inᵢ|·hᵢ.
func denominator(d *Derived, in []float64) (den, reach float64) {
	for i, x := range in {
		c := 1.0 // a ratio's denominator is its second input
		switch d.Kind {
		case KindRatio:
			if i == 0 {
				c = 0
			}
		case KindLinearRatio:
			c = d.Den[i]
		}
		den += c * x
		reach += math.Abs(c) * 1e-6 * math.Max(math.Abs(x), 1)
	}
	return den, reach
}

// TestGradientAnalyticMatchesFallback checks the exact gradient of every
// registered formula and every example-spec formula against the test's
// own central difference, within 1e-6 relative. The points are count-like
// (positive, 1 to 1e12, with some inputs at zero). A coordinate is
// compared only where its difference is well conditioned: the stencil
// moves the denominator by less than a thousandth of its value, and the
// difference's rounding error, about 3ε·|f|/hᵢ, is below 1e-8 of it.
func TestGradientAnalyticMatchesFallback(t *testing.T) {
	next := xorshift(3)
	for _, cat := range allCatalogs(t) {
		for di := range cat.Derived {
			d := &cat.Derived[di]
			checked := make([]int, len(d.Inputs))
			for trial := 0; trial < 100; trial++ {
				in := make([]float64, len(d.Inputs))
				for i := range in {
					in[i] = math.Pow(10, 12*next())
					if trial%3 == 2 && next() < 0.3 {
						in[i] = 0
					}
				}
				if den, reach := denominator(d, in); !(math.Abs(den) > 1e3*reach) {
					continue
				}
				f := math.Abs(d.Eval(in))
				got, want := d.Gradient(in), centralDifference(d, in)
				for i := range got {
					h := 1e-6 * math.Max(math.Abs(in[i]), 1)
					if 3*0x1p-52*f/h > 1e-8*math.Abs(want[i]) {
						continue
					}
					checked[i]++
					if !finite(got[i]) || math.Abs(got[i]-want[i]) > 1e-6*math.Abs(want[i]) {
						t.Fatalf("%s/%s at %v: gradient[%d] = %g, central difference %g",
							cat.Arch, d.Name, in, i, got[i], want[i])
					}
				}
			}
			for i, n := range checked {
				if n < 10 {
					t.Errorf("%s/%s: input %d well conditioned at only %d of 100 points", cat.Arch, d.Name, i, n)
				}
			}
		}
	}
}

// exactLinearGradient evaluates a KindLinearRatio formula's gradient
// exactly in rational arithmetic at in: g[i] = (Num[i] − f·Den[i])/D with
// f = N/D. It also returns each coordinate's error scale
// (|Num[i]| + F·|Den[i]|)/|D|, where F = (Σ|Num[j]·in[j]| + |f|·Σ|Den[j]·in[j]|)/|D|
// is the magnitude of the terms f is computed from: F = |f| up to a
// factor 2 when no sum cancels, and larger by exactly the cancellation
// otherwise. D must not be 0.
func exactLinearGradient(d *Derived, in []float64) (g, scale []*big.Rat) {
	rat := func(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }
	abs := func(x *big.Rat) *big.Rat { return new(big.Rat).Abs(x) }
	n, den, absN, absD := new(big.Rat), new(big.Rat), new(big.Rat), new(big.Rat)
	for i, x := range in {
		tn := new(big.Rat).Mul(rat(d.Num[i]), rat(x))
		td := new(big.Rat).Mul(rat(d.Den[i]), rat(x))
		n.Add(n, tn)
		den.Add(den, td)
		absN.Add(absN, abs(tn))
		absD.Add(absD, abs(td))
	}
	f := new(big.Rat).Quo(n, den)
	mag := new(big.Rat).Mul(abs(f), absD)
	mag.Add(mag, absN).Quo(mag, abs(den))
	for i := range in {
		gi := new(big.Rat).Mul(f, rat(d.Den[i]))
		gi.Sub(rat(d.Num[i]), gi).Quo(gi, den)
		si := new(big.Rat).Mul(mag, abs(rat(d.Den[i])))
		si.Add(si, abs(rat(d.Num[i]))).Quo(si, abs(den))
		g, scale = append(g, gi), append(scale, si)
	}
	return g, scale
}

// TestGradientIntoMatchesReference checks GradientInto on every formula of
// all four catalogs at random points, points with a zero input and points
// of extreme magnitude, whatever g held before. A ratio's gradient equals
// the reference (k/b, −k·a/(b·b)) bit for bit. A linear ratio's equals the
// exact rational gradient within 16ε times the coordinate's error scale
// (see exactLinearGradient), plus two of the smallest subnormal for
// results that underflow; where the exact gradient lies beyond the float64
// range the result must be non-finite, which DeltaStd skips, and at a zero
// denominator it must be the guard's flat 0.
func TestGradientIntoMatchesReference(t *testing.T) {
	next := xorshift(1)
	eps := new(big.Rat).SetFloat64(16 * 0x1p-53)
	floor := new(big.Rat).SetFloat64(2 * math.SmallestNonzeroFloat64)
	for _, cat := range allCatalogs(t) {
		for di := range cat.Derived {
			d := &cat.Derived[di]
			n := len(d.Inputs)
			g := make([]float64, n)
			for trial := 0; trial < 200; trial++ {
				in := make([]float64, n)
				for i := range in {
					switch trial % 4 {
					case 0:
						in[i] = 1e9 * next()
					case 1:
						in[i] = math.Exp(700 * (2*next() - 1))
					case 2:
						in[i] = 1e3 * (2*next() - 1)
					default:
						if next() < 0.5 {
							in[i] = 0
						} else {
							in[i] = 1e6 * next()
						}
					}
				}
				for i := range g {
					g[i] = math.NaN()
				}
				d.GradientInto(g, in)
				got := d.Gradient(in)
				for i := range g {
					if math.Float64bits(g[i]) != math.Float64bits(got[i]) {
						t.Fatalf("%s/%s at %v: GradientInto[%d] = %v, Gradient %v", cat.Arch, d.Name, in, i, g[i], got[i])
					}
				}
				switch d.Kind {
				case KindRatio:
					k, a, b := d.Scale, in[0], in[1]
					want := []float64{0, 0}
					if b != 0 { //bayesvet:bitwise reference of the exact-zero denominator guard
						want = []float64{k / b, -k * a / (b * b)}
					}
					for i := range want {
						if math.Float64bits(g[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s/%s at %v: gradient[%d] = %v, reference %v", cat.Arch, d.Name, in, i, g[i], want[i])
						}
					}
				case KindLinearRatio:
					if _, den := linearSums(d, in); den == 0 { //bayesvet:bitwise the guard fires on an exact-zero denominator
						for i := range g {
							if g[i] != 0 {
								t.Fatalf("%s/%s at %v: gradient[%d] = %v at a zero denominator", cat.Arch, d.Name, in, i, g[i])
							}
						}
						continue
					}
					exact, scale := exactLinearGradient(d, in)
					for i, want := range exact {
						if w, _ := want.Float64(); !finite(w) {
							if finite(g[i]) {
								t.Fatalf("%s/%s at %v: gradient[%d] = %v, exact %v is beyond float64",
									cat.Arch, d.Name, in, i, g[i], want.FloatString(3))
							}
							continue
						}
						if !finite(g[i]) {
							t.Fatalf("%s/%s at %v: gradient[%d] = %v, exact %v", cat.Arch, d.Name, in, i, g[i], want.FloatString(3))
						}
						diff := new(big.Rat).Sub(new(big.Rat).SetFloat64(g[i]), want)
						tol := new(big.Rat).Mul(eps, scale[i])
						tol.Add(tol, floor)
						if diff.Abs(diff).Cmp(tol) > 0 {
							w, _ := want.Float64()
							tf, _ := tol.Float64()
							t.Fatalf("%s/%s at %v: gradient[%d] = %v, exact %v, tolerance %v",
								cat.Arch, d.Name, in, i, g[i], w, tf)
						}
					}
				}
			}
		}
	}
}

// linearSums returns a KindLinearRatio formula's float64 numerator and
// denominator at in.
func linearSums(d *Derived, in []float64) (n, den float64) {
	for i, x := range in {
		n, den = LinearTerm(n, den, d.Num[i], d.Den[i], x)
	}
	return n, den
}

// TestPropagateStdGoldenIPC is the golden delta-method check: for
// IPC = I/C with I = 1e9 ± 1e7 and C = 8e8 ± 4e6, the propagated std must
// equal the hand-computed √((σ_I/C)² + (I·σ_C/C²)²).
func TestPropagateStdGoldenIPC(t *testing.T) {
	c := Skylake()
	d := c.DerivedByName("IPC")
	const (
		instr, sigI = 1.0e9, 1.0e7
		cyc, sigC   = 8.0e8, 4.0e6
	)
	got := d.PropagateStd([]float64{instr, cyc}, []float64{sigI, sigC})
	want := math.Sqrt(math.Pow(sigI/cyc, 2) + math.Pow(instr*sigC/(cyc*cyc), 2))
	if math.Abs(got-want) > 1e-12*want {
		t.Errorf("IPC propagated std = %g, hand-computed %g", got, want)
	}
	// Sanity: the relative std of a ratio of ~1%-and-0.5%-accurate inputs
	// lands near √(1%² + 0.5%²).
	ipc := d.Eval([]float64{instr, cyc})
	rel := got / ipc
	if rel < 0.010 || rel > 0.013 {
		t.Errorf("IPC relative std = %.4f, want ≈ 0.0112", rel)
	}
}

// TestPropagateStdCovGoldenIPC extends the golden delta-method check with
// a correlated pair: for IPC = I/C with correlation ρ between the inputs,
// the covariance-aware std must equal the hand-computed
// √((σ_I/C)² + (I·σ_C/C²)² + 2·(σ_I/C)·(−I·σ_C/C²)·ρ) — strictly below
// the diagonal value for ρ > 0 (errors that move together cancel in a
// ratio) and above it for ρ < 0.
func TestPropagateStdCovGoldenIPC(t *testing.T) {
	c := Skylake()
	d := c.DerivedByName("IPC")
	const (
		instr, sigI = 1.0e9, 1.0e7
		cyc, sigC   = 8.0e8, 4.0e6
	)
	in := []float64{instr, cyc}
	sd := []float64{sigI, sigC}
	diag := d.PropagateStd(in, sd)
	for _, rho := range []float64{0.8, -0.8} {
		got := d.PropagateStdCov(in, sd, func(i, j int) float64 { return rho })
		gI, gC := 1/cyc, -instr/(cyc*cyc)
		want := math.Sqrt(gI*sigI*gI*sigI + gC*sigC*gC*sigC + 2*gI*sigI*gC*sigC*rho)
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("rho=%v: covariance-aware std = %g, hand-computed %g", rho, got, want)
		}
		if rho > 0 && got >= diag {
			t.Errorf("rho=%v: covariance-aware std %g not below diagonal %g", rho, got, diag)
		}
		if rho < 0 && got <= diag {
			t.Errorf("rho=%v: covariance-aware std %g not above diagonal %g", rho, got, diag)
		}
	}

	// nil corr — and a corr that always reports independence — reproduce
	// the diagonal propagation bit for bit.
	if got := d.PropagateStdCov(in, sd, nil); got != diag {
		t.Errorf("nil-corr covariance propagation %g != diagonal %g", got, diag)
	}
	if got := d.PropagateStdCov(in, sd, func(i, j int) float64 { return 0 }); got != diag {
		t.Errorf("zero-corr covariance propagation %g != diagonal %g", got, diag)
	}

	// Out-of-range correlations clamp to ±1 instead of breaking the
	// variance's positivity; the fully-cancelling direction floors at 0.
	if got := d.PropagateStdCov(in, sd, func(i, j int) float64 { return 99 }); math.IsNaN(got) || got < 0 {
		t.Errorf("clamped correlation produced std %v", got)
	}
	wantClamped := d.PropagateStdCov(in, sd, func(i, j int) float64 { return 1 })
	if got := d.PropagateStdCov(in, sd, func(i, j int) float64 { return 99 }); got != wantClamped {
		t.Errorf("rho=99 std %g != rho=1 std %g", got, wantClamped)
	}
	// NaN correlations are ignored (treated as uncoupled), never
	// propagated.
	if got := d.PropagateStdCov(in, sd, func(i, j int) float64 { return math.NaN() }); got != diag {
		t.Errorf("NaN-corr std %g != diagonal %g", got, diag)
	}
}

// TestDerivedZeroDenominator exercises every catalog formula's safeDiv
// guard: with an all-zero input vector the value is 0 and the propagated
// std stays finite and non-negative (the guard's discontinuity must not
// leak NaN/Inf through the gradient).
func TestDerivedZeroDenominator(t *testing.T) {
	for _, cat := range Catalogs() {
		zeros := make([]float64, cat.NumEvents())
		ones := make([]float64, cat.NumEvents())
		for i := range ones {
			ones[i] = 1
		}
		for di := range cat.Derived {
			d := &cat.Derived[di]
			if v := cat.EvalDerived(d, zeros); v != 0 {
				t.Errorf("%s/%s: Eval at zero vector = %v, want 0", cat.Arch, d.Name, v)
			}
			mean, std := d.PosteriorFrom(zeros, ones)
			if mean != 0 {
				t.Errorf("%s/%s: PosteriorFrom mean at zero vector = %v, want 0", cat.Arch, d.Name, mean)
			}
			if math.IsNaN(std) || math.IsInf(std, 0) || std < 0 {
				t.Errorf("%s/%s: PosteriorFrom std at zero vector = %v", cat.Arch, d.Name, std)
			}
		}
	}
}

// TestPosteriorFromGathersInputs checks the EventID→Inputs gathering of
// Derived.PosteriorFrom against a direct inputs-order computation.
func TestPosteriorFromGathersInputs(t *testing.T) {
	c := Power9()
	v := consistentPower9(c)
	stds := make([]float64, c.NumEvents())
	for i := range stds {
		stds[i] = 0.01 * math.Max(v[i], 1)
	}
	d := c.DerivedByName("DL1_MPKI")
	in := []float64{v[d.Inputs[0]], v[d.Inputs[1]]}
	sd := []float64{stds[d.Inputs[0]], stds[d.Inputs[1]]}
	mean, std := d.PosteriorFrom(v, stds)
	if mean != d.Eval(in) {
		t.Errorf("PosteriorFrom mean = %v, Eval = %v", mean, d.Eval(in))
	}
	if want := d.PropagateStd(in, sd); math.Abs(std-want) > 1e-15*want {
		t.Errorf("PosteriorFrom std = %v, PropagateStd = %v", std, want)
	}
	if std <= 0 {
		t.Errorf("PosteriorFrom std = %v, want > 0", std)
	}
}
