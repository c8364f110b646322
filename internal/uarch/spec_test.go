package uarch_test

// External test package: the spec round-trip assertions need internal/graph
// and internal/measure, which themselves import uarch.

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bayesperf/internal/graph"
	"bayesperf/internal/measure"
	"bayesperf/internal/rng"
	"bayesperf/internal/uarch"
)

// roundTrip converts a builder catalog to its spec, through JSON bytes, and
// back to a catalog.
func roundTrip(t *testing.T, cat *uarch.Catalog) (uarch.Spec, *uarch.Catalog) {
	t.Helper()
	spec, err := cat.Spec()
	if err != nil {
		t.Fatalf("%s: Spec: %v", cat.Arch, err)
	}
	var buf bytes.Buffer
	if err := spec.Save(&buf); err != nil {
		t.Fatalf("%s: Save: %v", cat.Arch, err)
	}
	loaded, err := uarch.LoadSpec(&buf)
	if err != nil {
		t.Fatalf("%s: LoadSpec: %v", cat.Arch, err)
	}
	if !reflect.DeepEqual(spec, loaded) {
		t.Fatalf("%s: spec did not survive the JSON round trip:\nbefore %+v\nafter  %+v", cat.Arch, spec, loaded)
	}
	rebuilt, err := loaded.Catalog()
	if err != nil {
		t.Fatalf("%s: Catalog from loaded spec: %v", cat.Arch, err)
	}
	if err := rebuilt.Validate(); err != nil {
		t.Fatalf("%s: rebuilt catalog invalid: %v", cat.Arch, err)
	}
	return loaded, rebuilt
}

// TestSpecRoundTripShape: builder → Spec → JSON → LoadSpec preserves the
// catalog structure exactly (events, masks, relations, derived metadata).
func TestSpecRoundTripShape(t *testing.T) {
	for _, cat := range uarch.Catalogs() {
		_, rebuilt := roundTrip(t, cat)
		if rebuilt.Arch != cat.Arch || rebuilt.NumEvents() != cat.NumEvents() ||
			rebuilt.NumFixed != cat.NumFixed || rebuilt.NumProg != cat.NumProg || rebuilt.NumMSR != cat.NumMSR {
			t.Fatalf("%s: rebuilt catalog shape differs", cat.Arch)
		}
		for id, want := range cat.Events {
			got := rebuilt.Event(uarch.EventID(id))
			if got.Name != want.Name || got.Fixed != want.Fixed ||
				got.FixedIndex != want.FixedIndex || got.CounterMask != want.CounterMask ||
				got.NeedsMSR != want.NeedsMSR || !reflect.DeepEqual(got.Model, want.Model) {
				t.Errorf("%s: event %s differs after round trip: %+v vs %+v", cat.Arch, want.Name, got, want)
			}
		}
		if !reflect.DeepEqual(rebuilt.Rels, cat.Rels) {
			t.Errorf("%s: relations differ after round trip", cat.Arch)
		}
		if len(rebuilt.Derived) != len(cat.Derived) {
			t.Fatalf("%s: %d derived after round trip, want %d", cat.Arch, len(rebuilt.Derived), len(cat.Derived))
		}
		for i := range cat.Derived {
			want, got := &cat.Derived[i], &rebuilt.Derived[i]
			if got.Name != want.Name || got.Kind != want.Kind || got.Scale != want.Scale ||
				!reflect.DeepEqual(got.Inputs, want.Inputs) ||
				!reflect.DeepEqual(got.Num, want.Num) || !reflect.DeepEqual(got.Den, want.Den) {
				t.Errorf("%s: derived %s metadata differs after round trip", cat.Arch, want.Name)
			}
		}
	}
}

// TestSpecRoundTripGroundTruth: the spec-loaded catalog produces the exact
// ground-truth trace of the builder catalog (bit-identical model
// evaluation), with zero invariant residuals on the truth vector.
func TestSpecRoundTripGroundTruth(t *testing.T) {
	for _, cat := range uarch.Catalogs() {
		_, rebuilt := roundTrip(t, cat)
		wl := measure.DefaultWorkload(40)
		trA := measure.GroundTruth(cat, wl, rng.New(9))
		trB := measure.GroundTruth(rebuilt, wl, rng.New(9))
		for id := range trA.Series {
			for ti := range trA.Series[id] {
				if trA.Series[id][ti] != trB.Series[id][ti] {
					t.Fatalf("%s: event %d interval %d: builder %v vs spec %v",
						cat.Arch, id, ti, trA.Series[id][ti], trB.Series[id][ti])
				}
			}
		}
		totals := trB.Totals()
		for _, rel := range rebuilt.Rels {
			if res := math.Abs(rel.Residual(totals)); res > 1e-6*rel.Magnitude(totals) {
				t.Errorf("%s: relation %s residual %g on spec-built truth totals", cat.Arch, rel.Name, res)
			}
		}
	}
}

// TestSpecRoundTripPosteriorsBitIdentical is the acceptance criterion: the
// builder-based and spec-loaded catalogs produce bit-identical graph.Infer
// posteriors for the same observations, and bit-identical derived
// posteriors through the reconstructed formulas.
func TestSpecRoundTripPosteriorsBitIdentical(t *testing.T) {
	for _, cat := range uarch.Catalogs() {
		_, rebuilt := roundTrip(t, cat)
		r := rng.New(7)
		tr := measure.GroundTruth(cat, measure.DefaultWorkload(60), r.Split())
		mux := measure.Multiplex(tr, measure.DefaultMuxConfig(), r.Split())

		infer := func(c *uarch.Catalog) graph.Result {
			g := graph.Build(c)
			for id, est := range mux.Est {
				if est.N > 0 {
					g.Observe(uarch.EventID(id), est.Total, est.Std)
				}
			}
			return g.Infer(500, 1e-9)
		}
		postA, postB := infer(cat), infer(rebuilt)
		if postA.Iters != postB.Iters || postA.Converged != postB.Converged {
			t.Fatalf("%s: inference trajectory differs: %d/%v vs %d/%v",
				cat.Arch, postA.Iters, postA.Converged, postB.Iters, postB.Converged)
		}
		for id := range postA.Mean {
			if postA.Mean[id] != postB.Mean[id] || postA.Std[id] != postB.Std[id] {
				t.Fatalf("%s: event %d posterior differs: %v±%v vs %v±%v", cat.Arch, id,
					postA.Mean[id], postA.Std[id], postB.Mean[id], postB.Std[id])
			}
		}
		for i := range cat.Derived {
			mA, sA := postA.DerivedPosterior(&cat.Derived[i])
			mB, sB := postB.DerivedPosterior(&rebuilt.Derived[i])
			if mA != mB || sA != sB {
				t.Fatalf("%s: derived %s posterior differs: %v±%v vs %v±%v",
					cat.Arch, cat.Derived[i].Name, mA, sA, mB, sB)
			}
		}
	}
}

// malformedSpecs are single edits of the Skylake spec that Catalog must
// reject, each with a phrase its error must contain.
var malformedSpecs = []struct {
	name   string
	mutate func(*uarch.Spec)
	want   string
}{
	{"unknown relation event", func(s *uarch.Spec) {
		s.Relations[0].Terms[0].Event = "NO_SUCH_EVENT"
	}, "unknown event"},
	{"unknown derived input", func(s *uarch.Spec) {
		s.Derived[0].Inputs[0] = "NO_SUCH_EVENT"
	}, "unknown event"},
	{"unknown derived kind", func(s *uarch.Spec) {
		s.Derived[0].Kind = "polynomial"
	}, "unknown kind"},
	{"ratio arity", func(s *uarch.Spec) {
		s.Derived[0].Inputs = append(s.Derived[0].Inputs, s.Events[0].Name)
	}, "needs 2 inputs"},
	{"linear_ratio coefficient lengths", func(s *uarch.Spec) {
		for i := range s.Derived {
			if s.Derived[i].Kind == uarch.KindLinearRatio {
				s.Derived[i].Num = s.Derived[i].Num[:1]
			}
		}
	}, "do not match"},
	{"duplicate event", func(s *uarch.Spec) {
		s.Events = append(s.Events, s.Events[3])
	}, "duplicate event"},
	{"counter out of mask range", func(s *uarch.Spec) {
		s.Events[3].Counters = []int{99}
	}, "out of range"},
	{"counter beyond the catalog's counters", func(s *uarch.Spec) {
		s.Events[3].Counters = []int{5}
	}, "exceeds"},
	{"invalid relation tolerance", func(s *uarch.Spec) {
		s.Relations[0].RelTol = 0
	}, "non-positive tolerance"},
	{"slot on a programmable event", func(s *uarch.Spec) {
		s.Events[3].Slot = 1 // forgot "fixed": true
	}, "not fixed"},
	{"counters on a fixed event", func(s *uarch.Spec) {
		s.Events[0].Counters = []int{0}
	}, "cannot declare programmable counters"},
}

// skylakeSpec is the Skylake builder catalog's spec.
func skylakeSpec(tb testing.TB) uarch.Spec {
	tb.Helper()
	s, err := uarch.Skylake().Spec()
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestSpecCatalogErrors: malformed specs fail with descriptive errors
// instead of building broken catalogs.
func TestSpecCatalogErrors(t *testing.T) {
	for _, tc := range malformedSpecs {
		t.Run(tc.name, func(t *testing.T) {
			s := skylakeSpec(t)
			tc.mutate(&s)
			_, err := s.Catalog()
			if err == nil {
				t.Fatalf("spec with %s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLoadSpecRejectsUnknownFields: schema typos in a JSON spec surface as
// decode errors, not silently ignored knobs.
func TestLoadSpecRejectsUnknownFields(t *testing.T) {
	_, err := uarch.LoadSpec(strings.NewReader(`{"arch":"x","prog_counterz":4}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestRegistry: the built-ins are registered under their short names, and
// Register rejects duplicates, empty names, and invalid specs.
func TestRegistry(t *testing.T) {
	names := uarch.Names()
	for _, want := range []string{"power9", "skylake"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry names %v missing %q", names, want)
		}
	}
	spec, ok := uarch.Lookup("skylake")
	if !ok {
		t.Fatal("Lookup(skylake) failed")
	}
	if spec.Arch != "x86_64-skylake" {
		t.Errorf("skylake spec arch = %q", spec.Arch)
	}
	if _, ok := uarch.Lookup("no-such-arch"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
	if err := uarch.Register("skylake", spec); err == nil {
		t.Error("duplicate Register accepted")
	}
	if err := uarch.Register("", spec); err == nil {
		t.Error("empty-name Register accepted")
	}
	bad := spec
	bad.Relations = append([]uarch.RelationSpec(nil), bad.Relations...)
	bad.Relations[0].RelTol = -1
	if err := uarch.Register("bad-spec", bad); err == nil {
		t.Error("invalid-spec Register accepted")
	}
}

// TestLookupReturnsCopy: mutating a looked-up spec (slices and model maps)
// must not corrupt the registry for later users.
func TestLookupReturnsCopy(t *testing.T) {
	spec, ok := uarch.Lookup("skylake")
	if !ok {
		t.Fatal("Lookup(skylake) failed")
	}
	spec.Events[0].Model["inst"] = 999
	spec.Relations[0].RelTol = -1
	spec.Derived[0].Inputs[0] = "CORRUPTED"

	again, _ := uarch.Lookup("skylake")
	if again.Events[0].Model["inst"] == 999 || again.Relations[0].RelTol == -1 ||
		again.Derived[0].Inputs[0] == "CORRUPTED" {
		t.Fatal("mutating a looked-up spec corrupted the registry")
	}
	if _, err := again.Catalog(); err != nil {
		t.Fatalf("registry spec no longer builds: %v", err)
	}
}

// TestGroundTruthPanicsOnUnknownPrimitive: a typo'd primitive in an event
// model fails loudly at simulation time instead of silently producing a
// zero series (the canonical-order walk would otherwise just skip it).
func TestGroundTruthPanicsOnUnknownPrimitive(t *testing.T) {
	spec, _ := uarch.Lookup("skylake")
	spec.Events[0].Model = map[string]float64{"l1hit": 1} // typo for l1_hit
	cat, err := spec.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("GroundTruth accepted an unknown primitive silently")
		}
		if !strings.Contains(r.(string), "l1hit") {
			t.Errorf("panic %v does not name the unknown primitive", r)
		}
	}()
	measure.GroundTruth(cat, measure.DefaultWorkload(2), rng.New(1))
}

// TestValidateModels: every built-in catalog's events carry complete models
// over known primitives, and the check catches both failure modes.
func TestValidateModels(t *testing.T) {
	for _, cat := range uarch.Catalogs() {
		if err := measure.ValidateModels(cat); err != nil {
			t.Errorf("%s: %v", cat.Arch, err)
		}
	}
	spec, _ := uarch.Lookup("skylake")
	spec.Events = append([]uarch.EventSpec(nil), spec.Events...)

	noModel := spec
	noModel.Events[0].Model = nil
	cat, err := noModel.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if err := measure.ValidateModels(cat); err == nil || !strings.Contains(err.Error(), "no ground-truth model") {
		t.Errorf("model-less event not caught: %v", err)
	}

	badPrim := spec
	badPrim.Events[0].Model = map[string]float64{"flux_capacitance": 1}
	cat, err = badPrim.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if err := measure.ValidateModels(cat); err == nil || !strings.Contains(err.Error(), "unknown primitive") {
		t.Errorf("unknown primitive not caught: %v", err)
	}
}

// TestValidateModelsErrorIsDeterministic: with several unknown primitives in
// one model, the error must list all of them in sorted order rather than
// naming whichever one map iteration yields first (found by bayesvet's
// maporder rule).
func TestValidateModelsErrorIsDeterministic(t *testing.T) {
	spec, _ := uarch.Lookup("skylake")
	spec.Events = append([]uarch.EventSpec(nil), spec.Events...)
	spec.Events[0].Model = map[string]float64{
		"zeta_flux": 1, "alpha_flux": 1, "mid_flux": 1,
	}
	cat, err := spec.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	first := measure.ValidateModels(cat)
	if first == nil {
		t.Fatal("unknown primitives not caught")
	}
	if !strings.Contains(first.Error(), `"alpha_flux" "mid_flux" "zeta_flux"`) {
		t.Errorf("error does not list the unknown primitives in sorted order: %v", first)
	}
	for i := 0; i < 10; i++ {
		if err := measure.ValidateModels(cat); err.Error() != first.Error() {
			t.Fatalf("error message is nondeterministic:\n%v\n%v", first, err)
		}
	}
}

// registryRuns numbers the runs of TestRegistryConcurrentAccess.
var registryRuns atomic.Int64

// TestRegistryConcurrentAccess is the regression test for the registry's
// locking: it used to embed sync.RWMutex in the (copyable) registry struct.
// The lock is now a named field, and go vet's copylocks check flags any
// copy of the struct. Hammering Register/Lookup/Names concurrently keeps the
// discipline honest under -race. Each run registers fresh names, since the
// registry outlives a run under -count.
func TestRegistryConcurrentAccess(t *testing.T) {
	base, ok := uarch.Lookup("skylake")
	if !ok {
		t.Fatal("Lookup(skylake) failed")
	}
	run := registryRuns.Add(1)
	var wg sync.WaitGroup
	wg.Add(8)
	for i := 0; i < 8; i++ {
		i := i
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("concurrent-%d-%d", run, i)
			if err := uarch.Register(name, base); err != nil {
				t.Errorf("Register(%s): %v", name, err)
			}
			for j := 0; j < 50; j++ {
				if _, ok := uarch.Lookup(name); !ok {
					t.Errorf("Lookup(%s) lost a registered spec", name)
					return
				}
				uarch.Names()
			}
		}()
	}
	wg.Wait()
}
