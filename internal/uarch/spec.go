// Catalogs as data: Spec is the JSON-serializable description of one CPU
// event catalog — events with counter-placement constraints, linear
// invariants, and derived metrics declared by expression kind — from which a
// full *Catalog is built without recompiling. The named registry below lets
// downstream layers (CLI -arch, sweeps) resolve catalogs by name, and new
// architectures ship as .json files loadable with LoadSpecFile (see
// examples/catalogs/zen.json).
package uarch

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sort"
	"sync"
)

// Spec is the data form of a Catalog. It round-trips through JSON, and
// Spec.Catalog reconstructs formulas from their declared kinds, so a
// spec-built catalog's inference behavior is bit-identical to one assembled
// by the Go builders.
type Spec struct {
	Arch          string         `json:"arch"`
	FixedCounters int            `json:"fixed_counters"`
	ProgCounters  int            `json:"prog_counters"`
	MSRs          int            `json:"msrs,omitempty"`
	Events        []EventSpec    `json:"events"`
	Relations     []RelationSpec `json:"relations,omitempty"`
	Derived       []DerivedSpec  `json:"derived,omitempty"`
}

// EventSpec describes one event. Counters lists the programmable counters
// able to host the event (empty = any); Slot is the fixed-counter index for
// fixed events. Model is the event's ground-truth semantics as a linear
// combination of machine primitives (see Event.Model).
type EventSpec struct {
	Name     string             `json:"name"`
	Fixed    bool               `json:"fixed,omitempty"`
	Slot     int                `json:"slot,omitempty"`
	Counters []int              `json:"counters,omitempty"`
	NeedsMSR bool               `json:"needs_msr,omitempty"`
	Model    map[string]float64 `json:"model,omitempty"`
	Desc     string             `json:"desc,omitempty"`
}

// TermSpec is one addend of a relation, referencing its event by name.
type TermSpec struct {
	Event string  `json:"event"`
	Coeff float64 `json:"coeff"`
}

// RelationSpec is a linear invariant Σ coeff·event ≈ 0.
type RelationSpec struct {
	Name   string     `json:"name"`
	RelTol float64    `json:"rel_tol"`
	Terms  []TermSpec `json:"terms"`
	Desc   string     `json:"desc,omitempty"`
}

// DerivedSpec declares a derived metric by expression kind: KindRatio
// (scale·inputs[0]/inputs[1], default scale 1) or KindLinearRatio
// (Σ num[i]·inputs[i] / Σ den[i]·inputs[i]).
type DerivedSpec struct {
	Name   string    `json:"name"`
	Kind   string    `json:"kind"`
	Inputs []string  `json:"inputs"`
	Scale  float64   `json:"scale,omitempty"`
	Num    []float64 `json:"num,omitempty"`
	Den    []float64 `json:"den,omitempty"`
	Desc   string    `json:"desc,omitempty"`
}

// Catalog builds and validates the full catalog the spec describes.
func (s Spec) Catalog() (*Catalog, error) {
	c := newCatalog(s.Arch, s.FixedCounters, s.ProgCounters, s.MSRs)
	for _, e := range s.Events {
		if _, dup := c.byName[e.Name]; dup {
			return nil, fmt.Errorf("uarch: spec %s: duplicate event %q", s.Arch, e.Name)
		}
		// Reject fixed/programmable field mixups instead of silently
		// dropping the inapplicable knob (the spec-level cousin of
		// LoadSpec's DisallowUnknownFields).
		if !e.Fixed && e.Slot != 0 {
			return nil, fmt.Errorf("uarch: spec %s: event %s declares slot %d but is not fixed (forgot \"fixed\": true?)", s.Arch, e.Name, e.Slot)
		}
		if e.Fixed && len(e.Counters) > 0 {
			return nil, fmt.Errorf("uarch: spec %s: fixed event %s cannot declare programmable counters", s.Arch, e.Name)
		}
		ev := Event{
			Name:       e.Name,
			Fixed:      e.Fixed,
			FixedIndex: e.Slot,
			NeedsMSR:   e.NeedsMSR,
			Desc:       e.Desc,
		}
		if len(e.Model) > 0 {
			ev.Model = make(map[string]float64, len(e.Model))
			for k, v := range e.Model {
				ev.Model[k] = v
			}
		}
		if !e.Fixed {
			if len(e.Counters) == 0 {
				ev.CounterMask = anyCtr(s.ProgCounters)
			} else {
				for _, ctr := range e.Counters {
					if ctr < 0 || ctr >= bits.UintSize-1 {
						return nil, fmt.Errorf("uarch: spec %s: event %s counter %d out of range", s.Arch, e.Name, ctr)
					}
					ev.CounterMask |= oneCtr(ctr)
				}
			}
		}
		c.addEvent(ev)
	}
	for _, r := range s.Relations {
		rel := Relation{Name: r.Name, RelTol: r.RelTol, Desc: r.Desc}
		for _, t := range r.Terms {
			id := c.Lookup(t.Event)
			if id == InvalidEvent {
				return nil, fmt.Errorf("uarch: spec %s: relation %s references unknown event %q", s.Arch, r.Name, t.Event)
			}
			rel.Terms = append(rel.Terms, Term{Event: id, Coeff: t.Coeff})
		}
		c.Rels = append(c.Rels, rel)
	}
	for _, d := range s.Derived {
		inputs := make([]EventID, len(d.Inputs))
		for i, name := range d.Inputs {
			id := c.Lookup(name)
			if id == InvalidEvent {
				return nil, fmt.Errorf("uarch: spec %s: derived %s references unknown event %q", s.Arch, d.Name, name)
			}
			inputs[i] = id
		}
		switch d.Kind {
		case KindRatio:
			if len(inputs) != 2 {
				return nil, fmt.Errorf("uarch: spec %s: ratio derived %s needs 2 inputs, has %d", s.Arch, d.Name, len(inputs))
			}
			scale := d.Scale
			if scale == 0 { //bayesvet:bitwise exact zero means scale omitted in JSON; default to 1
				scale = 1
			}
			c.Derived = append(c.Derived, newRatioDerived(d.Name, d.Desc, inputs[0], inputs[1], scale))
		case KindLinearRatio:
			if len(d.Num) != len(inputs) || len(d.Den) != len(inputs) {
				return nil, fmt.Errorf("uarch: spec %s: linear_ratio derived %s coefficient lengths %d/%d do not match %d inputs",
					s.Arch, d.Name, len(d.Num), len(d.Den), len(inputs))
			}
			c.Derived = append(c.Derived, newLinearRatioDerived(d.Name, d.Desc, inputs, d.Num, d.Den))
		default:
			return nil, fmt.Errorf("uarch: spec %s: derived %s has unknown kind %q", s.Arch, d.Name, d.Kind)
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// MustCatalog is Catalog for known-good specs (the registry's built-ins),
// panicking on error.
func (s Spec) MustCatalog() *Catalog {
	c, err := s.Catalog()
	if err != nil {
		panic(err)
	}
	return c
}

// Spec converts the catalog back to its data form. Every derived formula is
// data, so the conversion cannot fail; the error result is always nil.
func (c *Catalog) Spec() (Spec, error) {
	s := Spec{
		Arch:          c.Arch,
		FixedCounters: c.NumFixed,
		ProgCounters:  c.NumProg,
		MSRs:          c.NumMSR,
	}
	full := anyCtr(c.NumProg)
	for _, e := range c.Events {
		es := EventSpec{Name: e.Name, Desc: e.Desc, NeedsMSR: e.NeedsMSR}
		if e.Fixed {
			es.Fixed = true
			es.Slot = e.FixedIndex
		} else if e.CounterMask != full {
			for i := 0; i < c.NumProg; i++ {
				if e.CounterMask&oneCtr(i) != 0 {
					es.Counters = append(es.Counters, i)
				}
			}
		}
		if len(e.Model) > 0 {
			es.Model = make(map[string]float64, len(e.Model))
			for k, v := range e.Model {
				es.Model[k] = v
			}
		}
		s.Events = append(s.Events, es)
	}
	for _, r := range c.Rels {
		rs := RelationSpec{Name: r.Name, RelTol: r.RelTol, Desc: r.Desc}
		for _, t := range r.Terms {
			rs.Terms = append(rs.Terms, TermSpec{Event: c.Event(t.Event).Name, Coeff: t.Coeff})
		}
		s.Relations = append(s.Relations, rs)
	}
	for i := range c.Derived {
		d := &c.Derived[i]
		ds := DerivedSpec{Name: d.Name, Kind: d.Kind, Scale: d.Scale, Desc: d.Desc}
		if d.Kind == KindRatio && ds.Scale == 1 { //bayesvet:bitwise scale 1 is the canonical no-op, stored exactly; omit from JSON
			ds.Scale = 0 // omitted in JSON; Catalog() defaults it back to 1
		}
		ds.Num = append([]float64(nil), d.Num...)
		ds.Den = append([]float64(nil), d.Den...)
		for _, id := range d.Inputs {
			ds.Inputs = append(ds.Inputs, c.Event(id).Name)
		}
		s.Derived = append(s.Derived, ds)
	}
	return s, nil
}

// LoadSpec decodes a catalog spec from JSON. Unknown fields are rejected so
// schema typos surface as errors rather than silently-ignored knobs.
func LoadSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("uarch: decoding catalog spec: %w", err)
	}
	return s, nil
}

// LoadSpecFile reads a catalog spec from a JSON file.
func LoadSpecFile(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	s, err := LoadSpec(f)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Save writes the spec as indented JSON, the inverse of LoadSpec.
func (s Spec) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// clone deep-copies the spec (slices and model maps), so registry entries
// and lookups never share mutable state with callers.
func (s Spec) clone() Spec {
	out := s
	out.Events = append([]EventSpec(nil), s.Events...)
	for i := range out.Events {
		if m := out.Events[i].Model; m != nil {
			cp := make(map[string]float64, len(m))
			for k, v := range m {
				cp[k] = v
			}
			out.Events[i].Model = cp
		}
		out.Events[i].Counters = append([]int(nil), out.Events[i].Counters...)
	}
	out.Relations = append([]RelationSpec(nil), s.Relations...)
	for i := range out.Relations {
		out.Relations[i].Terms = append([]TermSpec(nil), out.Relations[i].Terms...)
	}
	out.Derived = append([]DerivedSpec(nil), s.Derived...)
	for i := range out.Derived {
		out.Derived[i].Inputs = append([]string(nil), out.Derived[i].Inputs...)
		out.Derived[i].Num = append([]float64(nil), out.Derived[i].Num...)
		out.Derived[i].Den = append([]float64(nil), out.Derived[i].Den...)
	}
	return out
}

// The named catalog registry: built-in architectures register their specs at
// init, and embedders can Register their own. All operations are safe for
// concurrent use; specs are deep-copied on the way in and out, so mutating
// a registered or looked-up spec never corrupts the registry.
var registry = struct {
	mu sync.RWMutex
	m  map[string]Spec
}{m: make(map[string]Spec)}

// Register adds a named spec to the registry. Names must be unique and the
// spec must build a valid catalog.
func Register(name string, s Spec) error {
	if name == "" {
		return fmt.Errorf("uarch: Register with empty name")
	}
	if _, err := s.Catalog(); err != nil {
		return fmt.Errorf("uarch: Register(%q): %w", name, err)
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.m[name]; dup {
		return fmt.Errorf("uarch: Register(%q): name already registered", name)
	}
	registry.m[name] = s.clone()
	return nil
}

// MustRegister is Register panicking on error, for init-time seeding.
func MustRegister(name string, s Spec) {
	if err := Register(name, s); err != nil {
		panic(err)
	}
}

// Lookup returns the named spec (a private copy — mutating it does not
// affect the registry).
func Lookup(name string) (Spec, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	s, ok := registry.m[name]
	if !ok {
		return Spec{}, false
	}
	return s.clone(), true
}

// Names returns every registered catalog name, sorted.
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]string, 0, len(registry.m))
	for name := range registry.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
