//go:build amd64 && !amd64.v2

package stream

import (
	"math"
	"testing"

	"bayesperf/internal/uarch"
)

// goldenHashes pins the FNV-64a hash of every Result output (see
// hashResult) per catalog/shape.
var goldenHashes = map[string]uint64{
	"skylake/short":                0xa50b7f5752984b81,
	"skylake/default":              0xad8279887f228a14,
	"skylake/tumbling":             0x9ed1c30b0de245a3,
	"skylake/hop1-wide":            0xb663eff5d0596fb7,
	"skylake/late-cov":             0x6ec03be829ef1e3d,
	"skylake/gumbel-inf-cov":       0xb5e2242ccfa06a7a,
	"skylake/adaptive":             0x04013af91b56763c,
	"skylake/long":                 0x965b218eb37f4534,
	"skylake/adaptive-mixed":       0x04013af91b56763c,
	"skylake/late-pool":            0x73934d6ffdae5068,
	"power9/short":                 0x381ee4ecdf7301fb,
	"power9/default":               0x7df3f01640c7a833,
	"power9/tumbling":              0x88b669c3a45b1aec,
	"power9/hop1-wide":             0xc559e565729ce7fa,
	"power9/late-cov":              0x55a6d880eb20f6af,
	"power9/gumbel-inf-cov":        0x383e86c949abb02f,
	"power9/adaptive":              0x82b8a39fbaede641,
	"power9/long":                  0xf5067fc44a9c4352,
	"power9/adaptive-mixed":        0x82b8a39fbaede641,
	"power9/late-pool":             0x89be3d4e0b2df859,
	"zen.json/short":               0xc5816b5b5571f153,
	"zen.json/default":             0x24e098fa95c7b5cb,
	"zen.json/tumbling":            0x7b78788f31a5e71f,
	"zen.json/hop1-wide":           0x070bbced8f88db6f,
	"zen.json/late-cov":            0x7fe029d19033b487,
	"zen.json/gumbel-inf-cov":      0xb1acdb6574a0a0d2,
	"zen.json/adaptive":            0x2b4ac042489a04ee,
	"zen.json/long":                0x568fca9f3d2fa235,
	"zen.json/adaptive-mixed":      0x2b4ac042489a04ee,
	"zen.json/late-pool":           0xbbb9afb59f4fcf75,
	"neoverse.json/short":          0xa0a657d82f4e206d,
	"neoverse.json/default":        0x1f3211b996aaf669,
	"neoverse.json/tumbling":       0xa94177f248845187,
	"neoverse.json/hop1-wide":      0x4365de84202514b0,
	"neoverse.json/late-cov":       0xa84f3f4fecf1b175,
	"neoverse.json/gumbel-inf-cov": 0xa3e0cdd1ef95d054,
	"neoverse.json/adaptive":       0x14dc6baca3606599,
	"neoverse.json/long":           0xa37561f910e5b40e,
	"neoverse.json/adaptive-mixed": 0x14dc6baca3606599,
	"neoverse.json/late-pool":      0xac94d838e1c31721,
}

// TestStreamOutputGolden pins the engine's output bit for bit across
// refactors: every Result series (derived ones included), Windows,
// Intervals and PostRelStd are hashed per configuration and compared with
// the recorded table. Determinism tests compare runs of one build with each
// other and cannot see a change that moves every run the same way; this
// one can. The build tag keeps it to amd64 at the default GOAMD64 level,
// where the compiler never fuses multiply-adds.
//
// When a change alters the output on purpose, regenerate the table: run
//
//	go test ./internal/stream -run TestStreamOutputGolden -v
//
// and replace goldenHashes with the logged entries, then say in the change
// description why the output moved.
func TestStreamOutputGolden(t *testing.T) {
	for _, catName := range testCatalogs {
		cat := testCatalog(t, catName)
		for _, sh := range goldenShapes {
			key := catName + "/" + sh.name
			h := hashResult(runGolden(cat, sh))
			t.Logf("%q: %#016x,", key, h)
			want, ok := goldenHashes[key]
			if !ok {
				t.Errorf("%s: no recorded hash (got %#016x)", key, h)
				continue
			}
			if h != want {
				t.Errorf("%s: output hash %#016x, recorded %#016x", key, h, want)
			}
		}
	}
}

// TestDerivedStdMatchesReference recomputes every DerivedCorrectedStd of
// the golden matrix's non-covariance shapes from the Result's stitched
// Corrected and CorrectedStd series, independently of the engine's
// per-kind loops: the delta method (uarch.DeltaStd) over the reference
// ratio gradient (k/b, −k·a/(b·b)), and over a central difference for
// linear ratios. Ratio stds must match bit for bit; a linear ratio's exact
// gradient must agree with the central difference within 1e-6 relative.
// Every derived value must equal Eval at the stitched means bit for bit.
func TestDerivedStdMatchesReference(t *testing.T) {
	for _, catName := range testCatalogs {
		cat := testCatalog(t, catName)
		worst := 0.0
		for _, sh := range goldenShapes {
			if sh.cov {
				continue
			}
			res := runGolden(cat, sh)
			for di := range cat.Derived {
				d := &cat.Derived[di]
				in, sd := make([]float64, len(d.Inputs)), make([]float64, len(d.Inputs))
				for ti := 0; ti < res.Intervals; ti++ {
					for i, id := range d.Inputs {
						in[i], sd[i] = res.Corrected[id][ti], res.CorrectedStd[id][ti]
					}
					if got, want := res.DerivedCorrected[di][ti], d.Eval(in); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s/%s/%s interval %d: value %v, Eval %v", catName, sh.name, d.Name, ti, got, want)
					}
					got := res.DerivedCorrectedStd[di][ti]
					switch d.Kind {
					case uarch.KindRatio:
						k, a, b := d.Scale, in[0], in[1]
						g := []float64{0, 0}
						if b != 0 { //bayesvet:bitwise reference of the exact-zero denominator guard
							g = []float64{k / b, -k * a / (b * b)}
						}
						if want := uarch.DeltaStd(g, sd, nil); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s/%s/%s interval %d: std %v, reference %v", catName, sh.name, d.Name, ti, got, want)
						}
					case uarch.KindLinearRatio:
						want := uarch.DeltaStd(centralDifference(d, in), sd, nil)
						rel := math.Abs(got-want) / math.Abs(want)
						if got == want { //bayesvet:bitwise equal stds, zeros included, differ by nothing
							rel = 0
						}
						if !(rel <= 1e-6) {
							t.Fatalf("%s/%s/%s interval %d: std %v, central-difference reference %v", catName, sh.name, d.Name, ti, got, want)
						}
						worst = max(worst, rel)
					default:
						t.Fatalf("%s: unknown kind %q", d.Name, d.Kind)
					}
				}
			}
		}
		t.Logf("%s: largest linear-ratio std difference from the central difference: %.3g relative", catName, worst)
	}
}

// centralDifference is the gradient of d's Eval at in by a central finite
// difference with the per-coordinate step h = 1e-6·max(|inᵢ|, 1).
func centralDifference(d *uarch.Derived, in []float64) []float64 {
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
