package stats

import (
	"encoding/binary"
	"math"
	"testing"
)

// floatsOf decodes data as little-endian float64s (a trailing partial word
// is ignored).
func floatsOf(data []byte) []float64 {
	xs := make([]float64, len(data)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return xs
}

// bytesOf encodes xs as little-endian float64s.
func bytesOf(xs ...float64) []byte {
	data := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(x))
	}
	return data
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzGumbelFilterMax feeds arbitrary samples and quantiles to
// GumbelThreshold.FilterMax. It must not panic; every reading is either
// kept or counted as rejected; the kept readings are the input's
// survivors in input order: every non-NaN reading when the threshold test
// rejects none (or all) of them, else exactly those at or below the
// threshold fitted to the NaN-free sample. The result must not depend on
// whether the survivors go to a nil buffer, a separate buffer or a buffer
// aliasing the input, and only the aliasing call may modify the input.
// The seed corpus, built here, runs with every go test.
func FuzzGumbelFilterMax(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	samples := [][]float64{
		{5, 5, 5, 5, 5, 5},
		{1, 2, nan, 3, 4, 5},
		{1, 2, 3, inf, 4, 5},
		{1, -inf, 2, 3, 4, inf},
		{10, 11, 9, 10, 12, 1e300, 10, 11},
		{10, 11, 9, 10, 12, 80, 10, 11, nan},
		{1, 2, 3},
		{nan, nan},
		{},
	}
	for _, xs := range samples {
		for _, q := range []float64{0, 0.5, 0.99, 1, nan} {
			f.Add(bytesOf(xs...), q)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		xs := floatsOf(data)
		thr := NewGumbelThreshold(q)

		var clean []float64
		for _, x := range xs {
			if !math.IsNaN(x) {
				clean = append(clean, x)
			}
		}
		want := clean
		if len(clean) >= 4 {
			mu, beta := GumbelFitMoments(clean)
			cut := thr.Quantile(mu, beta)
			var below []float64
			for _, x := range clean {
				if x <= cut {
					below = append(below, x)
				}
			}
			if beta > 0 && len(below) > 0 && len(below) < len(clean) {
				want = below
			}
		}

		in := append([]float64(nil), xs...)
		kept, rejected := thr.FilterMax(in, nil)
		if !sameBits(in, xs) {
			t.Fatalf("FilterMax(xs, nil) modified xs: %v became %v", xs, in)
		}
		if len(kept)+rejected != len(xs) {
			t.Fatalf("q=%v xs=%v: kept %d + rejected %d != %d readings", q, xs, len(kept), rejected, len(xs))
		}
		if !sameBits(kept, want) {
			t.Fatalf("q=%v xs=%v: kept %v, want %v", q, xs, kept, want)
		}

		in = append([]float64(nil), xs...)
		sep, sepRejected := thr.FilterMax(in, make([]float64, 0, len(xs)))
		if !sameBits(in, xs) {
			t.Fatalf("FilterMax(xs, buf) modified xs: %v became %v", xs, in)
		}
		alias, aliasRejected := thr.FilterMax(in, in[:0])
		for _, r := range []struct {
			name     string
			kept     []float64
			rejected int
		}{{"a separate buffer", sep, sepRejected}, {"an aliasing buffer", alias, aliasRejected}} {
			if r.rejected != rejected || !sameBits(r.kept, kept) {
				t.Fatalf("q=%v xs=%v: with %s kept %v (rejected %d), with nil %v (rejected %d)",
					q, xs, r.name, r.kept, r.rejected, kept, rejected)
			}
		}
	})
}
