package timeseries

import (
	"math"
	"testing"
	"testing/quick"

	"bayesperf/internal/rng"
)

func TestSeriesBasics(t *testing.T) {
	s := Series{1, 2, 3, 4}
	if s.Sum() != 10 || s.Mean() != 2.5 {
		t.Errorf("sum/mean = %v/%v", s.Sum(), s.Mean())
	}
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Error("Clone aliased the backing array")
	}
	s.Scale(2)
	if s[3] != 8 {
		t.Errorf("Scale: %v", s)
	}
	if (Series{}).Mean() != 0 {
		t.Error("empty mean must be 0")
	}
}

func TestDownsample(t *testing.T) {
	s := Series{1, 1, 2, 2, 3}
	got := s.Downsample(2)
	want := Series{2, 4, 3}
	if len(got) != len(want) {
		t.Fatalf("downsample len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("downsample[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// width 1 is a copy
	d1 := s.Downsample(1)
	d1[0] = 42
	if s[0] == 42 {
		t.Error("Downsample(1) aliased input")
	}
}

func TestDTWIdenticalIsZero(t *testing.T) {
	s := Series{1, 5, 2, 8, 3}
	cost, path, err := DTW(s, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Errorf("self-DTW cost = %v, want 0", cost)
	}
	// Diagonal path.
	if len(path) != len(s) {
		t.Errorf("self path length = %d", len(path))
	}
	for _, p := range path {
		if p.I != p.J {
			t.Errorf("self path should be diagonal, got %v", p)
		}
	}
}

func TestDTWShiftInvariance(t *testing.T) {
	// A time-shifted copy of a spiky series should align with near-zero
	// cost — this is exactly why the paper uses DTW rather than pointwise
	// comparison of asynchronous traces.
	base := Series{0, 0, 10, 0, 0, 0, 7, 0, 0}
	shifted := Series{0, 0, 0, 10, 0, 0, 0, 7, 0}
	costDTW, _, err := DTW(base, shifted, 0)
	if err != nil {
		t.Fatal(err)
	}
	pointwise := MAPE(base, shifted, 1) // large
	if costDTW != 0 {
		t.Errorf("DTW cost of shifted spikes = %v, want 0", costDTW)
	}
	if pointwise == 0 {
		t.Error("pointwise metric should see the shift (sanity)")
	}
}

func TestDTWEmpty(t *testing.T) {
	if _, _, err := DTW(nil, Series{1}, 0); err != ErrDTWEmpty {
		t.Errorf("err = %v, want ErrDTWEmpty", err)
	}
}

func TestDTWPathEndpoints(t *testing.T) {
	prop := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%20) + 1
		m := int(mRaw%20) + 1
		r := rng.New(seed)
		a := make(Series, n)
		b := make(Series, m)
		for i := range a {
			a[i] = r.Float64() * 10
		}
		for i := range b {
			b[i] = r.Float64() * 10
		}
		_, path, err := DTW(a, b, 0)
		if err != nil || len(path) == 0 {
			return false
		}
		first, last := path[0], path[len(path)-1]
		if first.I != 0 || first.J != 0 || last.I != n-1 || last.J != m-1 {
			return false
		}
		// Monotone, unit steps.
		for i := 1; i < len(path); i++ {
			di := path[i].I - path[i-1].I
			dj := path[i].J - path[i-1].J
			if di < 0 || dj < 0 || di > 1 || dj > 1 || (di == 0 && dj == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDTWBandMatchesUnconstrainedWhenWide(t *testing.T) {
	r := rng.New(5)
	a := make(Series, 40)
	b := make(Series, 40)
	for i := range a {
		a[i] = r.Float64()
		b[i] = r.Float64()
	}
	cFull, _, _ := DTW(a, b, 0)
	cBand, _, _ := DTW(a, b, 40)
	if math.Abs(cFull-cBand) > 1e-12 {
		t.Errorf("wide band cost %v != unconstrained %v", cBand, cFull)
	}
	// A narrow band can only raise the cost.
	cNarrow, _, err := DTW(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cNarrow < cFull-1e-12 {
		t.Errorf("narrow band cost %v below optimum %v", cNarrow, cFull)
	}
}

func TestDTWUnequalLengths(t *testing.T) {
	a := Series{1, 2, 3}
	b := Series{1, 1, 2, 2, 3, 3}
	if _, _, err := DTW(a, b, 1); err != nil {
		t.Fatalf("banded DTW on unequal lengths: %v", err)
	}
}

func TestAlignedRelError(t *testing.T) {
	ref := Series{100, 100, 100, 100}
	target := Series{110, 110, 110, 110} // uniform +10%
	e, err := AlignedRelError(ref, target, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-0.10) > 1e-9 {
		t.Errorf("error = %v, want 0.10", e)
	}
	// Identical series → zero error.
	e, _ = AlignedRelError(ref, ref, 0, 1)
	if e != 0 {
		t.Errorf("self error = %v", e)
	}
}

func TestAlignedRelErrorFloor(t *testing.T) {
	ref := Series{0, 0}
	target := Series{5, 5}
	e, err := AlignedRelError(ref, target, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-0.5) > 1e-9 {
		t.Errorf("floored error = %v, want 0.5", e)
	}
}

func TestMAPE(t *testing.T) {
	ref := Series{10, 20}
	target := Series{11, 18}
	want := (0.1 + 0.1) / 2
	if got := MAPE(ref, target, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("MAPE = %v, want %v", got, want)
	}
	if MAPE(nil, nil, 1) != 0 {
		t.Error("empty MAPE must be 0")
	}
}

func TestMAPENonNegativeProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		a := make(Series, 16)
		b := make(Series, 16)
		for i := range a {
			a[i] = r.Gaussian(0, 100)
			b[i] = r.Gaussian(0, 100)
		}
		return MAPE(a, b, 1) >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDTW256(b *testing.B) {
	r := rng.New(1)
	a := make(Series, 256)
	c := make(Series, 256)
	for i := range a {
		a[i] = r.Float64()
		c[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = DTW(a, c, 16)
	}
}
