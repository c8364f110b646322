package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs of 1000", same)
	}
}

func TestSeedResets(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after re-seed, output %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64RangeProperty(t *testing.T) {
	// Property: for any seed, the first 64 floats are all in [0,1).
	prop := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 64; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("Gaussian mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Gaussian variance = %v, want ~1", variance)
	}
}

func TestGaussianShiftScale(t *testing.T) {
	r := New(9)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Gaussian(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Errorf("Gaussian(10,2) mean = %v, want ~10", mean)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(29)
	child := r.Split()
	// The child stream and the parent's continuation should not be equal.
	same := 0
	for i := 0; i < 1000; i++ {
		if r.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("parent and split child matched %d/1000 outputs", same)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}
