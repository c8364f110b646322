package measure

import (
	"testing"

	"bayesperf/internal/rng"
	"bayesperf/internal/uarch"
)

// BenchmarkMultiplex tracks the batch measurement hot path: one full
// multiplexed run (group scheduling, per-interval sampling, Student-t std
// estimation) over the default three-phase workload.
func BenchmarkMultiplex(b *testing.B) {
	cat := uarch.Skylake()
	tr := GroundTruth(cat, DefaultWorkload(200), rng.New(1))
	cfg := DefaultMuxConfig()
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Multiplex(tr, cfg, r)
		if res.Est[0].Std <= 0 {
			b.Fatal("degenerate estimate")
		}
	}
}

// BenchmarkMultiplexGumbel measures the added cost of CounterMiner-style
// outlier rejection on the same run.
func BenchmarkMultiplexGumbel(b *testing.B) {
	cat := uarch.Skylake()
	tr := GroundTruth(cat, DefaultWorkload(200), rng.New(1))
	cfg := DefaultMuxConfig()
	cfg.OutlierProb = 0.02
	cfg.OutlierMag = 8
	cfg.GumbelReject = true
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Multiplex(tr, cfg, r)
		if res.Est[0].Std <= 0 {
			b.Fatal("degenerate estimate")
		}
	}
}

// BenchmarkGroundTruth tracks trace generation: a 15,000-interval Skylake
// trace, the size of one benchmark session.
func BenchmarkGroundTruth(b *testing.B) {
	cat := uarch.Skylake()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr := GroundTruth(cat, DefaultWorkload(5000), rng.New(uint64(i))); tr.Intervals() != 15000 {
			b.Fatal("short trace")
		}
	}
}

// BenchmarkSampler tracks the per-interval cost of the streaming sampler.
func BenchmarkSampler(b *testing.B) {
	cat := uarch.Skylake()
	tr := GroundTruth(cat, DefaultWorkload(200), rng.New(1))
	cfg := DefaultMuxConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smp := NewSampler(tr, cfg, NewRoundRobin(cat), rng.New(3))
		for {
			if _, ok := smp.Next(); !ok {
				break
			}
		}
	}
}
