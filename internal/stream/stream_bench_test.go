package stream

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"bayesperf/internal/measure"
	"bayesperf/internal/obs"
	"bayesperf/internal/rng"
	"bayesperf/internal/uarch"
)

// benchTrace builds a trace long enough that per-window inference
// dominates the serial sampling/stitching work.
func benchTrace() *measure.Trace {
	return measure.GroundTruth(uarch.Skylake(), measure.DefaultWorkload(200), rng.New(1))
}

func benchStream(b *testing.B, tr *measure.Trace, workers int) {
	cfg := DefaultConfig()
	cfg.Workers = workers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := RunTrace(tr, measure.NewRoundRobin(tr.Cat), cfg, rng.New(2))
		if !res.AllConverged {
			b.Fatal("window inference did not converge")
		}
	}
}

// BenchmarkStreamWindow tracks the streaming hot path end to end (sample →
// window slide → per-window inference → stitch) and the worker pool's
// scaling: compare the workers=1 and workers=4 variants.
func BenchmarkStreamWindow(b *testing.B) {
	tr := benchTrace()
	b.Run("workers=1", func(b *testing.B) { benchStream(b, tr, 1) })
	b.Run("workers=2", func(b *testing.B) { benchStream(b, tr, 2) })
	b.Run("workers=4", func(b *testing.B) { benchStream(b, tr, 4) })
}

// BenchmarkStreamBatched tracks what window batching buys the streaming
// engine end to end: the same pre-sampled stream and worker pool at batch
// widths 1, 8 and 32, with per-window cost emitted as ns/window so the
// trajectory is comparable across PRs and against BenchmarkInferBatch's
// inference-only number. The stream is sampled once, outside the timer,
// and replayed, so the rows time the engine (window slide, snapshot,
// dispatch, inference, stitch, finish) and not the simulator. The "/exact"
// suffix keeps the names of the committed BENCH_stream.json rows, which
// cmd/benchjson gates regressions against.
func BenchmarkStreamBatched(b *testing.B) {
	tr := benchTrace()
	samples := presample(tr, 2)
	run := func(batch int, reg *obs.Registry) func(*testing.B) {
		return func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Workers = 2
			cfg.Batch = batch
			cfg.Metrics = reg
			windows := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := Run(tr.Cat, &cycleSource{samples: samples, n: len(samples)}, nil, cfg)
				if !res.AllConverged {
					b.Fatal("window inference did not converge")
				}
				windows = res.Windows
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*windows), "ns/window")
		}
	}
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d/exact", batch), run(batch, nil))
	}
	// The /obs variant runs the identical workload with a live metrics
	// registry attached; cmd/benchjson's -obs-max-ratio gate pairs it
	// against its metrics-off twin from the same run to bound the
	// instrumentation overhead (the registry is created outside the timed
	// region, as a real deployment would).
	b.Run("batch=8/exact/obs", run(8, obs.NewRegistry()))
}

// TestStreamParallelSpeedup pins the worker pool's reason to exist (and
// this PR's acceptance bar): with 4 EP engines the stream must run >1.5×
// faster than with 1. The test steps aside where timing is meaningless
// (<4 CPUs, race detector, -short).
func TestStreamParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing test skipped under the race detector")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need 4 CPUs, have %d", runtime.NumCPU())
	}
	tr := benchTrace()
	run := func(workers int) time.Duration {
		cfg := DefaultConfig()
		cfg.Workers = workers
		start := time.Now()
		for rep := 0; rep < 3; rep++ {
			res := RunTrace(tr, measure.NewRoundRobin(tr.Cat), cfg, rng.New(2))
			if !res.AllConverged {
				t.Fatal("window inference did not converge")
			}
		}
		return time.Since(start)
	}
	run(4) // warm up
	serial := run(1)
	parallel := run(4)
	speedup := float64(serial) / float64(parallel)
	t.Logf("1 worker %v, 4 workers %v: speedup %.2fx", serial, parallel, speedup)
	if speedup < 1.5 {
		t.Errorf("4-worker speedup %.2fx < 1.5x (serial %v, parallel %v)", speedup, serial, parallel)
	}
}

// BenchmarkSettle times settle alone, in ns per settled interval: a warmed
// Skylake engine at Workers 1 is fed until one whole 64-interval block is
// ready and not yet posted, and that block is settled over and over. Its
// records stay live, since nothing else runs meanwhile, and settling a
// block again writes the same values.
func BenchmarkSettle(b *testing.B) {
	cat := uarch.Skylake()
	for _, hop := range []int{4, 24} {
		b.Run(fmt.Sprintf("hop=%d", hop), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Hop, cfg.Workers = hop, 1
			e := NewEngine(cat, cfg)
			defer e.Finish()
			src := newCycleSource(cat, math.MaxInt)
			for e.ingested < 4*chunkLen || e.ready() < e.posted+settleSpan {
				s, _ := src.Next()
				e.Ingest(s)
			}
			for len(e.settling) > 0 {
				e.absorb(<-e.results)
			}
			lo := e.posted
			chunk := e.out[lo/chunkLen].take(e.chunkRows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.settle(e.cover, chunk, lo, lo+settleSpan, e.nextIdx)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*settleSpan), "ns/interval")
		})
	}
}

// BenchmarkIngest times the producer's cost per interval, in ns per
// interval (one interval per op), on a warmed engine fed a pre-sampled
// round-robin stream, in the configurations of three of the repository
// benchmark's workloads at Workers 2: rr-exact (Skylake, hop 4) and
// tumbling-fast (the Neoverse JSON catalog, hop 24) time Ingest alone;
// adaptive-epoch (Skylake, hop 4) also runs Flush and EpochPosterior after
// every 24th interval, as the adaptive epoch loop does, so each epoch's
// partial batch of 6 windows runs on the producer inside the timed loop.
// rr-exact/workers=1 is rr-exact with one worker, which lags the stream, so
// the producer's waits on the pool dominate it. The workers settle the
// stream's intervals and run its full batches, but whenever the producer
// would wait on the pool it runs the queued jobs itself, inside the timed
// loop. Every 2¹⁴ intervals a fresh engine replaces the old one with the
// timer stopped, so the output an engine holds stays small for any b.N.
func BenchmarkIngest(b *testing.B) {
	for _, w := range []struct {
		name, cat string
		hop       int
		epoch     int // Flush and EpochPosterior after every epoch-th interval (0: never)
		workers   int
	}{
		{"rr-exact", "skylake", 4, 0, 2},
		{"rr-exact/workers=1", "skylake", 4, 0, 1},
		{"tumbling-fast", "neoverse.json", 24, 0, 2},
		{"adaptive-epoch", "skylake", 4, 24, 2},
	} {
		b.Run(w.name, func(b *testing.B) {
			cat := testCatalog(b, w.cat)
			tr := measure.GroundTruth(cat, measure.DefaultWorkload(1000), rng.New(5))
			samples := presample(tr, 6)
			cfg := DefaultConfig()
			cfg.Hop, cfg.Workers = w.hop, w.workers
			const warm, span = 4 * chunkLen, 1 << 14
			var e *Engine
			var src *cycleSource
			ingest := func() {
				s, _ := src.Next()
				e.Ingest(s)
				if w.epoch > 0 && e.ingested%w.epoch == 0 {
					e.Flush()
					e.EpochPosterior()
				}
			}
			fresh := func() {
				if e != nil {
					e.Finish()
				}
				e = NewEngine(cat, cfg)
				src = &cycleSource{samples: samples, n: math.MaxInt}
				for e.ingested < warm {
					ingest()
				}
			}
			fresh()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if e.ingested == warm+span {
					b.StopTimer()
					fresh()
					b.StartTimer()
				}
				ingest()
			}
			b.StopTimer()
			e.Finish()
		})
	}
}
