package stream

import (
	"math"
	"path/filepath"
	"testing"

	"bayesperf/internal/measure"
	"bayesperf/internal/rng"
	"bayesperf/internal/uarch"
)

// testCatalogs are the two built-in catalogs and the two example specs.
var testCatalogs = []string{"skylake", "power9", "zen.json", "neoverse.json"}

// testCatalog resolves one of testCatalogs.
func testCatalog(tb testing.TB, name string) *uarch.Catalog {
	tb.Helper()
	switch name {
	case "skylake":
		return uarch.Skylake()
	case "power9":
		return uarch.Power9()
	}
	spec, err := uarch.LoadSpecFile(filepath.Join("..", "..", "examples", "catalogs", name))
	if err != nil {
		tb.Fatal(err)
	}
	cat, err := spec.Catalog()
	if err != nil {
		tb.Fatal(err)
	}
	return cat
}

// corruptions are the readings FuzzStreamShapes injects on its span.
var corruptions = []float64{math.NaN(), math.Inf(1), 1.7e308}

// FuzzStreamShapes streams a simulated trace through the engine under a
// fuzzed shape: catalog, Window 1–32, Hop 1–Window, Batch 1–16, Workers
// 1–4, length 0–400, sampler seed, round-robin or adaptive scheduling,
// Gumbel rejection on or off, and an optional span of NaN, +Inf or 1.7e308
// readings on every event or on one. Whatever the shape, the engine must
// not panic, must cover the stream with the hop schedule's windows (the
// tail window included), must give the output of the same input at
// Workers 1 and Batch 1 bit for bit, must give the naive baseline that
// sample and hold gives over the samples it ingested, and must report a
// finite corrected value with a finite positive std for every event and
// interval.
func FuzzStreamShapes(f *testing.F) {
	cats := make([]*uarch.Catalog, len(testCatalogs))
	for i, name := range testCatalogs {
		cats[i] = testCatalog(f, name)
	}
	f.Fuzz(func(t *testing.T, catSel, window, hop, batch, workers uint8, length uint16, seed uint64,
		adaptive, gumbel bool, corrupt uint8, spanStart, spanLen uint16) {
		cat := cats[int(catSel)%len(cats)]
		cfg := DefaultConfig()
		cfg.Window = 1 + int(window)%32
		cfg.Hop = 1 + int(hop)%cfg.Window
		cfg.Batch = 1 + int(batch)%16
		cfg.Workers = 1 + int(workers)%4
		cfg.Mux.GumbelReject = gumbel
		n := int(length) % 401

		tr := measure.GroundTruth(cat, measure.DefaultWorkload(n/3+1), rng.New(seed))
		for id := range tr.Series {
			tr.Series[id] = tr.Series[id][:n]
		}
		// corrupt 1–3 injects one of corruptions on every event, 4–6 on one
		// event; 0 injects nothing.
		if sel := int(corrupt) % 7; sel > 0 && n > 0 {
			v := corruptions[(sel-1)%3]
			lo := int(spanStart) % n
			hi := min(n, lo+1+int(spanLen)%64)
			for id := range tr.Series {
				if sel > 3 && id != int(seed%uint64(cat.NumEvents())) {
					continue
				}
				for ti := lo; ti < hi; ti++ {
					tr.Series[id][ti] = v
				}
			}
		}
		var rec *recordingSource
		run := func(cfg Config) *Result {
			var sched measure.Scheduler = measure.NewRoundRobin(cat)
			if adaptive {
				sched = measure.NewAdaptive(cat, cfg.Window)
			}
			rec = &recordingSource{src: measure.NewSampler(tr, cfg.Mux, sched, rng.New(seed+1))}
			return Run(cat, rec, sched, cfg)
		}
		res := run(cfg)
		naive := sampleAndHold(cat.NumEvents(), rec.samples)

		windows := 0
		if n >= cfg.Window {
			windows = (n-cfg.Window)/cfg.Hop + 1
		}
		if n > 0 && (windows == 0 || (windows-1)*cfg.Hop+cfg.Window < n) {
			windows++ // Finish's tail window
		}
		if res.Intervals != n || res.Windows != windows {
			t.Fatalf("window %d hop %d, %d intervals: result has %d intervals and %d windows, want %d",
				cfg.Window, cfg.Hop, n, res.Intervals, res.Windows, windows)
		}

		serial := cfg
		serial.Workers, serial.Batch = 1, 1
		if hashResult(res) != hashResult(run(serial)) {
			t.Fatalf("output at Workers %d, Batch %d differs from Workers 1, Batch 1", cfg.Workers, cfg.Batch)
		}

		for id := range res.Corrected {
			for ti, v := range naive[id] {
				if got := res.NaiveRaw[id][ti]; math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("event %s interval %d: naive %v, sample and hold gives %v", cat.Event(uarch.EventID(id)).Name, ti, got, v)
				}
			}
			for ti, v := range res.Corrected[id] {
				s := res.CorrectedStd[id][ti]
				if math.IsNaN(v) || math.IsInf(v, 0) || !(s > 0) || math.IsInf(s, 0) {
					t.Fatalf("event %s interval %d: corrected %v ± %v", cat.Event(uarch.EventID(id)).Name, ti, v, s)
				}
			}
		}
	})
}
