//go:build amd64 && !amd64.v2

package stream

import (
	"math"
	"testing"

	"bayesperf/internal/measure"
	"bayesperf/internal/rng"
	"bayesperf/internal/uarch"
)

// goldenShape is one engine configuration and input variant of the golden
// matrix.
type goldenShape struct {
	name      string
	length    int // intervals, cut from a DefaultWorkload trace
	window    int
	hop       int
	workers   int
	batch     int
	cov       bool
	adaptive  bool
	gumbel    bool // Gumbel rejection with 2% injected outliers and Inf readings
	lateFirst bool // one multiplexed event NaN for its first 40 intervals
}

var goldenShapes = []goldenShape{
	{name: "short", length: 9, window: 24, hop: 4, workers: 2, batch: 8},
	{name: "default", length: 120, window: 24, hop: 4, workers: 2, batch: 8},
	{name: "tumbling", length: 121, window: 8, hop: 8, workers: 2, batch: 3},
	{name: "hop1-wide", length: 150, window: 8, hop: 1, workers: 4, batch: 64},
	{name: "late-cov", length: 120, window: 8, hop: 3, workers: 2, batch: 1, cov: true, lateFirst: true},
	{name: "gumbel-inf-cov", length: 150, window: 24, hop: 4, workers: 2, batch: 8, cov: true, gumbel: true},
	{name: "adaptive", length: 150, window: 24, hop: 4, workers: 2, batch: 8, adaptive: true},
	{name: "long", length: 303, window: 16, hop: 2, workers: 1, batch: 32},
	// Each 24-interval epoch emits 6 windows: one full batch for the pool and
	// a partial one that Flush executes on the calling goroutine.
	{name: "adaptive-mixed", length: 150, window: 24, hop: 4, workers: 2, batch: 4, adaptive: true},
}

// goldenHashes pins the FNV-64a hash of every Result output (see
// hashResult) per catalog/shape.
var goldenHashes = map[string]uint64{
	"skylake/short":                0x680c752597a468dd,
	"skylake/default":              0x5b1f365e7c451fe5,
	"skylake/tumbling":             0xab1cbb0d68146cde,
	"skylake/hop1-wide":            0xe1efb99f881c077a,
	"skylake/late-cov":             0x32eebc9f37487948,
	"skylake/gumbel-inf-cov":       0x0281862ac1af9a5f,
	"skylake/adaptive":             0x3dfc637b2a771e8a,
	"skylake/long":                 0x708217718776a47b,
	"skylake/adaptive-mixed":       0x3dfc637b2a771e8a,
	"power9/short":                 0x381ee4ecdf7301fb,
	"power9/default":               0x7df3f01640c7a833,
	"power9/tumbling":              0x88b669c3a45b1aec,
	"power9/hop1-wide":             0xc559e565729ce7fa,
	"power9/late-cov":              0x55a6d880eb20f6af,
	"power9/gumbel-inf-cov":        0x383e86c949abb02f,
	"power9/adaptive":              0x82b8a39fbaede641,
	"power9/long":                  0xf5067fc44a9c4352,
	"power9/adaptive-mixed":        0x82b8a39fbaede641,
	"zen.json/short":               0xcbab5ebac1a7a4f5,
	"zen.json/default":             0x6e73e09863ae4321,
	"zen.json/tumbling":            0x37ee9e10ec56ca6b,
	"zen.json/hop1-wide":           0x1617394508305421,
	"zen.json/late-cov":            0x18c154e2ec0a0354,
	"zen.json/gumbel-inf-cov":      0xa716e286ed5217f6,
	"zen.json/adaptive":            0x48421dafef1c53e7,
	"zen.json/long":                0x913eca08b0ed4fcb,
	"zen.json/adaptive-mixed":      0x48421dafef1c53e7,
	"neoverse.json/short":          0x21f4c3c9b687362f,
	"neoverse.json/default":        0xc743af457f72b7f7,
	"neoverse.json/tumbling":       0xb5bcc2758a0fe833,
	"neoverse.json/hop1-wide":      0x6e2f7ee656cee4c8,
	"neoverse.json/late-cov":       0xee186a0019ba79f6,
	"neoverse.json/gumbel-inf-cov": 0x2938caab614691f6,
	"neoverse.json/adaptive":       0x6acc5ee8c51ac792,
	"neoverse.json/long":           0xedb88f25c977d61b,
	"neoverse.json/adaptive-mixed": 0x6acc5ee8c51ac792,
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

// runGolden builds the shape's input and streams it through RunTrace.
func runGolden(cat *uarch.Catalog, sh goldenShape) *Result {
	perPhase := (sh.length + 2) / 3
	tr := measure.GroundTruth(cat, measure.DefaultWorkload(perPhase), rng.New(11))
	for id := range tr.Series {
		tr.Series[id] = tr.Series[id][:sh.length]
	}
	if sh.lateFirst {
		// The highest-numbered multiplexed event first reads at interval 40.
		for id := cat.NumEvents() - 1; id >= 0; id-- {
			if !cat.Event(uarch.EventID(id)).Fixed {
				for ti := 0; ti < 40 && ti < sh.length; ti++ {
					tr.Series[id][ti] = math.NaN()
				}
				break
			}
		}
	}
	cfg := DefaultConfig()
	cfg.Window, cfg.Hop = sh.window, sh.hop
	cfg.Workers, cfg.Batch = sh.workers, sh.batch
	cfg.Covariance = sh.cov
	if sh.gumbel {
		cfg.Mux.GumbelReject = true
		cfg.Mux.OutlierProb = 0.02
		cfg.Mux.OutlierMag = 8
		for id := range tr.Series {
			if cat.Event(uarch.EventID(id)).Fixed {
				tr.Series[id][17] = math.Inf(1)
				tr.Series[id][90] = math.Inf(1)
				break
			}
		}
	}
	var sched measure.Scheduler = measure.NewRoundRobin(cat)
	if sh.adaptive {
		sched = measure.NewAdaptive(cat, cfg.Window)
	}
	return RunTrace(tr, sched, cfg, rng.New(12))
}
