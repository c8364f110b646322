package measure

import (
	"fmt"
	"math"
	"math/bits"

	"bayesperf/internal/rng"
	"bayesperf/internal/stats"
	"bayesperf/internal/uarch"
)

// MuxConfig controls the multiplexing simulator.
type MuxConfig struct {
	// NoiseFrac is the relative std of the per-interval measurement noise
	// (OS jitter, interrupt skid) applied to every counted value.
	NoiseFrac float64
	// StdFloorFrac floors each estimate's observation std at this fraction
	// of its magnitude, so a phase-free event never reports zero
	// uncertainty.
	StdFloorFrac float64
	// OutlierProb injects CounterMiner-style corrupted readings: each
	// counted value is, with this probability, inflated by OutlierMag× (an
	// interrupt storm or SMI landing inside the sampling interval). Zero
	// disables injection.
	OutlierProb float64
	// OutlierMag is the relative magnitude of an injected outlier: a
	// corrupted reading becomes value·(1+OutlierMag).
	OutlierMag float64
	// GumbelReject filters counted samples with the Gumbel high-side
	// outlier test (stats.GumbelFilterMax) before mean/std estimation,
	// as CounterMiner does (Lv et al., MICRO'18).
	GumbelReject bool
	// GumbelQ is the Gumbel quantile above which a sample is rejected;
	// zero means DefaultGumbelQ.
	GumbelQ float64
}

// Validate reports the first field outside its domain: NoiseFrac,
// StdFloorFrac and OutlierMag must be finite and non-negative, OutlierProb
// a probability, and GumbelQ zero (DefaultGumbelQ) or inside (0, 1). A
// negative NoiseFrac would mirror the noise draws, and an OutlierProb above
// one would corrupt every counted reading.
func (c MuxConfig) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"NoiseFrac", c.NoiseFrac}, {"StdFloorFrac", c.StdFloorFrac}, {"OutlierMag", c.OutlierMag}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("measure: MuxConfig.%s = %v, want finite and >= 0", f.name, f.v)
		}
	}
	if !(c.OutlierProb >= 0 && c.OutlierProb <= 1) {
		return fmt.Errorf("measure: MuxConfig.OutlierProb = %v, want a probability in [0, 1]", c.OutlierProb)
	}
	if !(c.GumbelQ >= 0 && c.GumbelQ < 1) {
		return fmt.Errorf("measure: MuxConfig.GumbelQ = %v, want 0 (the default) or a quantile in (0, 1)", c.GumbelQ)
	}
	return nil
}

// DefaultGumbelQ is the rejection quantile used when MuxConfig.GumbelQ is
// unset: CounterMiner's "well above the expected maximum" threshold.
const DefaultGumbelQ = 0.995

// RejectQuantile returns the effective Gumbel rejection quantile (GumbelQ,
// or DefaultGumbelQ when unset).
func (c MuxConfig) RejectQuantile() float64 {
	if c.GumbelQ > 0 {
		return c.GumbelQ
	}
	return DefaultGumbelQ
}

// RejectThreshold returns the Gumbel rejection threshold at
// RejectQuantile, for callers that test many fits under one configuration:
// its logarithms are computed once. With GumbelReject off it returns the
// zero threshold, which no estimator reads.
func (c MuxConfig) RejectThreshold() stats.GumbelThreshold {
	if !c.GumbelReject {
		return stats.GumbelThreshold{}
	}
	return stats.NewGumbelThreshold(c.RejectQuantile())
}

// DefaultMuxConfig matches the noise regime of the paper's perf-stat runs.
func DefaultMuxConfig() MuxConfig {
	return MuxConfig{NoiseFrac: 0.01, StdFloorFrac: 1e-4, GumbelQ: DefaultGumbelQ}
}

// Sample is one event's multiplexed estimate: the scaled (extrapolated)
// whole-run total, the Gaussian observation std derived from the Student-t
// marginal of the per-interval samples (§4.2), and the number of intervals
// the event was actually counted in. N == 0 means the run was too short for
// the event's group to ever go live; Total and Std are zero and callers
// must not feed the sample to the factor graph as an observation (the graph
// infers unobserved events from the invariants instead).
type Sample struct {
	Total float64
	Std   float64
	N     int
	// Rejected counts samples dropped by the Gumbel outlier filter
	// (always 0 unless MuxConfig.GumbelReject).
	Rejected int
}

// MuxResult is the output of one simulated multiplexed run.
type MuxResult struct {
	// Groups are the round-robin event groups; group g is live during
	// intervals t with t ≡ g (mod len(Groups)). Fixed events are live in
	// every interval and appear in no group.
	Groups [][]uarch.EventID
	// Est holds the per-event estimate, indexed by EventID.
	Est []Sample
}

// Coverage returns the fraction of intervals during which the event was
// counted.
func (m *MuxResult) Coverage(id uarch.EventID, intervals int) float64 {
	if intervals == 0 {
		return 0
	}
	return float64(m.Est[id].N) / float64(intervals)
}

// canSchedule reports whether the event set can run concurrently on the
// catalog's PMU: at most NumMSR of them need an MSR, and there is a perfect
// matching of events onto programmable counters respecting every
// CounterMask. The matching search is exact; group sizes are bounded by
// NumProg (≤ a handful), so backtracking is cheap.
func canSchedule(cat *uarch.Catalog, group []uarch.EventID) bool {
	if len(group) > cat.NumProg {
		return false
	}
	msr := 0
	for _, id := range group {
		if cat.Event(id).NeedsMSR {
			msr++
		}
	}
	if msr > cat.NumMSR {
		return false
	}
	// Order events by ascending mask popcount so the most constrained are
	// placed first, then backtrack.
	order := append([]uarch.EventID(nil), group...)
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a := bits.OnesCount(cat.Event(order[j]).CounterMask)
			b := bits.OnesCount(cat.Event(order[j-1]).CounterMask)
			if a < b {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
	}
	var place func(i int, used uint) bool
	place = func(i int, used uint) bool {
		if i == len(order) {
			return true
		}
		free := cat.Event(order[i]).CounterMask &^ used
		for free != 0 {
			c := free & -free // lowest available counter
			if place(i+1, used|c) {
				return true
			}
			free &^= c
		}
		return false
	}
	return place(0, 0)
}

// scheduleGroups packs the catalog's programmable events into the fewest
// round-robin groups first-fit by EventID, honoring counter masks, the MSR
// budget, and group size. First-fit is what perf's event grouping does in
// practice; optimal packing is NP-hard and unnecessary here.
func scheduleGroups(cat *uarch.Catalog) [][]uarch.EventID {
	var groups [][]uarch.EventID
	for _, id := range cat.ProgrammableEvents() {
		placed := false
		for gi := range groups {
			candidate := append(append([]uarch.EventID(nil), groups[gi]...), id)
			if canSchedule(cat, candidate) {
				groups[gi] = candidate
				placed = true
				break
			}
		}
		if !placed {
			if !canSchedule(cat, []uarch.EventID{id}) {
				panic(fmt.Sprintf("measure: event %s cannot be scheduled alone on %s",
					cat.Event(id).Name, cat.Arch))
			}
			groups = append(groups, []uarch.EventID{id})
		}
	}
	return groups
}

// extrapolationStd returns the observation std of the inverse-coverage
// extrapolated total for a partially covered event, following the paper's
// §4.2 Student-t model: std = (S/√N) · √(ν/(ν−2)) · intervals, ν = N−1.
//
// The sample spread S is estimated with the mean-squared-successive-
// difference estimator S² = Σ(xᵢ₊₁−xᵢ)²/(2(N−1)). Round-robin sampling is
// stratified across the workload's phases, so the plain sample variance —
// dominated by cross-phase spread that systematic sampling mostly cancels —
// would grossly overstate the estimate's uncertainty; successive differences
// are robust to that slow structure and capture the within-phase jitter plus
// measurement noise that actually drive the extrapolation error.
func extrapolationStd(xs []float64, intervals int) float64 {
	n := len(xs)
	if n < 2 {
		// A single sample carries no spread information at all; claim
		// 100% relative uncertainty on the extrapolated total rather
		// than letting a zero spread masquerade as near-certainty.
		return math.Abs(xs[0]) * float64(intervals)
	}
	var ssd float64
	for i := 1; i < n; i++ {
		d := xs[i] - xs[i-1]
		ssd += d * d
	}
	spread := math.Sqrt(ssd / (2 * float64(n-1)))
	return TObsStd(spread, n, intervals)
}

// TObsStd converts a per-interval sample spread into the §4.2 Student-t
// observation std of the inverse-coverage extrapolated total:
// std = (spread/√n) · √(ν/(ν−2)) · intervals with ν = n−1. It is shared by
// the whole-run simulator and the stream layer's sliding windows so both
// observation models agree. n must be ≥ 2 (a single sample has no spread).
func TObsStd(spread float64, n, intervals int) float64 {
	nu := float64(n - 1)
	tFactor := stats.StudentTStdFactor(nu)
	if math.IsInf(tFactor, 1) {
		tFactor = 10 // too few samples for a finite-variance t; stay vague
	}
	return spread / math.Sqrt(float64(n)) * tFactor * float64(intervals)
}

// EstimateSamples is the batch surface over EstimateSample: one §4.2
// estimate per event from that event's counted readings, in EventID order.
// It exists so whole-run consumers (pkg/bayesperf.Session.RunBatch) and
// the simulator share a single call producing the full observation vector
// the factor graph is observed from.
func EstimateSamples(xss [][]float64, intervals int, cfg MuxConfig) []Sample {
	out := make([]Sample, len(xss))
	gumbel := cfg.RejectThreshold()
	for id, xs := range xss {
		out[id] = estimateSample(xs, nil, intervals, cfg, gumbel)
	}
	return out
}

// Multiplex simulates one multiplexed run over the ground-truth trace:
// fixed events are counted in every interval; programmable events are
// round-robin scheduled in groups and only counted in their group's
// intervals; every counted value carries relative measurement noise. Each
// event's whole-run total is then extrapolated by inverse coverage (the
// linear scaling perf applies), and its observation std follows the paper's
// §4.2 Student-t model: std = (S/√N) · √(ν/(ν−2)) · intervals, ν = N−1.
func Multiplex(tr *Trace, cfg MuxConfig, r *rng.Rand) *MuxResult {
	cat := tr.Cat
	groups := scheduleGroups(cat)
	intervals := tr.Intervals()
	res := &MuxResult{Groups: groups, Est: make([]Sample, cat.NumEvents())}

	// groupOf[id] = index of the event's group, -1 for fixed events.
	groupOf := make([]int, cat.NumEvents())
	for i := range groupOf {
		groupOf[i] = -1
	}
	for gi, g := range groups {
		for _, id := range g {
			groupOf[id] = gi
		}
	}

	numGroups := len(groups)
	gumbel := cfg.RejectThreshold()
	for id := 0; id < cat.NumEvents(); id++ {
		gi := groupOf[id]
		var xs []float64
		for t := 0; t < intervals; t++ {
			if gi >= 0 && numGroups > 0 && t%numGroups != gi {
				continue // counter not live for this event
			}
			truth := tr.Series[id][t]
			noisy := truth * (1 + r.Gaussian(0, cfg.NoiseFrac))
			if noisy < 0 {
				noisy = 0
			}
			if cfg.OutlierProb > 0 && r.Float64() < cfg.OutlierProb {
				noisy *= 1 + cfg.OutlierMag
			}
			if math.IsNaN(noisy) || math.IsInf(noisy, 0) {
				// Corrupted reading (mirrors the stream layer's ingestion
				// guard): drop it regardless of the Gumbel switch — one
				// NaN would otherwise poison the whole estimate.
				continue
			}
			xs = append(xs, noisy)
		}
		res.Est[id] = estimateSample(xs, xs[:0], intervals, cfg, gumbel)
	}
	return res
}

// EstimateSample turns one event's counted per-interval readings into the
// §4.2 whole-run estimate: Gumbel outlier rejection when configured,
// inverse-coverage extrapolated total, and the Student-t observation std
// (measurement-noise-only at full coverage). It is the single estimator
// shared by the batch simulator (Multiplex) and any Source-draining batch
// consumer (pkg/bayesperf.Session.RunBatch). xs must hold only finite
// readings; an empty xs yields the zero Sample (never counted — callers
// must not observe it into the factor graph).
func EstimateSample(xs []float64, intervals int, cfg MuxConfig) Sample {
	return estimateSample(xs, nil, intervals, cfg, cfg.RejectThreshold())
}

// estimateSample is EstimateSample with the Gumbel threshold computed once
// by the caller for all of its events. The Gumbel filter's survivors go to
// buf (see stats.GumbelThreshold.FilterMax): a caller that owns xs passes
// xs[:0] to filter it in place; nil leaves xs untouched.
func estimateSample(xs, buf []float64, intervals int, cfg MuxConfig, gumbel stats.GumbelThreshold) Sample {
	counted := len(xs)
	if counted == 0 {
		return Sample{}
	}
	rejected := 0
	if cfg.GumbelReject {
		// xs holds only finite readings (corrupted ones were dropped at
		// collection), so the filter always keeps at least one.
		xs, rejected = gumbel.FilterMax(xs, buf)
	}
	n := len(xs)
	meanRate := stats.Mean(xs)
	total := meanRate * float64(intervals)

	var std float64
	if n == intervals {
		// Full coverage (fixed counters): the total is a straight sum
		// with no extrapolation, so its only uncertainty is the
		// per-interval measurement noise. The realized workload
		// variation is signal here, not error.
		var nv float64
		for _, x := range xs {
			nv += (cfg.NoiseFrac * x) * (cfg.NoiseFrac * x)
		}
		std = math.Sqrt(nv)
	} else {
		std = extrapolationStd(xs, intervals)
	}

	if floor := cfg.StdFloorFrac * math.Abs(total); std < floor {
		std = floor
	}
	if std == 0 { //bayesvet:bitwise exact-zero sentinel for an all-zero event
		std = 1 // all-zero event: unit count uncertainty
	}
	return Sample{Total: total, Std: std, N: counted, Rejected: rejected}
}
