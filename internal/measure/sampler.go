package measure

import (
	"math"

	"bayesperf/internal/rng"
	"bayesperf/internal/stats"
	"bayesperf/internal/uarch"
)

// Scheduler decides which programmable event group owns the PMU in each
// sampling interval. The round-robin policy is what perf implements; the
// adaptive policy closes the paper's §5 loop by steering slots toward the
// groups whose events the posterior is least certain about.
type Scheduler interface {
	// Groups returns the scheduled event groups. The slice is owned by the
	// scheduler and must not be mutated. The group list is fixed for the
	// scheduler's lifetime (both in-tree schedulers build it once), so a
	// Sampler may cache per-group state by group index.
	Groups() [][]uarch.EventID
	// NextGroup returns the group live in the next interval and advances
	// the schedule.
	NextGroup() int
}

// RoundRobin cycles through the groups in order, giving every group the
// same share of intervals — perf's default multiplexing policy.
type RoundRobin struct {
	groups [][]uarch.EventID
	t      int
}

// NewRoundRobin builds a round-robin scheduler over the catalog's packed
// event groups.
func NewRoundRobin(cat *uarch.Catalog) *RoundRobin {
	return &RoundRobin{groups: scheduleGroups(cat)}
}

// Groups returns the scheduled event groups.
func (s *RoundRobin) Groups() [][]uarch.EventID { return s.groups }

// NextGroup returns t mod numGroups and advances.
func (s *RoundRobin) NextGroup() int {
	g := s.t % len(s.groups)
	s.t++
	return g
}

// AdaptiveScheduler allocates multiplexing slots by posterior uncertainty.
// The initial plan is a smooth interleave of an even split (exactly
// round-robin when the epoch divides evenly), and each Reprioritize edits
// it by at most one slot, so the schedule never jumps.
//
// The allocation descends the pooled posterior uncertainty by measured
// gradient. Under the §4.2 observation model a group observed n times per
// window contributes ∝ Σ_e relstd_e·c(n), c(n) = StudentTStdFactor(n−1)/√n
// — a curve with a cliff at n = 4, below which the t marginal has no
// finite variance. But an event's posterior does not track its own
// observation alone: the invariant network supplies precision too, and for
// strongly coupled events extra samples buy nothing. The graph exposes
// each event's sensitivity directly as ρ_e = (posteriorStd/obsStd)² — the
// fraction of posterior precision contributed by its own observation — so
// the marginal effect of a slot on group g is w_g·(1 − c(n±1)/c(n)) with
// w_g = Σ_e relstd_e·ρ_e. Each epoch the scheduler moves at most one slot
// from the group with the smallest marginal loss to the group with the
// largest marginal gain (with hysteresis), re-measuring before the next
// move: the gradient is only locally valid, and gentle self-correcting
// steps are what keep coupled catalogs from being driven into bad
// allocations. Equal or flat gradients leave the plan at round-robin.
type AdaptiveScheduler struct {
	groups   [][]uarch.EventID
	epochLen int
	plan     []int
	pos      int
	reprios  int
	moves    int
	slots    []int     // current per-group slot counts
	wHat     []float64 // EWMA of each group's Σ relstd·sensitivity
	wRaw     []float64 // EWMA of each group's Σ relstd (undiscounted)
}

// NewAdaptive builds an adaptive scheduler over the catalog's packed event
// groups. epochLen is the number of slots per plan — set it to the
// streaming inference window so one epoch's slot counts are one window's
// sample counts. Values below twice the group count leave no room to skew
// and are raised to 4× the group count.
func NewAdaptive(cat *uarch.Catalog, epochLen int) *AdaptiveScheduler {
	groups := scheduleGroups(cat)
	if epochLen < 2*len(groups) {
		epochLen = 4 * len(groups)
	}
	a := &AdaptiveScheduler{
		groups:   groups,
		epochLen: epochLen,
		slots:    make([]int, len(groups)),
		wHat:     make([]float64, len(groups)),
		wRaw:     make([]float64, len(groups)),
	}
	for i := 0; i < epochLen; i++ {
		a.slots[i%len(groups)]++
	}
	a.plan = interleave(a.slots, make([]int, 0, epochLen))
	return a
}

// Groups returns the scheduled event groups.
func (a *AdaptiveScheduler) Groups() [][]uarch.EventID { return a.groups }

// EpochLen returns the slot-plan length: callers should feed posterior
// uncertainty back via Reprioritize once per this many intervals.
func (a *AdaptiveScheduler) EpochLen() int { return a.epochLen }

// Reprioritizations returns how many times the plan has been rebuilt.
func (a *AdaptiveScheduler) Reprioritizations() int { return a.reprios }

// NextGroup returns the next slot of the current plan and advances.
func (a *AdaptiveScheduler) NextGroup() int {
	g := a.plan[a.pos%len(a.plan)]
	a.pos++
	return g
}

// hysteresis is the factor by which a slot move's estimated gain must
// exceed its estimated loss before the move is taken: the gradient is
// noisy, and a marginal move costs real measurement windows if it has to
// be walked back.
const hysteresis = 1.1

// Moves returns how many slot moves the gradient descent has made.
func (a *AdaptiveScheduler) Moves() int { return a.moves }

// Slots returns a copy of the current per-group slot allocation.
func (a *AdaptiveScheduler) Slots() []int { return append([]int(nil), a.slots...) }

// Reprioritize updates the slot plan from posterior marginals (indexed by
// EventID; ideally averaged over the last epoch's windows, see
// stream.Engine.EpochPosterior). std is the posterior std; obsStd is the
// matching observation std (0 where the event went unobserved), from which
// each event's sensitivity to its own sampling rate is measured. At most
// one slot moves per call, from the group whose marginal loss is smallest
// to the group whose marginal gain is largest, and only when the gain
// clears the loss by the hysteresis factor.
func (a *AdaptiveScheduler) Reprioritize(mean, std, obsStd []float64) {
	ng := len(a.groups)
	for gi, g := range a.groups {
		w, raw := 0.0, 0.0
		for _, id := range g {
			den := math.Abs(mean[id])
			if den < 1 {
				den = 1
			}
			rel := std[id] / den
			sens := 1.0 // unobserved: only more slots can produce an observation
			if obsStd[id] > 0 {
				r := std[id] / obsStd[id]
				sens = r * r
				if sens > 1 {
					sens = 1
				}
			}
			w += rel * sens
			raw += rel
		}
		if a.reprios == 0 {
			a.wHat[gi] = w
			a.wRaw[gi] = raw
		} else {
			a.wHat[gi] = 0.5*a.wHat[gi] + 0.5*w
			a.wRaw[gi] = 0.5*a.wRaw[gi] + 0.5*raw
		}
	}
	a.reprios++

	// The floor guarantees every group ≥ 4 samples per window (slots map
	// ~1:1 to window samples at the recommended epoch ≈ window, ±1 from
	// interleaving): below that the Student-t marginal loses finite
	// variance and the group's every event pays the 10× vagueness
	// fallback — no reallocation upside survives that.
	minSlots := 5
	for minSlots > 1 && minSlots*ng > a.epochLen {
		minSlots--
	}
	receiver, donor := -1, -1
	var bestGain, bestLoss float64
	for gi := 0; gi < ng; gi++ {
		c := samplesCost(a.slots[gi])
		// Gains are sensitivity-discounted (extra samples cannot tighten a
		// posterior the invariants already pin); losses are charged at the
		// full undiscounted uncertainty, because a donor's observations
		// also feed every coupled event's posterior through the network.
		gain := a.wHat[gi] * (1 - samplesCost(a.slots[gi]+1)/c)
		if receiver < 0 || gain > bestGain {
			receiver, bestGain = gi, gain
		}
		if a.slots[gi] <= minSlots {
			continue
		}
		loss := a.wRaw[gi] * (samplesCost(a.slots[gi]-1)/c - 1)
		if donor < 0 || loss < bestLoss {
			donor, bestLoss = gi, loss
		}
	}
	if receiver < 0 || donor < 0 || receiver == donor || bestGain <= hysteresis*bestLoss {
		return // flat gradient: keep the current plan
	}
	a.slots[receiver]++
	a.slots[donor]--
	a.moves++
	// Minimal-edit transition: flip exactly one donor occurrence to the
	// receiver instead of re-interleaving the whole plan. A full rebuild
	// phase-shifts every group's pattern, and a measurement window
	// straddling the transition can land on a group's sparse halves of
	// both patterns — one such starved window pays the full small-n
	// uncertainty penalty. The flipped occurrence is the donor slot
	// farthest (circularly) from the receiver's existing occurrences, so
	// the receiver's spacing stays near-even.
	L := len(a.plan)
	bestPos, bestDist := -1, -1
	for p, g := range a.plan {
		if g != donor {
			continue
		}
		d := L
		for q, h := range a.plan {
			if h != receiver {
				continue
			}
			dd := p - q
			if dd < 0 {
				dd = -dd
			}
			if L-dd < dd {
				dd = L - dd
			}
			if dd < d {
				d = dd
			}
		}
		if d > bestDist {
			bestPos, bestDist = p, d
		}
	}
	a.plan[bestPos] = receiver
}

// samplesCost is the §4.2 uncertainty of a group observed n times per
// window, up to the group's spread: StudentTStdFactor(ν = n−1)/√n, with
// the same ν ≤ 2 fallback TObsStd uses. The cliff between n = 3 and n = 4
// (no finite-variance t below ν = 3) is what makes lifting a group past 4
// samples so much more valuable than anything else.
func samplesCost(n int) float64 {
	f := stats.StudentTStdFactor(float64(n - 1))
	if math.IsInf(f, 1) {
		f = 10
	}
	return f / math.Sqrt(float64(n))
}

// interleave spreads each group's slots evenly across the epoch using
// smooth weighted round-robin: every step each group's credit grows by its
// slot count, the richest group (lowest index on ties) is emitted and pays
// back the total. Group g appears exactly slots[g] times.
func interleave(slots []int, plan []int) []int {
	total := 0
	for _, s := range slots {
		total += s
	}
	credit := make([]int, len(slots))
	for s := 0; s < total; s++ {
		best := -1
		for gi := range slots {
			credit[gi] += slots[gi]
			if best < 0 || credit[gi] > credit[best] {
				best = gi
			}
		}
		credit[best] -= total
		plan = append(plan, best)
	}
	return plan
}

// IntervalSample is one sampling interval's live counter readings: the
// events that were actually counted (fixed counters plus the live group)
// and their noisy per-interval values, parallel slices. Events may be
// shared between intervals (a Sampler hands out one slice per group), and a
// consumer must mutate neither slice. The stream engine and the Session
// copy every reading they keep, so the producer of a sample may reuse both
// buffers once its next sample is asked for.
type IntervalSample struct {
	T      int
	Group  int // index into the scheduler's Groups; -1 if no group was live
	Events []uarch.EventID
	Values []float64
}

// Sampler turns a ground-truth trace into the live interval stream a
// multiplexed PMU would deliver: each interval it asks the scheduler which
// group owns the counters, reads fixed events plus that group with
// measurement noise (and optional injected outliers), and emits an
// IntervalSample. It is the streaming counterpart of Multiplex.
type Sampler struct {
	tr    *Trace
	cfg   MuxConfig
	sched Scheduler
	r     *rng.Rand
	fixed []uarch.EventID
	// live[g] is the event list of an interval in which group g is live:
	// the fixed events, then the group's. Each is built on first use and
	// shared by every such interval.
	live [][]uarch.EventID
	t    int
}

// NewSampler builds a sampler over the trace driven by the scheduler.
func NewSampler(tr *Trace, cfg MuxConfig, sched Scheduler, r *rng.Rand) *Sampler {
	return &Sampler{tr: tr, cfg: cfg, sched: sched, r: r, fixed: tr.Cat.FixedEvents()}
}

// Intervals returns the total stream length.
func (s *Sampler) Intervals() int { return s.tr.Intervals() }

// Catalog returns the catalog the sampler's trace is bound to. Together
// with Next, it makes a *Sampler directly usable as a pkg/bayesperf.Source.
func (s *Sampler) Catalog() *uarch.Catalog { return s.tr.Cat }

// Scheduler returns the multiplexing scheduler driving the sampler.
func (s *Sampler) Scheduler() Scheduler { return s.sched }

// Truth returns the ground-truth trace behind the simulated stream, for
// truth-based evaluation of the corrected output.
func (s *Sampler) Truth() *Trace { return s.tr }

// Next emits the next interval's sample, or ok=false at end of trace.
func (s *Sampler) Next() (sample IntervalSample, ok bool) {
	if s.t >= s.tr.Intervals() {
		return IntervalSample{}, false
	}
	gi := -1
	groups := s.sched.Groups()
	if len(groups) > 0 {
		gi = s.sched.NextGroup()
	}
	live := s.fixed
	if gi >= 0 {
		if s.live == nil {
			s.live = make([][]uarch.EventID, len(groups))
		}
		if s.live[gi] == nil {
			s.live[gi] = append(append(make([]uarch.EventID, 0, len(s.fixed)+len(groups[gi])), s.fixed...), groups[gi]...)
		}
		live = s.live[gi]
	}
	sample = IntervalSample{
		T:      s.t,
		Group:  gi,
		Events: live,
		Values: make([]float64, len(live)),
	}
	for i, id := range live {
		truth := s.tr.Series[id][s.t]
		noisy := truth * (1 + s.r.Gaussian(0, s.cfg.NoiseFrac))
		if noisy < 0 {
			noisy = 0
		}
		if s.cfg.OutlierProb > 0 && s.r.Float64() < s.cfg.OutlierProb {
			noisy *= 1 + s.cfg.OutlierMag
		}
		sample.Values[i] = noisy
	}
	s.t++
	return sample, true
}
