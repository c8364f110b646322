package graph

import (
	"math"
	"testing"

	"bayesperf/internal/rng"
	"bayesperf/internal/uarch"
)

// fastAccuracyTol is the accuracy gate of the opt-in fast schedule: relative
// posterior drift vs the exact message schedule. The schedules compute the
// same fixed-point update in a different floating-point summation order, so
// the observed drift at full convergence is ~1e-14; the gate leaves headroom
// for a lane converging one damped sweep earlier or later (a ≤ tol·scale
// mean wobble, ≤ ~5e-8 relative at the catalogs' scaled-mean magnitudes).
const fastAccuracyTol = 1e-7

// fastKernelPaths runs fn once per available fast-schedule implementation:
// the AVX2 vector kernel (on hosts that have it) and the portable scalar
// schedule, forced by clearing fastVecEnabled.
func fastKernelPaths(t *testing.T, fn func(t *testing.T)) {
	saved := fastVecEnabled
	defer func() { fastVecEnabled = saved }()
	if saved {
		t.Run("vec", fn)
	} else {
		t.Log("host has no AVX2+FMA: vector kernel path not exercised")
	}
	fastVecEnabled = false
	t.Run("scalar", fn)
	fastVecEnabled = saved
}

// TestFastMathAccuracyDelta is the fast kernel's accuracy gate: on all four
// catalogs, across batch widths, converged and unconverged iteration
// budgets, and with covariance extraction on, every posterior mean, std,
// and tracked clique correlation must agree with the message-passing
// schedule within fastAccuracyTol, with iteration counts off by at most one
// sweep — for both the vector and the scalar implementation. The reference
// is message passing, not the default closed-form solve: the fast kernel
// approximates the former, and inherits its variance error on loopy
// catalogs.
func TestFastMathAccuracyDelta(t *testing.T) {
	forceMessagePassing(t)
	fastKernelPaths(t, func(t *testing.T) {
		for _, cat := range identityCatalogs(t) {
			plan := Compile(cat)
			for _, bc := range []struct {
				lanes   int
				maxIter int
				tol     float64
				cov     bool
			}{
				{1, 200, 1e-9, false},
				{8, 200, 1e-9, true},
				{8, 3, 1e-9, true}, // budget too small to converge
				{13, 200, 1e-4, false},
			} {
				ex := plan.NewBatch(bc.lanes)
				fa := plan.NewBatch(bc.lanes)
				fa.FastMath = true
				if bc.cov {
					ex.EnableCovariance()
					fa.EnableCovariance()
				}
				r := rng.New(7)
				for lane := 0; lane < bc.lanes; lane++ {
					observeRound(cat, r, func(id uarch.EventID, mean, std float64) {
						ex.Observe(lane, id, mean, std)
						fa.Observe(lane, id, mean, std)
					})
				}
				re := ex.Execute(bc.lanes, bc.maxIter, bc.tol)
				rf := fa.Execute(bc.lanes, bc.maxIter, bc.tol)
				for i := range re.Mean {
					dm := math.Abs(rf.Mean[i]-re.Mean[i]) / math.Max(math.Abs(re.Mean[i]), 1)
					ds := math.Abs(rf.Std[i]-re.Std[i]) / math.Max(re.Std[i], 1)
					if dm > fastAccuracyTol || math.IsNaN(rf.Mean[i]) {
						t.Fatalf("%s lanes=%d iter=%d: slot %d mean %v vs exact %v (rel delta %.3g)",
							cat.Arch, bc.lanes, bc.maxIter, i, rf.Mean[i], re.Mean[i], dm)
					}
					if ds > fastAccuracyTol || math.IsNaN(rf.Std[i]) {
						t.Fatalf("%s lanes=%d iter=%d: slot %d std %v vs exact %v (rel delta %.3g)",
							cat.Arch, bc.lanes, bc.maxIter, i, rf.Std[i], re.Std[i], ds)
					}
				}
				for lane := 0; lane < bc.lanes; lane++ {
					di := rf.Iters[lane] - re.Iters[lane]
					if di < -1 || di > 1 {
						t.Fatalf("%s lanes=%d iter=%d: lane %d took %d sweeps, exact %d",
							cat.Arch, bc.lanes, bc.maxIter, lane, rf.Iters[lane], re.Iters[lane])
					}
					if rf.Converged[lane] != re.Converged[lane] {
						t.Fatalf("%s lanes=%d iter=%d: lane %d converged=%v, exact %v",
							cat.Arch, bc.lanes, bc.maxIter, lane, rf.Converged[lane], re.Converged[lane])
					}
					if !bc.cov {
						continue
					}
					// Clique correlations are only compared between events
					// whose cavity precision (belief minus the clique's own
					// message, the quantity extractCovariances inverts) is
					// well above the 1e-12 vanishing floor. A near-floor
					// cavity makes d = 1/(belief − msg) catastrophically
					// ill-conditioned: its correlation is noise in BOTH
					// kernels (the exact kernel's noise is merely
					// bit-reproducible), so no summation order can agree
					// there and no consumer can read meaning into it.
					cavityPrec := func(e int) float64 {
						B := ex.stride
						return ex.beliefPrec[plan.edgeVar[e]*B+lane] - ex.msgPrec[e*B+lane]
					}
					conditioned := func(a, b uarch.EventID) bool {
						loc, ok := plan.pairLoc[pairKey(a, b)]
						if !ok {
							return false // Corr returns 0 for both kernels
						}
						e0 := plan.factorOff[loc.rel]
						return cavityPrec(e0+loc.a) >= 1e-5 && cavityPrec(e0+loc.b) >= 1e-5
					}
					compared := 0
					for ri := range cat.Rels {
						for _, ta := range cat.Rels[ri].Terms {
							for _, tb := range cat.Rels[ri].Terms {
								if ta.Event == tb.Event || !conditioned(ta.Event, tb.Event) {
									continue
								}
								compared++
								ce := re.Corr(lane, ta.Event, tb.Event)
								cf := rf.Corr(lane, ta.Event, tb.Event)
								if math.Abs(cf-ce) > fastAccuracyTol {
									t.Fatalf("%s lane %d: corr(%d,%d) = %v vs exact %v",
										cat.Arch, lane, ta.Event, tb.Event, cf, ce)
								}
							}
						}
					}
					if compared == 0 {
						t.Fatalf("%s lane %d: conditioning gate compared no correlations", cat.Arch, lane)
					}
				}
			}
		}
	})
}

// TestFastMathLaneInvariance is the fast schedule's batching contract — the
// same one TestExecuteLaneInvariance pins for the exact kernel: a window's
// fast posterior is bit-identical whether it runs alone in a 1-lane batch
// or packed into any lane of any wider batch. Both implementations must
// hold it (the vector kernel's arithmetic is elementwise per lane; the
// activeMask keeps padding and frozen lanes from perturbing live ones).
func TestFastMathLaneInvariance(t *testing.T) {
	fastKernelPaths(t, func(t *testing.T) {
		for _, cat := range identityCatalogs(t) {
			plan := Compile(cat)
			const windows = 13
			type obs struct {
				id        uarch.EventID
				mean, std float64
			}
			jobs := make([][]obs, windows)
			solo := make([]Result, windows)
			one := plan.NewBatch(1)
			one.FastMath = true
			one.EnableCovariance()
			for w := 0; w < windows; w++ {
				r := rng.New(uint64(w)*31 + 5)
				observeRound(cat, r, func(id uarch.EventID, mean, std float64) {
					jobs[w] = append(jobs[w], obs{id, mean, std})
				})
				one.ClearObservations()
				for _, o := range jobs[w] {
					one.Observe(0, o.id, o.mean, o.std)
				}
				solo[w] = one.Execute(1, 200, 1e-9).Window(0)
			}
			for _, lanes := range []int{2, 5, 64} {
				batch := plan.NewBatch(lanes)
				batch.FastMath = true
				batch.EnableCovariance()
				for start := 0; start < windows; start += lanes {
					n := windows - start
					if n > lanes {
						n = lanes
					}
					batch.ClearObservations()
					for lane := 0; lane < n; lane++ {
						for _, o := range jobs[start+lane] {
							batch.Observe(lane, o.id, o.mean, o.std)
						}
					}
					res := batch.Execute(n, 200, 1e-9)
					for lane := 0; lane < n; lane++ {
						got := res.Window(lane)
						want := solo[start+lane]
						if got.Iters != want.Iters || got.Converged != want.Converged {
							t.Fatalf("%s lanes=%d window %d: iteration trace (%d, %v) vs solo (%d, %v)",
								cat.Arch, lanes, start+lane, got.Iters, got.Converged, want.Iters, want.Converged)
						}
						for id := range want.Mean {
							if got.Mean[id] != want.Mean[id] || got.Std[id] != want.Std[id] {
								t.Fatalf("%s lanes=%d window %d event %d: mean %v vs %v, std %v vs %v",
									cat.Arch, lanes, start+lane, id,
									got.Mean[id], want.Mean[id], got.Std[id], want.Std[id])
							}
						}
						for ri := range cat.Rels {
							for _, ta := range cat.Rels[ri].Terms {
								for _, tb := range cat.Rels[ri].Terms {
									if got.Cov(ta.Event, tb.Event) != want.Cov(ta.Event, tb.Event) {
										t.Fatalf("%s lanes=%d window %d: clique cov (%d,%d) diverged",
											cat.Arch, lanes, start+lane, ta.Event, tb.Event)
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestGraphSetFastMath covers the one-lane wrapper's opt-in: Infer with
// fast math keeps its means within the accuracy gate of the default
// closed-form wrapper, and toggling back restores bit-exact behavior (no
// state leaks between modes).
func TestGraphSetFastMath(t *testing.T) {
	cat := uarch.Skylake()
	exact := Build(cat)
	g := Build(cat)
	r := rng.New(13)
	observeRound(cat, r, func(id uarch.EventID, mean, std float64) {
		exact.Observe(id, mean, std)
		g.Observe(id, mean, std)
	})
	want := exact.Infer(200, 1e-9)

	g.SetFastMath(true)
	fast := g.Infer(200, 1e-9)
	for id := range want.Mean {
		dm := math.Abs(fast.Mean[id]-want.Mean[id]) / math.Max(math.Abs(want.Mean[id]), 1)
		if dm > fastAccuracyTol {
			t.Fatalf("fast Infer event %d: mean %v vs exact %v", id, fast.Mean[id], want.Mean[id])
		}
	}

	g.SetFastMath(false)
	back := g.Infer(200, 1e-9)
	for id := range want.Mean {
		if back.Mean[id] != want.Mean[id] || back.Std[id] != want.Std[id] {
			t.Fatalf("event %d: posteriors not bit-exact after toggling fast math off", id)
		}
	}
}
