package graph

import (
	"math"
	"testing"

	"bayesperf/internal/measure"
	"bayesperf/internal/rng"
	"bayesperf/internal/uarch"
)

// forceMessagePassing routes every window through the message-passing
// schedule for the rest of the test.
func forceMessagePassing(t *testing.T) {
	t.Helper()
	saved := directSolveEnabled
	directSolveEnabled = false
	t.Cleanup(func() { directSolveEnabled = saved })
}

// executeMessagePassing runs one ExecuteInto on the message-passing
// schedule.
func executeMessagePassing(b *Batch, n, maxIter int, tol float64) *BatchResult {
	saved := directSolveEnabled
	directSolveEnabled = false
	defer func() { directSolveEnabled = saved }()
	return b.ExecuteInto(nil, n, maxIter, tol)
}

// obsEntry is one observation of a test window.
type obsEntry struct {
	id        uarch.EventID
	mean, std float64
}

// truthWindows draws count fully observed windows from a ground-truth trace
// of cat: every event is observed around its true interval value with a
// relative std between 0.5% and 5.5%, like observeRound.
func truthWindows(cat *uarch.Catalog, count int, seed uint64) [][]obsEntry {
	tr := measure.GroundTruth(cat, measure.DefaultWorkload((count+2)/3), rng.New(seed))
	r := rng.New(seed + 1)
	out := make([][]obsEntry, count)
	for w := range out {
		for id := range tr.Series {
			truth := tr.Series[id][w]
			std := math.Max((0.005+0.05*r.Float64())*truth, 1)
			out[w] = append(out[w], obsEntry{uarch.EventID(id), r.Gaussian(truth, std), std})
		}
	}
	return out
}

// without drops the observations of the given events from a window.
func without(win []obsEntry, drop ...uarch.EventID) []obsEntry {
	var out []obsEntry
	for _, o := range win {
		kept := true
		for _, id := range drop {
			if o.id == id {
				kept = false
			}
		}
		if kept {
			out = append(out, o)
		}
	}
	return out
}

// observeLanes clears the batch and observes windows[lane] on each lane.
func observeLanes(b *Batch, windows [][]obsEntry) {
	b.ClearObservations()
	for lane, win := range windows {
		for _, o := range win {
			b.Observe(lane, o.id, o.mean, o.std)
		}
	}
}

// oracleWindow is one window's exact posterior, in original units.
type oracleWindow struct {
	mean, std []float64
	cov       [][]float64
}

// denseOracle solves one lane of the batch's last ExecuteInto independently of
// the compiled schedule: it assembles the scaled Λ and h as plain
// [][]float64 from the batch's unary and relation-noise slabs, inverts Λ by
// Gauss-Jordan elimination with partial pivoting, and rescales.
func denseOracle(b *Batch, lane int) oracleWindow {
	nv, B := b.plan.nv, b.lanes
	a := make([][]float64, nv)
	for i := range a {
		a[i] = make([]float64, 2*nv)
		a[i][i] = b.unaryPrec[i*B+lane]
		a[i][nv+i] = 1
	}
	for ri, r := range b.plan.cat.Rels {
		w := 1 / b.relVar[ri*B+lane]
		for _, ta := range r.Terms {
			for _, tb := range r.Terms {
				a[ta.Event][tb.Event] += ta.Coeff * tb.Coeff * w
			}
		}
	}
	for col := 0; col < nv; col++ {
		piv := col
		for row := col + 1; row < nv; row++ {
			if math.Abs(a[row][col]) > math.Abs(a[piv][col]) {
				piv = row
			}
		}
		a[col], a[piv] = a[piv], a[col]
		d := a[col][col]
		for c := range a[col] {
			a[col][c] /= d
		}
		for row := 0; row < nv; row++ {
			if f := a[row][col]; row != col && f != 0 {
				for c := range a[row] {
					a[row][c] -= f * a[col][c]
				}
			}
		}
	}
	sc := b.scale[lane]
	w := oracleWindow{mean: make([]float64, nv), std: make([]float64, nv), cov: make([][]float64, nv)}
	for i := 0; i < nv; i++ {
		w.cov[i] = make([]float64, nv)
		var m float64
		for j := 0; j < nv; j++ {
			m += a[i][nv+j] * b.unaryH[j*B+lane]
			w.cov[i][j] = a[i][nv+j] * sc * sc
		}
		w.mean[i] = m * sc
		w.std[i] = math.Sqrt(a[i][nv+i]) * sc
	}
	return w
}

// directOracleTol is the solver's gate against the dense oracle: relative
// on means (floored at one count) and stds, and relative to σ_a·σ_b on
// clique covariances.
const directOracleTol = 1e-9

// checkAgainstOracle compares lane's solved posterior with the dense oracle
// and returns the worst relative deviation seen.
func checkAgainstOracle(t *testing.T, label string, b *Batch, res *BatchResult, lane int) float64 {
	t.Helper()
	want := denseOracle(b, lane)
	n := res.n
	worst := 0.0
	note := func(what string, dev float64) {
		t.Helper()
		if dev > directOracleTol || math.IsNaN(dev) {
			t.Fatalf("%s lane %d: %s deviates %.3g from the dense oracle", label, lane, what, dev)
		}
		worst = math.Max(worst, dev)
	}
	cat := b.plan.cat
	for i := range want.mean {
		note(cat.Events[i].Name+" mean", math.Abs(res.Mean[i*n+lane]-want.mean[i])/math.Max(math.Abs(want.mean[i]), 1))
		note(cat.Events[i].Name+" std", math.Abs(res.Std[i*n+lane]-want.std[i])/want.std[i])
	}
	for _, r := range cat.Rels {
		for _, ta := range r.Terms {
			for _, tb := range r.Terms {
				dev := math.Abs(laneCov(res, lane, ta.Event, tb.Event)-want.cov[ta.Event][tb.Event]) /
					(want.std[ta.Event] * want.std[tb.Event])
				note("clique covariance "+cat.Events[ta.Event].Name+"/"+cat.Events[tb.Event].Name, dev)
			}
		}
	}
	return worst
}

// TestDirectSolveMatchesDenseOracle is the exact kernel's correctness gate:
// on all four catalogs the closed-form posterior — means, stds and clique
// covariances — matches an independent dense inverse of the same scaled
// system within directOracleTol, on fully observed windows and on partially
// observed windows that certify. Message passing converges to the same
// means (within 1e-7 of the window scale) but not to the same variances on
// loopy relation sets; its std error is logged per catalog.
func TestDirectSolveMatchesDenseOracle(t *testing.T) {
	const lanes, rounds = 8, 100
	for _, cat := range identityCatalogs(t) {
		plan := Compile(cat)
		solver := plan.NewBatch(lanes)
		solver.EnableCovariance()
		bp := plan.NewBatch(lanes)
		full := truthWindows(cat, rounds, 17)
		worst, sumBPErr, maxBPErr, nBP := 0.0, 0.0, 0.0, 0
		for lo := 0; lo < rounds; lo += lanes {
			chunk := full[lo:min(lo+lanes, rounds)]
			n := len(chunk)
			observeLanes(solver, chunk)
			observeLanes(bp, chunk)
			res := solver.ExecuteInto(nil, n, 200, 1e-9)
			ref := executeMessagePassing(bp, n, 200, 1e-9)
			for lane := 0; lane < n; lane++ {
				if !solver.solved[lane] {
					t.Fatalf("%s window %d: fully observed window not certified", cat.Arch, lo+lane)
				}
				worst = math.Max(worst, checkAgainstOracle(t, cat.Arch+" full", solver, res, lane))
				for i := 0; i < plan.nv; i++ {
					at := i*n + lane
					if d := math.Abs(ref.Mean[at] - res.Mean[at]); d > 1e-7*solver.scale[lane] {
						t.Fatalf("%s window %d event %d: message-passing mean %v vs exact %v (%.3g of scale)",
							cat.Arch, lo+lane, i, ref.Mean[at], res.Mean[at], d/solver.scale[lane])
					}
					e := math.Abs(ref.Std[at]-res.Std[at]) / res.Std[at]
					sumBPErr += e
					maxBPErr = math.Max(maxBPErr, e)
					nBP++
				}
			}
		}

		// Partially observed windows: one event in six unobserved.
		certified, fellBack := 0, 0
		r := rng.New(29)
		for round := 0; round < rounds/lanes; round++ {
			solver.ClearObservations()
			for lane := 0; lane < lanes; lane++ {
				observeRound(cat, r, func(id uarch.EventID, mean, std float64) {
					solver.Observe(lane, id, mean, std)
				})
			}
			res := solver.ExecuteInto(nil, lanes, 200, 1e-9)
			for lane := 0; lane < lanes; lane++ {
				if !solver.solved[lane] {
					fellBack++
					continue
				}
				certified++
				worst = math.Max(worst, checkAgainstOracle(t, cat.Arch+" partial", solver, res, lane))
			}
		}
		if certified == 0 {
			t.Fatalf("%s: no partially observed window certified", cat.Arch)
		}
		t.Logf("%s: worst deviation from the oracle %.2g; message-passing std error mean %.2g%% max %.3g%%; partial windows %d certified, %d fell back",
			cat.Arch, worst, 100*sumBPErr/float64(nBP), 100*maxBPErr, certified, fellBack)
	}
}

// unobservedCases returns, for every relation of cat, two ways to leave it
// unobserved: two of its terms, and all of them. A case that falls back to
// message passing either leaves a direction undetermined or leaves the
// relations that pin its unobserved events too ill-conditioned to certify.
func unobservedCases(cat *uarch.Catalog) (names []string, drops [][]uarch.EventID) {
	for _, r := range cat.Rels {
		var all []uarch.EventID
		for _, t := range r.Terms {
			all = append(all, t.Event)
		}
		names = append(names, r.Name+"/two-terms", r.Name+"/whole")
		drops = append(drops, all[:2], all)
	}
	return names, drops
}

// TestPartialObservationFinite: whatever part of a relation goes
// unobserved — two of its terms, or all of them — every posterior on every
// catalog stays finite with a positive std, whether the window certifies or
// falls back to message passing.
func TestPartialObservationFinite(t *testing.T) {
	for _, cat := range identityCatalogs(t) {
		base := truthWindows(cat, 1, 41)[0]
		g := solo(cat)
		names, drops := unobservedCases(cat)
		fellBack := 0
		for ci, drop := range drops {
			g.ClearObservations()
			for _, o := range without(base, drop...) {
				g.Observe(0, o.id, o.mean, o.std)
			}
			res := g.ExecuteInto(nil, 1, 200, 1e-9)
			if !g.solved[0] {
				fellBack++
			}
			for id := range res.Mean {
				m, s := res.Mean[id], res.Std[id]
				if math.IsNaN(m) || math.IsInf(m, 0) || !(s > 0) || math.IsInf(s, 0) {
					t.Fatalf("%s %s: event %s posterior mean %v std %v", cat.Arch, names[ci],
						cat.Events[id].Name, m, s)
				}
			}
			for _, r := range cat.Rels {
				for _, ta := range r.Terms {
					for _, tb := range r.Terms {
						if c := res.Corr(0, ta.Event, tb.Event); math.IsNaN(c) || c < -1 || c > 1 {
							t.Fatalf("%s %s: Corr(%d,%d) = %v", cat.Arch, names[ci], ta.Event, tb.Event, c)
						}
					}
				}
			}
		}
		if fellBack == 0 {
			t.Fatalf("%s: no undetermined relation fell back to message passing", cat.Arch)
		}
		t.Logf("%s: %d of %d undetermined-relation windows fell back", cat.Arch, fellBack, len(drops))
	}
}

// TestFallbackBitIdenticalToReference: a window the direct solver cannot
// certify runs on the default path exactly as the frozen reference runs it,
// bit for bit — Mean, Std, Iters and Converged.
func TestFallbackBitIdenticalToReference(t *testing.T) {
	for _, cat := range identityCatalogs(t) {
		base := truthWindows(cat, 1, 43)[0]
		g := solo(cat)
		_, drops := unobservedCases(cat)
		compared := 0
		for _, drop := range drops {
			ref := refBuild(cat)
			g.ClearObservations()
			for _, o := range without(base, drop...) {
				ref.observe(o.id, o.mean, o.std)
				g.Observe(0, o.id, o.mean, o.std)
			}
			got := g.ExecuteInto(nil, 1, 200, 1e-9)
			if g.solved[0] {
				continue
			}
			compared++
			want := ref.refInfer(200, 1e-9)
			if got.Iters[0] != want.Iters || got.Converged[0] != want.Converged {
				t.Fatalf("%s: iteration trace (%d, %v) vs reference (%d, %v)",
					cat.Arch, got.Iters[0], got.Converged[0], want.Iters, want.Converged)
			}
			for id := range want.Mean {
				if got.Mean[id] != want.Mean[id] || got.Std[id] != want.Std[id] {
					t.Fatalf("%s event %d: mean %v vs %v, std %v vs %v",
						cat.Arch, id, got.Mean[id], want.Mean[id], got.Std[id], want.Std[id])
				}
			}
		}
		if compared == 0 {
			t.Fatalf("%s: no window fell back", cat.Arch)
		}
	}
}

// TestScaleEquivariance checks the claim behind rescaling every window to
// O(1): multiplying every observed mean and std by a power of two k
// multiplies every posterior mean and std by k and every clique covariance
// by k², bit for bit, on windows the solver certifies and on windows that
// fall back to message passing alike. Precondition: the largest observed
// |mean| stays ≥ 1 after scaling, because the window scale is floored at 1;
// below that the scaled problem itself changes.
func TestScaleEquivariance(t *testing.T) {
	windows, fellBack := 0, 0
	for _, cat := range identityCatalogs(t) {
		base := truthWindows(cat, 1, 47)[0]
		cases := [][]obsEntry{base}
		_, drops := unobservedCases(cat)
		for _, drop := range drops {
			cases = append(cases, without(base, drop...))
		}
		g := solo(cat)
		infer := func(win []obsEntry, k float64) (*BatchResult, bool) {
			g.ClearObservations()
			for _, o := range win {
				g.Observe(0, o.id, k*o.mean, k*o.std)
			}
			return g.ExecuteInto(nil, 1, 200, 1e-9), g.solved[0]
		}
		for ci, win := range cases {
			largest := 0.0
			for _, o := range win {
				largest = math.Max(largest, math.Abs(o.mean))
			}
			want, solved := infer(win, 1)
			windows++
			if !solved {
				fellBack++
			}
			for _, k := range []float64{0x1p20, 0x1p-3} {
				if largest*k < 1 {
					t.Fatalf("%s case %d: largest |mean| %v scaled by %v falls below the scale floor",
						cat.Arch, ci, largest, k)
				}
				got, gotSolved := infer(win, k)
				if gotSolved != solved || got.Iters[0] != want.Iters[0] || got.Converged[0] != want.Converged[0] {
					t.Fatalf("%s case %d ×%v: (solved, iters, converged) = (%v, %d, %v), unscaled (%v, %d, %v)",
						cat.Arch, ci, k, gotSolved, got.Iters[0], got.Converged[0], solved, want.Iters[0], want.Converged[0])
				}
				for id := range want.Mean {
					if got.Mean[id] != k*want.Mean[id] || got.Std[id] != k*want.Std[id] {
						t.Fatalf("%s case %d ×%v event %d: mean %v std %v, want %v and %v",
							cat.Arch, ci, k, id, got.Mean[id], got.Std[id], k*want.Mean[id], k*want.Std[id])
					}
				}
				for _, r := range cat.Rels {
					for _, ta := range r.Terms {
						for _, tb := range r.Terms {
							if c, w := laneCov(got, 0, ta.Event, tb.Event), k*k*laneCov(want, 0, ta.Event, tb.Event); c != w {
								t.Fatalf("%s case %d ×%v: clique cov (%d,%d) = %v, want %v",
									cat.Arch, ci, k, ta.Event, tb.Event, c, w)
							}
						}
					}
				}
			}
		}
	}
	if fellBack == 0 {
		t.Fatal("no window fell back to message passing")
	}
	t.Logf("%d windows × 2 factors, %d of them fallback windows", windows, fellBack)
}

// TestSolveScheduleShape pins the compiled schedule of the shipped
// catalogs: minimum-degree ordering keeps L's pattern fill-free, so the
// factor has exactly the off-diagonal entries of Λ.
func TestSolveScheduleShape(t *testing.T) {
	for _, cat := range identityCatalogs(t) {
		p := Compile(cat)
		s := &p.solve
		nnz := 0
		for u := 0; u < p.nv; u++ {
			for v := 0; v < u; v++ {
				for _, r := range cat.Rels {
					if relationHas(r, u) && relationHas(r, v) {
						nnz++
						break
					}
				}
			}
		}
		if got := s.nSlots - p.nv; got != nnz {
			t.Errorf("%s: L has %d off-diagonal entries, Λ has %d (fill %d)", cat.Arch, got, nnz, got-nnz)
		}
		t.Logf("%s: %d events, %d off-diagonal slots, %d assembly, %d factor-update, %d inverse-term ops",
			cat.Arch, p.nv, s.nSlots-p.nv, len(s.asm), len(s.upd), len(s.term))
	}
}

func relationHas(r uarch.Relation, id int) bool {
	for _, t := range r.Terms {
		if int(t.Event) == id {
			return true
		}
	}
	return false
}
