package graph

import (
	"math"
	"path/filepath"
	"testing"

	"bayesperf/internal/rng"
	"bayesperf/internal/uarch"
)

// This file freezes the pre-compilation message-passing implementation
// (the per-window, slice-of-slices loop that shipped before the
// compile/execute refactor) verbatim, as the bit-exactness oracle: a
// one-lane batch — and therefore every lane of a wider batch — must
// reproduce its posteriors bit for bit on every catalog, observed subset,
// and inference budget.

type refObservation struct {
	mean float64
	std  float64
}

type refGraph struct {
	cat      *uarch.Catalog
	obs      []refObservation
	observed []bool
}

func refBuild(cat *uarch.Catalog) *refGraph {
	nv := cat.NumEvents()
	return &refGraph{
		cat:      cat,
		obs:      make([]refObservation, nv),
		observed: make([]bool, nv),
	}
}

func (g *refGraph) observe(id uarch.EventID, mean, std float64) {
	g.obs[id] = refObservation{mean: mean, std: std}
	g.observed[id] = true
}

// refResult is the legacy single-window posterior.
type refResult struct {
	Mean, Std []float64
	Iters     int
	Converged bool
}

// refInfer is the legacy Infer, byte-for-byte in its arithmetic.
func (g *refGraph) refInfer(maxIter int, tol float64) refResult {
	nv := g.cat.NumEvents()
	rels := g.cat.Rels

	scale := 1.0
	for i, o := range g.obs {
		if g.observed[i] && math.Abs(o.mean) > scale {
			scale = math.Abs(o.mean)
		}
	}

	const priorPrec = 1e-12
	unary := make([]natural, nv)
	scaledMeans := make([]float64, nv)
	for i, o := range g.obs {
		unary[i] = natural{prec: priorPrec}
		scaledMeans[i] = 0
		if g.observed[i] {
			m, s := o.mean/scale, o.std/scale
			unary[i] = unary[i].add(fromMoments(m, s*s))
			scaledMeans[i] = m
		}
	}

	relVar := make([]float64, len(rels))
	for ri, r := range rels {
		mag := r.Magnitude(scaledMeans)
		if mag < 1e-6 {
			mag = 1e-6
		}
		sd := r.RelTol * mag
		relVar[ri] = sd * sd
	}

	msg := make([][]natural, len(rels))
	for ri, r := range rels {
		msg[ri] = make([]natural, len(r.Terms))
	}
	belief := make([]natural, nv)
	copy(belief, unary)

	means := make([]float64, nv)
	for i := range means {
		means[i], _ = belief[i].moments()
	}

	iters := 0
	converged := false
	for iters = 1; iters <= maxIter; iters++ {
		maxDelta := 0.0
		for ri, r := range rels {
			for k, t := range r.Terms {
				muJ := 0.0
				varJ := relVar[ri]
				for k2, t2 := range r.Terms {
					if k2 == k {
						continue
					}
					m, v := belief[t2.Event].sub(msg[ri][k2]).moments()
					muJ += t2.Coeff * m
					varJ += t2.Coeff * t2.Coeff * v
				}
				cj := t.Coeff
				newMsg := fromMoments(-muJ/cj, varJ/(cj*cj))
				old := msg[ri][k]
				damped := natural{
					prec: damping*newMsg.prec + (1-damping)*old.prec,
					h:    damping*newMsg.h + (1-damping)*old.h,
				}
				belief[t.Event] = belief[t.Event].sub(old).add(damped)
				msg[ri][k] = damped
			}
		}
		for i := range means {
			m, _ := belief[i].moments()
			if d := math.Abs(m - means[i]); d > maxDelta {
				maxDelta = d
			}
			means[i] = m
		}
		if maxDelta < tol {
			converged = true
			break
		}
	}
	if iters > maxIter {
		iters = maxIter
	}

	res := refResult{
		Mean:      make([]float64, nv),
		Std:       make([]float64, nv),
		Iters:     iters,
		Converged: converged,
	}
	for i := range res.Mean {
		m, v := belief[i].moments()
		res.Mean[i] = m * scale
		res.Std[i] = math.Sqrt(v) * scale
	}
	return res
}

// identityCatalogs returns every catalog the bit-identity contract is
// asserted on: both builder catalogs plus the JSON specs shipped under
// examples/catalogs.
func identityCatalogs(t *testing.T) []*uarch.Catalog {
	t.Helper()
	cats := uarch.Catalogs()
	for _, file := range []string{"zen.json", "neoverse.json"} {
		spec, err := uarch.LoadSpecFile(filepath.Join("..", "..", "examples", "catalogs", file))
		if err != nil {
			t.Fatalf("loading %s: %v", file, err)
		}
		cat, err := spec.Catalog()
		if err != nil {
			t.Fatalf("building %s: %v", file, err)
		}
		cats = append(cats, cat)
	}
	return cats
}

// observeRound observes a pseudo-random subset of events with noisy values
// on all targets identically. Roughly one event in six stays unobserved.
func observeRound(cat *uarch.Catalog, r *rng.Rand, observe func(id uarch.EventID, mean, std float64)) {
	for id := 0; id < cat.NumEvents(); id++ {
		if r.Float64() < 1.0/6 {
			continue
		}
		base := 1e6 * (1 + 50*r.Float64())
		std := (0.005 + 0.05*r.Float64()) * base
		observe(uarch.EventID(id), r.Gaussian(base, std), std)
	}
}

// TestInferBitIdenticalToReference pins the message-passing schedule: with
// the direct solver switched off, a one-lane batch reproduces the legacy
// implementation's posteriors bit for bit — Mean, Std, Iters and
// Converged — on both builder catalogs and both shipped JSON catalogs,
// across observed subsets and inference budgets (including budgets too
// small to converge). TestFallbackBitIdenticalToReference pins the same
// schedule where the default path falls back to it.
func TestInferBitIdenticalToReference(t *testing.T) {
	forceMessagePassing(t)
	for _, cat := range identityCatalogs(t) {
		g := solo(cat)
		for round := 0; round < 4; round++ {
			r := rng.New(uint64(100*round) + 7)
			ref := refBuild(cat)
			g.ClearObservations()
			observeRound(cat, r, func(id uarch.EventID, mean, std float64) {
				ref.observe(id, mean, std)
				g.Observe(0, id, mean, std)
			})
			maxIter, tol := 200, 1e-9
			if round == 2 {
				maxIter = 3 // too few sweeps: the unconverged path must match too
			}
			if round == 3 {
				tol = 1e-4
			}
			want := ref.refInfer(maxIter, tol)
			got := g.ExecuteInto(nil, 1, maxIter, tol)
			if got.Iters[0] != want.Iters || got.Converged[0] != want.Converged {
				t.Fatalf("%s round %d: iteration trace (%d, %v) vs reference (%d, %v)",
					cat.Arch, round, got.Iters[0], got.Converged[0], want.Iters, want.Converged)
			}
			for id := range want.Mean {
				if got.Mean[id] != want.Mean[id] || got.Std[id] != want.Std[id] {
					t.Fatalf("%s round %d event %d (%s): mean %v vs %v, std %v vs %v",
						cat.Arch, round, id, cat.Event(uarch.EventID(id)).Name,
						got.Mean[id], want.Mean[id], got.Std[id], want.Std[id])
				}
			}
		}
	}
}

// TestExecuteLaneInvariance is the batching contract: a window's posterior
// is bit-identical whether it runs alone in a one-lane batch or packed into
// any lane of any wider batch, including partially filled ones — Mean,
// Std, Iters, Converged, every clique covariance entry, and BatchResult.Corr
// for every event pair (pairs sharing no clique included). Every third
// window leaves a whole relation unobserved, so batches mix windows the
// direct solver certifies with windows that fall back to message passing,
// and neither kind may perturb the other.
func TestExecuteLaneInvariance(t *testing.T) {
	for _, cat := range identityCatalogs(t) {
		plan := Compile(cat)
		nv := cat.NumEvents()
		const windows = 13
		jobs := make([][]obsEntry, windows)
		alone := make([]*BatchResult, windows)
		aloneSolved := make([]bool, windows)
		g := solo(cat)
		for w := 0; w < windows; w++ {
			r := rng.New(uint64(w)*31 + 5)
			observeRound(cat, r, func(id uarch.EventID, mean, std float64) {
				jobs[w] = append(jobs[w], obsEntry{id, mean, std})
			})
			if w%3 == 1 {
				var rel []uarch.EventID
				for _, term := range cat.Rels[(w/3)%len(cat.Rels)].Terms {
					rel = append(rel, term.Event)
				}
				jobs[w] = without(jobs[w], rel...)
			}
			g.ClearObservations()
			for _, o := range jobs[w] {
				g.Observe(0, o.id, o.mean, o.std)
			}
			alone[w] = g.ExecuteInto(nil, 1, 200, 1e-9)
			aloneSolved[w] = g.solved[0]
		}
		coupled := 0
		for _, lanes := range []int{2, 5, 64} {
			batch := plan.NewBatch(lanes)
			batch.EnableCovariance()
			mixed := false
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
				res := batch.ExecuteInto(nil, n, 200, 1e-9)
				if batch.nSolved > 0 && batch.nSolved < n {
					mixed = true
				}
				for lane := 0; lane < n; lane++ {
					w := start + lane
					want := alone[w]
					if batch.solved[lane] != aloneSolved[w] {
						t.Fatalf("%s lanes=%d window %d: solved=%v in the batch, %v alone",
							cat.Arch, lanes, w, batch.solved[lane], aloneSolved[w])
					}
					if res.Iters[lane] != want.Iters[0] || res.Converged[lane] != want.Converged[0] {
						t.Fatalf("%s lanes=%d window %d: iteration trace (%d, %v) vs alone (%d, %v)",
							cat.Arch, lanes, w, res.Iters[lane], res.Converged[lane], want.Iters[0], want.Converged[0])
					}
					for id := 0; id < nv; id++ {
						gm, gs := res.Mean[id*n+lane], res.Std[id*n+lane]
						if gm != want.Mean[id] || gs != want.Std[id] {
							t.Fatalf("%s lanes=%d window %d event %d: mean %v vs %v, std %v vs %v",
								cat.Arch, lanes, w, id, gm, want.Mean[id], gs, want.Std[id])
						}
					}
					for ri := range cat.Rels {
						for _, ta := range cat.Rels[ri].Terms {
							for _, tb := range cat.Rels[ri].Terms {
								if laneCov(res, lane, ta.Event, tb.Event) != laneCov(want, 0, ta.Event, tb.Event) {
									t.Fatalf("%s lanes=%d window %d: clique cov (%d,%d) diverged",
										cat.Arch, lanes, w, ta.Event, tb.Event)
								}
							}
						}
					}
					for i := 0; i < nv; i++ {
						for j := 0; j < nv; j++ {
							a, b := uarch.EventID(i), uarch.EventID(j)
							got, exp := res.Corr(lane, a, b), want.Corr(0, a, b)
							if math.Float64bits(got) != math.Float64bits(exp) {
								t.Fatalf("%s lanes=%d window %d: Corr(%d,%d) = %v, alone %v",
									cat.Arch, lanes, w, i, j, got, exp)
							}
							if got != 0 && i != j {
								coupled++
							}
						}
					}
				}
			}
			if !mixed {
				t.Fatalf("%s lanes=%d: no batch mixed certified and fallback windows", cat.Arch, lanes)
			}
		}
		if coupled == 0 {
			t.Fatalf("%s: no coupled pair had a nonzero correlation", cat.Arch)
		}
	}
}
