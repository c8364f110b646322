// Package graph implements BayesPerf's inference layer: a Gaussian factor
// graph over the events of one uarch.Catalog, with a variable node per event
// and a factor node per measurement and per microarchitectural invariant
// (§4 of the paper). Per window the model is linear-Gaussian, so its exact
// posterior is one small sparse SPD solve, computed in closed form
// (solve.go): a compiled sparse Cholesky factorization for the means, and a
// selected inverse for the marginal variances and the relation-clique
// covariances. A window whose factorization cannot be certified — the data
// leave some direction undetermined, or the relations pinning the
// unobserved events are too ill-conditioned — falls back to iterative
// Gaussian message passing (loopy BP, the Gaussian special case of
// expectation propagation). Message passing converges to the exact means;
// its variances are exact only on tree-structured relation sets.
//
// The engine is two-phase: Compile lowers a catalog once into a flat Plan
// (dense index arrays, a precomputed message schedule, and a sparse
// elimination schedule), and Batch.Execute runs inference for many windows
// simultaneously over contiguous structure-of-arrays slabs (see plan.go).
// The Graph type below is the legacy single-window surface, a thin wrapper
// over a one-lane batch. With the direct solver switched off, its
// message-passing posteriors are bit-identical to the pre-compilation
// implementation (asserted against a reference copy in the tests).
//
// The graph works on whatever unit the caller observes (per-interval rates
// or whole-run totals); internally all quantities are rescaled to O(1) so
// the weak proper prior and the convergence tolerance are scale-free.
package graph

import (
	"bayesperf/internal/uarch"
)

// natural is a Gaussian in natural parameters: precision λ = 1/σ² and
// precision-adjusted mean h = μ/σ². The zero value is the (improper)
// uninformative message.
type natural struct {
	prec float64
	h    float64
}

func (n natural) add(o natural) natural { return natural{n.prec + o.prec, n.h + o.h} }
func (n natural) sub(o natural) natural { return natural{n.prec - o.prec, n.h - o.h} }

// minPrec is the vanishing-precision floor: messages and beliefs with
// precision below it behave as flat (mean 0, variance 1/minPrec). The
// message schedule, the clique-covariance read-out and the cavity-floor
// metric share it so their guard semantics cannot drift.
const minPrec = 1e-12

// moments converts to (mean, variance), guarding against vanishing
// precision: messages with precision below minPrec behave as flat.
func (n natural) moments() (mean, variance float64) {
	if n.prec < minPrec {
		return 0, 1 / minPrec
	}
	return n.h / n.prec, 1 / n.prec
}

func fromMoments(mean, variance float64) natural {
	if variance <= 0 {
		variance = 1e-300
	}
	p := 1 / variance
	return natural{p, mean * p}
}

// damping applied to factor→variable messages (in natural parameters);
// stabilizes loopy message passing on catalogs whose relations share events.
const damping = 0.7

// Graph is the single-window inference surface for one catalog: Build it,
// Observe each measured event, then Infer. Between inference runs over the
// same catalog (e.g. successive stream windows), ClearObservations resets
// the measurement factors while keeping every allocation intact. Since the
// compile/execute refactor it is a one-lane Batch over a compiled Plan;
// callers inferring many windows should Compile once and Execute them in
// wider batches instead.
//
// A Graph is not safe for concurrent use: parallel EP engines each build
// their own (see internal/stream's worker pool).
type Graph struct {
	batch *Batch
}

// Build creates an inference graph over the catalog's events and invariants.
func Build(cat *uarch.Catalog) *Graph {
	b := Compile(cat).NewBatch(1)
	b.EnableCovariance() // single-window Results always answer Cov/Corr
	return &Graph{batch: b}
}

// Catalog returns the catalog the graph was built over.
func (g *Graph) Catalog() *uarch.Catalog { return g.batch.plan.cat }

// SetMetrics attaches the graph-layer instrument set (see Batch.SetMetrics);
// nil detaches. Posteriors are bitwise unaffected either way.
func (g *Graph) SetMetrics(m *Metrics) { g.batch.SetMetrics(m) }

// Observe attaches (or replaces) the measurement factor for an event:
// the event's value is measured as N(mean, std²). For multiplexed counters
// the std comes from the Student-t marginal of the per-interval samples
// (measure.Multiplex); std must be positive.
func (g *Graph) Observe(id uarch.EventID, mean, std float64) {
	g.batch.Observe(0, id, mean, std)
}

// ClearObservations detaches every measurement factor so the graph can be
// re-observed for the next measurement window without reallocating any of
// the graph's buffers. Invariant factors (which come from the catalog) are
// unaffected.
func (g *Graph) ClearObservations() {
	g.batch.ClearObservations()
}

// Result holds the posterior marginals after Infer (or one lane of a batch
// Execute), indexed by EventID, plus the per-relation-clique posterior
// covariances backing Cov/Corr/DerivedPosteriorCov (see cov.go).
type Result struct {
	Mean      []float64
	Std       []float64
	Iters     int
	Converged bool

	plan *Plan
	cov  []float64 // clique covariance blocks, covOff-indexed
}

// Posterior returns one event's posterior (mean, std) pair.
func (r *Result) Posterior(id uarch.EventID) (mean, std float64) {
	return r.Mean[id], r.Std[id]
}

// DerivedPosterior propagates the posterior through a derived-event
// formula (§2 "Errors in Derived Events"): the mean is the formula
// evaluated at the posterior mean, and the std is the first-order delta
// method over the posterior marginals (uarch.Derived.PropagateStd),
// treating the inputs as independent. DerivedPosteriorCov is the
// covariance-aware version.
func (r *Result) DerivedPosterior(d *uarch.Derived) (mean, std float64) {
	return d.PosteriorFrom(r.Mean, r.Std)
}

// Infer computes the window's posterior mean and std per event: in closed
// form (Iters = 1, Converged = true), or — when the factorization is not
// certified — by damped Gaussian message passing until the largest change
// in any posterior mean (relative to the problem scale) drops below tol, or
// maxIter sweeps elapse. Unobserved events are inferred purely from the
// invariants (with a weak zero-mean prior keeping their marginals proper).
func (g *Graph) Infer(maxIter int, tol float64) Result {
	return g.batch.Execute(1, maxIter, tol).Window(0)
}
