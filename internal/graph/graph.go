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
// elimination schedule), and Batch.ExecuteInto runs inference for many
// windows simultaneously over contiguous structure-of-arrays slabs (see
// plan.go). One window is a one-lane batch. With the direct solver switched
// off, the message-passing posteriors are bit-identical to the
// pre-compilation implementation (asserted against a reference copy in the
// tests).
//
// The graph works on whatever unit the caller observes (per-interval rates
// or whole-run totals); internally all quantities are rescaled to O(1) so
// the weak proper prior and the convergence tolerance are scale-free.
package graph

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
