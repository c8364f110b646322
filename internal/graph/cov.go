// Clique posterior covariances. Gaussian message passing maintains only
// per-variable marginals, which is why the delta method over them must
// treat derived-metric inputs as independent. The factor graph knows more:
// at a fixed point, the joint posterior of the variables in one relation
// clique is approximated (exactly, on tree-structured relation sets) by
// the clique's factor times each member's cavity marginal,
//
//	q(x_clique) ∝ N(Σᵢ cᵢxᵢ; 0, σ_r²) · Πⱼ cavityⱼ(xⱼ),
//
// a Gaussian whose precision matrix is diag(pⱼ) + c cᵀ/σ_r² with
// pⱼ the cavity precision (belief minus the clique's own message). Its
// inverse — the clique posterior covariance — follows in closed form from
// the Sherman–Morrison identity:
//
//	Cov(xⱼ, xₗ) = δⱼₗ·dⱼ − dⱼcⱼ · cₗdₗ / (σ_r² + Σᵢ cᵢ²dᵢ),  dⱼ = 1/pⱼ.
//
// Execute extracts these k×k blocks after convergence for every lane that
// ran message passing; lanes the direct solver answered read the exact
// blocks from its selected inverse instead (solve.go), in the same layout.
// Result.Cov and Result.Corr expose them, and DerivedPosteriorCov feeds
// them to the delta method so e.g. a ratio whose numerator and denominator
// share an invariant stops over- (or under-) counting their coupling.
package graph

import (
	"fmt"
	"math"

	"bayesperf/internal/uarch"
)

// extractCovariances fills res.cov with every relation clique's posterior
// covariance for every executed lane that ran message passing, in the
// lane's original (unscaled) units.
//
//bayesperf:hotpath
func (b *Batch) extractCovariances(res *BatchResult) {
	p := b.plan
	if !b.needCov || p.nCov == 0 {
		return
	}
	n, B := res.n, b.lanes
	d, cd := b.covD, b.covCD
	denom := b.muJ[:n] // reuse Execute scratch: σ_r² + Σ c²·d per lane
	solved := b.solved[:n]

	for ri := 0; ri < p.nRels; ri++ {
		eStart, eEnd := p.factorOff[ri], p.factorOff[ri+1]
		k := eEnd - eStart
		copy(denom, b.relVar[ri*B:ri*B+n])
		for j := 0; j < k; j++ {
			e := eStart + j
			c := p.edgeCoeff[e]
			bp := b.beliefPrec[p.edgeVar[e]*B : p.edgeVar[e]*B+n]
			mp := b.msgPrec[e*B : e*B+n]
			dj := d[j*n : j*n+n]
			cdj := cd[j*n : j*n+n]
			for lane := range dj {
				// Cavity variance with the same vanishing-precision guard
				// as natural.moments: near-zero precision behaves as flat.
				_, v := natural{prec: bp[lane] - mp[lane]}.moments()
				dj[lane] = v
				cdj[lane] = c * v
				denom[lane] += c * c * v
			}
		}
		covBase := p.covOff[ri]
		for j := 0; j < k; j++ {
			cj := p.edgeCoeff[eStart+j]
			dj := d[j*n : j*n+n]
			for l := j; l < k; l++ {
				cdl := cd[l*n : l*n+n]
				outJL := res.cov[(covBase+j*k+l)*n:]
				outLJ := res.cov[(covBase+l*k+j)*n:]
				for lane := 0; lane < n; lane++ {
					if solved[lane] {
						continue // read from the selected inverse (readSolved)
					}
					cov := -dj[lane] * cj * cdl[lane] / denom[lane]
					if l == j {
						cov += dj[lane]
					}
					cov *= b.scale[lane] * b.scale[lane]
					outJL[lane] = cov
					outLJ[lane] = cov
				}
			}
		}
	}
}

// Cov returns the posterior covariance of two events: the marginal variance
// on the diagonal, the clique covariance when the pair shares at least one
// relation factor (the first declaring relation wins), and 0 otherwise —
// events not coupled by any invariant carry no tracked covariance.
func (r *Result) Cov(i, j uarch.EventID) float64 {
	if i == j {
		return r.Std[i] * r.Std[i]
	}
	if r.plan == nil || r.cov == nil {
		return 0
	}
	loc, ok := r.plan.pairLoc[pairKey(i, j)]
	if !ok {
		return 0
	}
	k := r.plan.factorOff[loc.rel+1] - r.plan.factorOff[loc.rel]
	return r.cov[r.plan.covOff[loc.rel]+loc.a*k+loc.b]
}

// corrOf normalizes one clique covariance entry against its diagonal into
// a ±1-clamped correlation, guarding degenerate variances.
func corrOf(cab, caa, cbb float64) float64 {
	den := math.Sqrt(caa * cbb)
	if den <= 0 || math.IsNaN(den) || math.IsInf(den, 0) {
		return 0
	}
	rho := cab / den
	if rho > 1 {
		rho = 1
	} else if rho < -1 {
		rho = -1
	}
	if math.IsNaN(rho) {
		return 0
	}
	return rho
}

// Corr returns the posterior correlation of two events, computed within
// their shared clique's covariance block (so it is ±1-bounded by
// construction) and clamped against floating-point spill. Pairs sharing no
// relation return 0.
func (r *Result) Corr(i, j uarch.EventID) float64 {
	if i == j {
		return 1
	}
	if r.plan == nil || r.cov == nil {
		return 0
	}
	loc, ok := r.plan.pairLoc[pairKey(i, j)]
	if !ok {
		return 0
	}
	base := r.plan.covOff[loc.rel]
	k := r.plan.factorOff[loc.rel+1] - r.plan.factorOff[loc.rel]
	return corrOf(r.cov[base+loc.a*k+loc.b], r.cov[base+loc.a*k+loc.a], r.cov[base+loc.b*k+loc.b])
}

// Corr is Result.Corr read straight from one lane of the batch's
// clique-entry-major covariance slab, with the same arithmetic, so callers
// that only need a few correlations per window skip Window's copies.
func (r *BatchResult) Corr(lane int, i, j uarch.EventID) float64 {
	if lane < 0 || lane >= r.n {
		panic(fmt.Sprintf("graph: Corr on lane %d of a %d-window result", lane, r.n))
	}
	if i == j {
		return 1
	}
	if r.cov == nil {
		return 0
	}
	loc, ok := r.plan.pairLoc[pairKey(i, j)]
	if !ok {
		return 0
	}
	base := r.plan.covOff[loc.rel]
	k := r.plan.factorOff[loc.rel+1] - r.plan.factorOff[loc.rel]
	n := r.n
	return corrOf(r.cov[(base+loc.a*k+loc.b)*n+lane],
		r.cov[(base+loc.a*k+loc.a)*n+lane], r.cov[(base+loc.b*k+loc.b)*n+lane])
}

// DerivedPosteriorCov propagates the posterior through a derived-event
// formula like DerivedPosterior, but feeds the delta method the full
// posterior covariance over the formula's inputs: clique correlations from
// the factor graph times the marginal stds. Input pairs that share no
// invariant contribute no cross term, so on a catalog whose derived inputs
// are uncoupled this reduces bit-for-bit to the diagonal DerivedPosterior.
func (r *Result) DerivedPosteriorCov(d *uarch.Derived) (mean, std float64) {
	in := make([]float64, len(d.Inputs))
	sd := make([]float64, len(d.Inputs))
	for i, id := range d.Inputs {
		in[i] = r.Mean[id]
		sd[i] = r.Std[id]
	}
	corr := func(i, j int) float64 { return r.Corr(d.Inputs[i], d.Inputs[j]) }
	return d.Eval(in), d.PropagateStdCov(in, sd, corr)
}
