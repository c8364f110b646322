// The fast-math message schedule. The exact kernel (sweepExact) gathers,
// for every edge of a relation, the cavity moments of every *sibling* edge
// — an O(k²) walk per relation per sweep in which each cavity precision is
// re-inverted once per sibling. The fast schedule restructures the same
// fixed-point update into two O(k) passes per relation:
//
//  1. a backward cavity pass computes each edge's cavity moments (mean,
//     variance) exactly once — one precision inversion per edge — records
//     the weighted contributions w_mu = c·m and w_var = c²·v, and, running
//     j = k−1…0, also records each edge's *suffix* sums Σ_{j'>j} w;
//  2. a forward update pass accumulates the matching *prefix* sums
//     Σ_{j'<j} w, so each edge's sibling aggregate is prefix + suffix —
//     built from additions only, never by subtracting the edge out of a
//     grand total, which kills the catastrophic-cancellation hazard of a
//     pegged 1/minPrec cavity shadowing its tiny siblings. The damped
//     message then folds in with a single divide per edge: the
//     natural-parameter form of the new message is (c²/varJ, −c·muJ/varJ),
//     so no intermediate moments conversion.
//
// Convergence is detected without divisions: |h/p − h₀/p₀| < tol is tested
// as |h·p₀ − h₀·p| < tol·p·p₀ against the previous sweep's stored belief
// naturals (guarded the same way moments guards vanishing precision).
//
// Within one relation's pass the cavities are all read before any of the
// relation's messages update (Jacobi within the factor, Gauss–Seidel across
// factors). Updating edge e leaves its own cavity belief−msg unchanged, so
// on relations whose terms name distinct events — every shipped catalog —
// the two schedules compute the same mathematical update and differ only in
// floating-point summation order. The posteriors therefore agree with the
// exact message schedule to a tight relative tolerance, not bit for bit;
// TestFastMathAccuracyDelta pins that delta on all four catalogs, including
// unconverged budgets and covariance mode. Against the default closed-form
// kernel (solve.go) the means agree as closely, but the variances carry
// loopy message passing's error on catalogs whose relation graph has loops.
//
// On amd64 hosts with AVX2+FMA the whole sweep runs in a hand-written
// vector kernel (fast_amd64.s) processing four lanes per instruction —
// this is where the fast schedule's headline speedup comes from, since gc
// does not auto-vectorize floating-point loops. The pure-Go schedule below
// is the portable fallback and the reference for the vector kernel's
// structure. Both are lane-invariant bit for bit within themselves (a
// lane's posterior does not depend on the batch width or its neighbors),
// but the two implementations agree with each other — and with the exact
// kernel — only to the accuracy gate's tolerance: the vector kernel's FMA
// contractions round differently from scalar multiply-then-add.
package graph

import "math"

// maxVar is the cavity variance assigned below the vanishing-precision
// floor, matching natural.moments' guard.
const maxVar = 1 / minPrec

// ensureFastScratch sizes the scalar schedule's per-relation scratch and
// the prev-belief slabs on first use (or after a wider plan); steady-state
// sweeps reuse them, which is what lets sweepFast carry the hotpath
// annotation.
func (b *Batch) ensureFastScratch(maxK, nvB int) {
	if len(b.fastWM) < maxK {
		b.fastWM = make([]float64, maxK)
		b.fastWV = make([]float64, maxK)
		b.fastSM = make([]float64, maxK)
		b.fastSV = make([]float64, maxK)
		b.fastC = make([]float64, maxK)
		b.fastRow = make([]int, maxK)
		b.fastMsg = make([]int, maxK)
	}
	if len(b.prevP) < nvB {
		b.prevP = make([]float64, nvB)
		b.prevH = make([]float64, nvB)
	}
}

// fastVecEnabled gates the AVX2 kernel at runtime: CPU support detected on
// amd64 (fast_amd64.go), always false elsewhere. Tests flip it to exercise
// the portable schedule on vector-capable hosts.
var fastVecEnabled = hasFastVec()

// sweepFast runs the fused-cavity fast schedule on the first n lanes until
// per-lane convergence or maxIter, with the same freeze-on-convergence
// semantics as sweepExact. Lane posteriors are independent of n and of the
// batch width, bit for bit (TestFastMathLaneInvariance) — the vector kernel
// preserves this because its arithmetic is elementwise per lane.
//
//bayesperf:hotpath
func (b *Batch) sweepFast(n, maxIter int, tol float64) {
	p := b.plan
	nv, B := p.nv, b.stride
	maxK := p.maxCliqueSize()
	b.ensureFastScratch(maxK, nv*B)
	copy(b.prevP, b.beliefPrec)
	copy(b.prevH, b.beliefH)

	// The vector kernel's per-relation scratch lives in fixed 8-slot stack
	// arrays; catalogs with wider cliques fall back to the scalar schedule.
	if fastVecEnabled && maxK <= 8 {
		b.sweepFastVec(n, maxIter, tol)
		return
	}

	active := b.active[:n]
	remaining := n
	wm, wv, sm, sv, cc := b.fastWM, b.fastWV, b.fastSM, b.fastSV, b.fastC
	rowJ, msgJ := b.fastRow, b.fastMsg
	bPrec, bH := b.beliefPrec, b.beliefH
	mPrec, mH := b.msgPrec, b.msgH
	moved := b.maxDelta[:n] // 0/1 flag per lane: any mean moved ≥ tol
	for it := 1; it <= maxIter && remaining > 0; it++ {
		for ri := 0; ri < p.nRels; ri++ {
			eStart := p.factorOff[ri]
			k := p.factorOff[ri+1] - eStart
			// Hoist the per-edge indices and coefficients out of the lane
			// loop: they are sweep- and lane-invariant.
			for j := 0; j < k; j++ {
				e := eStart + j
				cc[j] = p.edgeCoeff[e]
				rowJ[j] = p.edgeVar[e] * B
				msgJ[j] = e * B
			}
			rv := b.relVar[ri*B : ri*B+n : ri*B+n]
			for lane := 0; lane < n; lane++ {
				if !active[lane] {
					continue
				}
				// Backward cavity pass: moments once per edge, weighted
				// contributions and suffix sums into stack scratch.
				accM, accV := 0.0, 0.0
				for j := k - 1; j >= 0; j-- {
					c := cc[j]
					cp := bPrec[rowJ[j]+lane] - mPrec[msgJ[j]+lane]
					mm, vv := 0.0, maxVar
					if cp >= minPrec {
						vv = 1 / cp
						mm = (bH[rowJ[j]+lane] - mH[msgJ[j]+lane]) * vv
					}
					sm[j] = accM
					sv[j] = accV
					w := c * mm
					wm[j] = w
					accM += w
					w = c * c * vv
					wv[j] = w
					accV += w
				}
				// Forward update pass: sibling aggregate = prefix + suffix,
				// one divide per edge, damped natural-parameter fold into
				// belief + message.
				preM, preV := 0.0, 0.0
				for j := 0; j < k; j++ {
					c := cc[j]
					muJ := preM + sm[j]
					varJ := rv[lane] + (preV + sv[j])
					preM += wm[j]
					preV += wv[j]
					inv := 1 / varJ
					newP := c * c * inv
					newH := -c * muJ * inv
					mi := msgJ[j] + lane
					oldP, oldH := mPrec[mi], mH[mi]
					dampedP := damping*newP + (1-damping)*oldP
					dampedH := damping*newH + (1-damping)*oldH
					bi := rowJ[j] + lane
					bPrec[bi] += dampedP - oldP
					bH[bi] += dampedH - oldH
					mPrec[mi] = dampedP
					mH[mi] = dampedH
				}
			}
		}
		// Convergence pass, divide-free: compare each belief mean against
		// the previous sweep's via cross-multiplication, honoring the
		// vanishing-precision guard (prec < minPrec reads as mean 0). The
		// guarded branch is overwhelmingly taken and per-slot stable, so it
		// predicts well; math.Abs compiles to a branchless intrinsic.
		for lane := range moved {
			moved[lane] = 0
		}
		for i := 0; i < nv; i++ {
			row := i * B
			bp := bPrec[row : row+n : row+n]
			bh := bH[row : row+n : row+n]
			pp := b.prevP[row : row+n : row+n]
			ph := b.prevH[row : row+n : row+n]
			for lane := 0; lane < n; lane++ {
				if !active[lane] {
					continue
				}
				pNew, hNew := bp[lane], bh[lane]
				pOld, hOld := pp[lane], ph[lane]
				pp[lane] = pNew
				ph[lane] = hNew
				if pNew >= minPrec && pOld >= minPrec {
					if math.Abs(hNew*pOld-hOld*pNew) >= tol*pNew*pOld {
						moved[lane] = 1
					}
				} else if pNew >= minPrec {
					if math.Abs(hNew) >= tol*pNew {
						moved[lane] = 1
					}
				} else if pOld >= minPrec {
					if math.Abs(hOld) >= tol*pOld {
						moved[lane] = 1
					}
				}
				// Both flat: mean pinned at 0, no movement.
			}
		}
		for lane := range active {
			if active[lane] && moved[lane] == 0 { //bayesvet:bitwise moved is a 0/1 flag slab, assigned never computed
				active[lane] = false
				b.converged[lane] = true
				b.iters[lane] = it
				remaining--
			}
		}
	}
}
