// Closed-form window posteriors. Per window the factor graph is
// linear-Gaussian: the unaries (observation plus the weak prior) and the
// relation factors Σ cᵢxᵢ ~ N(0, σ_r²), with σ_r fixed from the observed
// magnitudes before any inference runs. Its exact posterior is N(Λ⁻¹h, Λ⁻¹)
// with
//
//	Λ = diag(unaryPrec) + Σ_r c_r c_rᵀ / σ_r²,   h = unaryH,
//
// one small sparse SPD system per window. Compile lowers the relation graph
// into a fixed elimination schedule (compileSolve): a minimum-degree event
// order, the filled pattern of the Cholesky factor L, and flat op lists for
// assembly, factor updates, both triangular solves and the Takahashi
// selected inverse. solveDirect runs that schedule over the batch's
// lane-strided slabs. Every lane executes the same op list, so the per-lane
// arithmetic is elementwise and a lane's posterior does not depend on its
// neighbours or on the batch width.
//
// The selected inverse yields Λ⁻¹ on L's pattern, which contains every
// relation clique, so the marginal variances and the clique covariances
// behind BatchResult.Corr are exact. Loopy message passing converges to the
// same means but not to the same variances.
//
// A window whose factorization loses more than eight digits to
// cancellation is not certified: some pivot fell below certifyTol of its
// assembled diagonal. Unobserved events cause it in two ways. Either the
// relations restricted to them are rank-deficient, so the data leave a
// direction undetermined and its variance is the weak prior's; or the
// relations do pin every unobserved event, but their weights span up to
// twelve decades (1e6 to 1e18 in scaled units, against the 1e-12 prior),
// so a pivot that only a light relation pins still falls below certifyTol
// of a diagonal that a heavy one dominates. Such lanes run the
// message-passing schedule (sweepExact) instead, exactly as it ran before
// the direct solver existed.
package graph

import (
	"math"
	"sort"
)

// certifyTol is the direct solver's certification threshold: a Cholesky
// pivot below certifyTol times its assembled diagonal has lost more than
// eight digits to cancellation, and its lane falls back to message passing.
const certifyTol = 1e-8

// directSolveEnabled gates the closed-form kernel behind ExecuteInto. It is
// always true in the program; tests clear it to pin the message-passing
// schedule against its frozen reference.
var directSolveEnabled = true

// solveSchedule is a plan's direct-solve program. Slots index the lane
// slabs of L and of the selected inverse Z: slot k < nv is the diagonal at
// elimination position k, and slots nv..nSlots-1 are L's off-diagonal
// entries in column-major order.
type solveSchedule struct {
	perm []int // elimination position → event
	pos  []int // event → elimination position

	nSlots int
	// Column j's sub-diagonal slots are colSlot[colOff[j]:colOff[j+1]],
	// ascending by row; slotRow maps every slot to its row position.
	colOff, colSlot []int
	slotRow         []int

	asm    []asmOp // Λ's relation terms, relation-major
	upd    []updOp // factor updates; column j's are upd[updOff[j]:updOff[j+1]]
	updOff []int
	inv    []invOp   // selected-inverse targets in evaluation order
	term   []invTerm // their Σ Z·L terms

	// covSlot maps each clique-covariance entry (covOff layout) to the Z
	// slot holding it.
	covSlot []int
}

// asmOp adds coef/σ²_rel to slot dst of Λ.
type asmOp struct {
	dst, rel int
	coef     float64
}

// updOp is one right-looking factor update, L[dst] −= L[a]·L[b].
type updOp struct{ dst, a, b int }

// invOp computes Z[dst] in column col from the terms term[lo:hi]:
// Z[dst] = −acc/L_jj off the diagonal and (1/L_jj − acc)/L_jj on it, with
// acc = Σ Z[t.z]·L[t.l].
type invOp struct{ dst, col, lo, hi int }

type invTerm struct{ z, l int }

// compileSolve builds the plan's direct-solve schedule. It runs once per
// Compile; the cost is a few dense nv×nv passes.
func (p *Plan) compileSolve() {
	nv := p.nv
	s := &p.solve

	// Relation co-occurrence graph, dense: a catalog has tens of events.
	adj := make([]bool, nv*nv)
	for ri := 0; ri < p.nRels; ri++ {
		for ea := p.factorOff[ri]; ea < p.factorOff[ri+1]; ea++ {
			for eb := p.factorOff[ri]; eb < p.factorOff[ri+1]; eb++ {
				if u, v := p.edgeVar[ea], p.edgeVar[eb]; u != v {
					adj[u*nv+v] = true
				}
			}
		}
	}

	// Minimum-degree order, ties to the lowest EventID. Eliminating an event
	// joins its remaining neighbours into a clique (fill), and those
	// neighbours are the sub-diagonal pattern of its column of L.
	done := make([]bool, nv)
	later := make([][]int, nv)
	s.pos = make([]int, nv)
	for k := 0; k < nv; k++ {
		best, bestDeg := -1, 0
		for v := 0; v < nv; v++ {
			if done[v] {
				continue
			}
			deg := 0
			for u := 0; u < nv; u++ {
				if !done[u] && adj[v*nv+u] {
					deg++
				}
			}
			if best < 0 || deg < bestDeg {
				best, bestDeg = v, deg
			}
		}
		for u := 0; u < nv; u++ {
			if !done[u] && adj[best*nv+u] {
				later[best] = append(later[best], u)
			}
		}
		for _, u := range later[best] {
			for _, w := range later[best] {
				if u != w {
					adj[u*nv+w] = true
				}
			}
		}
		done[best] = true
		s.pos[best] = k
		s.perm = append(s.perm, best)
	}

	// L's filled pattern. slotOf is indexed by positions (i, j), i ≥ j.
	slotOf := make([]int, nv*nv)
	s.slotRow = make([]int, nv)
	for k := 0; k < nv; k++ {
		slotOf[k*nv+k] = k
		s.slotRow[k] = k
	}
	s.colOff = make([]int, nv+1)
	for j, ev := range s.perm {
		s.colOff[j] = len(s.colSlot)
		rows := make([]int, 0, len(later[ev]))
		for _, u := range later[ev] {
			rows = append(rows, s.pos[u])
		}
		sort.Ints(rows)
		for _, i := range rows {
			slot := nv + len(s.colSlot)
			slotOf[i*nv+j] = slot
			s.colSlot = append(s.colSlot, slot)
			s.slotRow = append(s.slotRow, i)
		}
	}
	s.colOff[nv] = len(s.colSlot)
	s.nSlots = nv + len(s.colSlot)
	slot := func(i, j int) int {
		if i < j {
			i, j = j, i
		}
		return slotOf[i*nv+j]
	}

	// Assembly: every relation adds c_a·c_b/σ_r² for each pair of its terms.
	for ri := 0; ri < p.nRels; ri++ {
		for ea := p.factorOff[ri]; ea < p.factorOff[ri+1]; ea++ {
			for eb := ea; eb < p.factorOff[ri+1]; eb++ {
				coef := p.edgeCoeff[ea] * p.edgeCoeff[eb]
				pa, pb := s.pos[p.edgeVar[ea]], s.pos[p.edgeVar[eb]]
				if eb != ea && pa == pb {
					coef *= 2 // one event named twice: both cross terms land on its diagonal
				}
				s.asm = append(s.asm, asmOp{dst: slot(pa, pb), rel: ri, coef: coef})
			}
		}
	}

	// Right-looking factor updates: column j's entries update every pair of
	// rows below it. The pattern is closed under this by construction.
	s.updOff = make([]int, nv+1)
	for j := 0; j < nv; j++ {
		s.updOff[j] = len(s.upd)
		col := s.colSlot[s.colOff[j]:s.colOff[j+1]]
		for x, sa := range col {
			for _, sb := range col[:x+1] {
				s.upd = append(s.upd, updOp{dst: slot(s.slotRow[sa], s.slotRow[sb]), a: sa, b: sb})
			}
		}
	}
	s.updOff[nv] = len(s.upd)

	// Takahashi selected inverse, columns right to left: each off-diagonal
	// Z entry of column j from the already computed Z entries of the rows
	// below j, then the diagonal from the column just computed.
	for j := nv - 1; j >= 0; j-- {
		col := s.colSlot[s.colOff[j]:s.colOff[j+1]]
		for _, si := range col {
			lo := len(s.term)
			for _, sk := range col {
				s.term = append(s.term, invTerm{z: slot(s.slotRow[si], s.slotRow[sk]), l: sk})
			}
			s.inv = append(s.inv, invOp{dst: si, col: j, lo: lo, hi: len(s.term)})
		}
		lo := len(s.term)
		for _, sk := range col {
			s.term = append(s.term, invTerm{z: sk, l: sk})
		}
		s.inv = append(s.inv, invOp{dst: j, col: j, lo: lo, hi: len(s.term)})
	}

	// Every relation clique lies on the pattern.
	s.covSlot = make([]int, p.nCov)
	for ri := 0; ri < p.nRels; ri++ {
		e0, k := p.factorOff[ri], p.factorOff[ri+1]-p.factorOff[ri]
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				s.covSlot[p.covOff[ri]+a*k+b] = slot(s.pos[p.edgeVar[e0+a]], s.pos[p.edgeVar[e0+b]])
			}
		}
	}
}

// ensureSolveScratch sizes the direct solver's slabs on first use (or in
// NewResult); steady state solves reuse them, which is what lets
// solveDirect carry the hotpath annotation.
func (b *Batch) ensureSolveScratch() {
	p := b.plan
	if len(b.lf) < p.solve.nSlots*b.lanes {
		b.lf = make([]float64, p.solve.nSlots*b.lanes)
		b.zinv = make([]float64, p.solve.nSlots*b.lanes)
		b.xv = make([]float64, p.nv*b.lanes)
		b.linv = make([]float64, p.nv*b.lanes)
		b.pivMin = make([]float64, p.nv*b.lanes)
		b.invVar = make([]float64, p.nRels*b.lanes)
	}
}

// solveDirect runs the compiled schedule on the first n lanes: assemble Λ,
// factor it as L·Lᵀ, solve for the mean, and take the selected inverse. It
// marks each lane solved or not in b.solved and returns how many lanes were
// not certified; their slab contents are meaningless.
//
//bayesperf:hotpath
func (b *Batch) solveDirect(n int) (uncertified int) {
	p := b.plan
	s := &p.solve
	nv, B := p.nv, b.lanes
	b.ensureSolveScratch()
	L, Z, x, li := b.lf, b.zinv, b.xv, b.linv
	solved := b.solved[:n]

	// Assemble Λ and h in elimination order.
	for k, ev := range s.perm {
		copy(L[k*B:k*B+n], b.unaryPrec[ev*B:ev*B+n])
		copy(x[k*B:k*B+n], b.unaryH[ev*B:ev*B+n])
	}
	for sl := nv; sl < s.nSlots; sl++ {
		row := L[sl*B : sl*B+n]
		for lane := range row {
			row[lane] = 0
		}
	}
	for ri := 0; ri < p.nRels; ri++ {
		rv := b.relVar[ri*B : ri*B+n]
		w := b.invVar[ri*B : ri*B+n]
		for lane := range w {
			w[lane] = 1 / rv[lane]
		}
	}
	for _, op := range s.asm {
		dst := L[op.dst*B : op.dst*B+n]
		w := b.invVar[op.rel*B : op.rel*B+n]
		for lane := range dst {
			dst[lane] += op.coef * w[lane]
		}
	}
	for k := 0; k < nv; k++ {
		d := L[k*B : k*B+n]
		t := b.pivMin[k*B : k*B+n]
		for lane := range t {
			t[lane] = certifyTol * d[lane]
		}
	}

	// Factor column by column. A failed pivot only marks its lane: the
	// lane's remaining arithmetic runs on (and its result is discarded).
	for lane := range solved {
		solved[lane] = true
	}
	for j := 0; j < nv; j++ {
		d := L[j*B : j*B+n]
		t := b.pivMin[j*B : j*B+n]
		inv := li[j*B : j*B+n]
		for lane := range d {
			pv := d[lane]
			if !(pv >= t[lane]) {
				solved[lane] = false
			}
			r := math.Sqrt(pv)
			d[lane] = r
			inv[lane] = 1 / r
		}
		for _, sl := range s.colSlot[s.colOff[j]:s.colOff[j+1]] {
			c := L[sl*B : sl*B+n]
			for lane := range c {
				c[lane] *= inv[lane]
			}
		}
		for _, op := range s.upd[s.updOff[j]:s.updOff[j+1]] {
			dst := L[op.dst*B : op.dst*B+n]
			la := L[op.a*B : op.a*B+n]
			lb := L[op.b*B : op.b*B+n]
			for lane := range dst {
				dst[lane] -= la[lane] * lb[lane]
			}
		}
	}

	// Mean: forward solve L·y = h, then back-substitute Lᵀ·x = y, in place.
	for j := 0; j < nv; j++ {
		xj := x[j*B : j*B+n]
		inv := li[j*B : j*B+n]
		for lane := range xj {
			xj[lane] *= inv[lane]
		}
		for _, sl := range s.colSlot[s.colOff[j]:s.colOff[j+1]] {
			i := s.slotRow[sl]
			xi := x[i*B : i*B+n]
			c := L[sl*B : sl*B+n]
			for lane := range xi {
				xi[lane] -= c[lane] * xj[lane]
			}
		}
	}
	for j := nv - 1; j >= 0; j-- {
		xj := x[j*B : j*B+n]
		for _, sl := range s.colSlot[s.colOff[j]:s.colOff[j+1]] {
			i := s.slotRow[sl]
			xi := x[i*B : i*B+n]
			c := L[sl*B : sl*B+n]
			for lane := range xj {
				xj[lane] -= c[lane] * xi[lane]
			}
		}
		inv := li[j*B : j*B+n]
		for lane := range xj {
			xj[lane] *= inv[lane]
		}
	}

	// Selected inverse on L's pattern.
	for _, op := range s.inv {
		zd := Z[op.dst*B : op.dst*B+n]
		for lane := range zd {
			zd[lane] = 0
		}
		for _, tm := range s.term[op.lo:op.hi] {
			z := Z[tm.z*B : tm.z*B+n]
			l := L[tm.l*B : tm.l*B+n]
			for lane := range zd {
				zd[lane] += z[lane] * l[lane]
			}
		}
		inv := li[op.col*B : op.col*B+n]
		if op.dst == op.col {
			for lane := range zd {
				zd[lane] = inv[lane] * (inv[lane] - zd[lane])
			}
		} else {
			for lane := range zd {
				zd[lane] = -inv[lane] * zd[lane]
			}
		}
	}

	for _, ok := range solved {
		if !ok {
			uncertified++
		}
	}
	return uncertified
}

// readSolved writes the solver's posterior for every executed lane into
// res in original units: means from x, stds from Z's diagonal, and the
// clique covariances from Z. Lanes that were not certified get overwritten
// by the message-passing read-out afterwards.
//
//bayesperf:hotpath
func (b *Batch) readSolved(res *BatchResult) {
	p := b.plan
	s := &p.solve
	n, B := res.n, b.lanes
	scale := b.scale[:n]
	for i := 0; i < p.nv; i++ {
		k := s.pos[i]
		xm := b.xv[k*B : k*B+n]
		zv := b.zinv[k*B : k*B+n]
		mean := res.Mean[i*n : i*n+n]
		std := res.Std[i*n : i*n+n]
		for lane := range mean {
			mean[lane] = xm[lane] * scale[lane]
			std[lane] = math.Sqrt(zv[lane]) * scale[lane]
		}
	}
	if res.cov == nil {
		return
	}
	for e, sl := range s.covSlot {
		z := b.zinv[sl*B : sl*B+n]
		out := res.cov[e*n : e*n+n]
		for lane := range out {
			out[lane] = z[lane] * (scale[lane] * scale[lane])
		}
	}
}
