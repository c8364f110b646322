// Compiled inference: Compile lowers a catalog's factor graph once into a
// flat Plan — dense variable/factor index arrays, a precomputed message
// schedule, and a sparse elimination schedule (solve.go) — and ExecuteInto
// infers many windows simultaneously over contiguous structure-of-arrays
// slabs. Each window is solved in closed form (sparse Cholesky plus a
// selected inverse); windows whose factorization is not certified run
// damped Gaussian message passing instead. One schedule walk (relation/term
// bookkeeping, slice indexing, bounds checks) is amortized across the whole
// batch, and every inner loop strides over adjacent memory.
//
// Each batch lane is an independent inference problem: the solver's and the
// message-passing schedule's per-lane arithmetic is elementwise, and the
// message-passing schedule reproduces the classic per-window loop operation
// for operation, so a lane's posterior is bit-identical whether it runs
// alone in a one-lane batch or packed into a 64-wide batch. That invariance
// is what lets the streaming engine batch windows freely without perturbing
// a single stitched output bit.
package graph

import (
	"fmt"
	"math"

	"bayesperf/internal/uarch"
)

// Plan is a catalog's factor graph compiled to flat arrays. Compile once per
// catalog; a Plan is immutable afterwards and safe to share between any
// number of Batches (the streaming engine hands one Plan to every worker).
type Plan struct {
	cat    *uarch.Catalog
	nv     int // variables (events)
	nRels  int // relation factors
	nEdges int

	// Factor structure in CSR form: relation ri's edges (terms) occupy
	// [factorOff[ri], factorOff[ri+1]) of the edge arrays. The message
	// schedule is one pass over the edges in this order — identical to the
	// classic nested relation/term loops.
	factorOff []int
	edgeVar   []int // variable index per edge
	edgeCoeff []float64
	relTol    []float64 // per relation

	// Clique covariance layout: relation ri's k×k posterior covariance
	// occupies covOff[ri] + a*k + b of a per-window covariance slab.
	covOff []int
	nCov   int
	// pairLoc resolves an event pair (lower ID first) to the first relation
	// clique containing both, for BatchResult.Corr lookups.
	pairLoc map[uint64]pairLoc

	// solve is the direct solver's elimination schedule (solve.go).
	solve solveSchedule
}

type pairLoc struct {
	rel  int
	a, b int // term indices within the relation
}

func pairKey(i, j uarch.EventID) uint64 {
	if i > j {
		i, j = j, i
	}
	return uint64(uint32(i))<<32 | uint64(uint32(j))
}

// Compile lowers the catalog's events and invariants into a Plan.
func Compile(cat *uarch.Catalog) *Plan {
	p := &Plan{
		cat:       cat,
		nv:        cat.NumEvents(),
		nRels:     len(cat.Rels),
		factorOff: make([]int, len(cat.Rels)+1),
		relTol:    make([]float64, len(cat.Rels)),
		covOff:    make([]int, len(cat.Rels)+1),
		pairLoc:   make(map[uint64]pairLoc),
	}
	for ri, r := range cat.Rels {
		p.factorOff[ri] = p.nEdges
		p.covOff[ri] = p.nCov
		p.relTol[ri] = r.RelTol
		for _, t := range r.Terms {
			p.edgeVar = append(p.edgeVar, int(t.Event))
			p.edgeCoeff = append(p.edgeCoeff, t.Coeff)
		}
		k := len(r.Terms)
		p.nEdges += k
		p.nCov += k * k
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				ea, eb := r.Terms[a].Event, r.Terms[b].Event
				if ea == eb {
					continue
				}
				key := pairKey(ea, eb)
				if _, seen := p.pairLoc[key]; !seen {
					loc := pairLoc{rel: ri, a: a, b: b}
					if ea > eb {
						loc.a, loc.b = b, a
					}
					p.pairLoc[key] = loc
				}
			}
		}
	}
	p.factorOff[p.nRels] = p.nEdges
	p.covOff[p.nRels] = p.nCov
	p.compileSolve()
	return p
}

// maxCliqueSize returns the largest relation's term count.
func (p *Plan) maxCliqueSize() int {
	maxK := 0
	for ri := 0; ri < p.nRels; ri++ {
		if k := p.factorOff[ri+1] - p.factorOff[ri]; k > maxK {
			maxK = k
		}
	}
	return maxK
}

// SharesClique reports whether two events appear together in at least one
// relation factor, i.e. whether ExecuteInto extracts a posterior covariance
// for the pair.
func (p *Plan) SharesClique(i, j uarch.EventID) bool {
	if i == j {
		return true
	}
	_, ok := p.pairLoc[pairKey(i, j)]
	return ok
}

// Batch holds the observations and the solver and message-passing state of
// up to `lanes` independent inference windows over one Plan, in
// structure-of-arrays layout: quantity q of lane b lives at q*lanes+b, so
// the per-schedule-step inner loops run over contiguous float64 runs. A
// Batch is reusable (ClearObservations between rounds) and not safe for
// concurrent use: concurrent callers each build their own (see
// internal/stream's worker pool).
type Batch struct {
	plan  *Plan
	lanes int
	// FastMath is ignored: every window is solved in closed form, with the
	// message-passing fallback for windows the solver cannot certify.
	//
	// Deprecated: FastMath selects nothing. It remains only until the
	// repository benchmark (bench/) stops setting it.
	FastMath bool
	// needCov gates clique-covariance extraction (EnableCovariance):
	// consumers that never read Cov/Corr — the default stream
	// configuration — skip the extraction flops and the per-result
	// covariance slabs entirely.
	needCov bool
	// Extraction scratch (extractCovariances): per-(term,lane) cavity
	// variance and coeff·variance of the current relation, sized by
	// EnableCovariance.
	covD, covCD []float64
	// Direct-solver slabs (solve.go), sized on first use: the factor L and
	// the selected inverse Z (nSlots·lanes each), the right-hand side and
	// mean in elimination order, reciprocal pivots, certification
	// thresholds (nv·lanes each), and 1/σ_r² (nRels·lanes).
	lf, zinv, xv, linv, pivMin, invVar []float64
	// solved marks the lanes the last ExecuteInto answered in closed form;
	// nSolved counts them and uncertified counts the lanes that fell back
	// to message passing because their factorization was not certified.
	solved      []bool
	nSolved     int
	uncertified int
	// m, when non-nil, records per-call outcomes (windows, sweeps,
	// convergence, fallbacks, cavity-floor hits) after each ExecuteInto
	// finishes — see SetMetrics.
	m *Metrics

	obsMean  []float64 // nv*lanes
	obsStd   []float64
	observed []bool

	// ExecuteInto scratch, allocated once.
	scale      []float64 // lanes
	scaled     []float64 // nv*lanes: observed means / scale
	unaryPrec  []float64 // nv*lanes
	unaryH     []float64
	beliefPrec []float64
	beliefH    []float64
	means      []float64
	msgPrec    []float64 // nEdges*lanes
	msgH       []float64
	relVar     []float64 // nRels*lanes
	muJ        []float64 // lanes
	varJ       []float64
	maxDelta   []float64
	active     []bool
	iters      []int
	converged  []bool
}

// NewBatch allocates a batch of the given width over the plan.
func (p *Plan) NewBatch(lanes int) *Batch {
	if lanes < 1 {
		panic(fmt.Sprintf("graph: NewBatch with %d lanes", lanes))
	}
	nv, ne, nr := p.nv, p.nEdges, p.nRels
	return &Batch{
		plan:       p,
		lanes:      lanes,
		obsMean:    make([]float64, nv*lanes),
		obsStd:     make([]float64, nv*lanes),
		observed:   make([]bool, nv*lanes),
		scale:      make([]float64, lanes),
		scaled:     make([]float64, nv*lanes),
		unaryPrec:  make([]float64, nv*lanes),
		unaryH:     make([]float64, nv*lanes),
		beliefPrec: make([]float64, nv*lanes),
		beliefH:    make([]float64, nv*lanes),
		means:      make([]float64, nv*lanes),
		msgPrec:    make([]float64, ne*lanes),
		msgH:       make([]float64, ne*lanes),
		relVar:     make([]float64, nr*lanes),
		muJ:        make([]float64, lanes),
		varJ:       make([]float64, lanes),
		maxDelta:   make([]float64, lanes),
		active:     make([]bool, lanes),
		iters:      make([]int, lanes),
		converged:  make([]bool, lanes),
		solved:     make([]bool, lanes),
	}
}

// EnableCovariance makes every subsequent ExecuteInto extract the
// per-relation clique posterior covariances (BatchResult.Corr). Off by
// default: extraction costs O(Σk² · lanes) per call plus a covariance slab
// per result, which pure marginal consumers should not pay. The extraction
// scratch is sized here, so a batch's first message-passing window
// allocates nothing.
func (b *Batch) EnableCovariance() {
	b.needCov = true
	maxK := b.plan.maxCliqueSize()
	b.covD = make([]float64, maxK*b.lanes)
	b.covCD = make([]float64, maxK*b.lanes)
}

// SetMetrics attaches (or with nil detaches) an instrument set that every
// subsequent ExecuteInto records into. Recording happens strictly after the
// sweep loop and reads converged state only, so posteriors are bitwise
// unaffected by whether metrics are on.
func (b *Batch) SetMetrics(m *Metrics) { b.m = m }

// Observe attaches (or replaces) the measurement factor for an event in one
// lane's window: the event's value is measured as N(mean, std²). For
// multiplexed counters the std comes from the §4.2 Student-t marginal of
// the event's per-interval samples (measure.EstimateSample); mean must not
// be NaN and std must be positive.
func (b *Batch) Observe(lane int, id uarch.EventID, mean, std float64) {
	if lane < 0 || lane >= b.lanes {
		panic(fmt.Sprintf("graph: Observe on lane %d of a %d-lane batch", lane, b.lanes))
	}
	if id < 0 || int(id) >= b.plan.nv {
		panic(fmt.Sprintf("graph: Observe of unknown event %d", id))
	}
	if std <= 0 || math.IsNaN(std) || math.IsNaN(mean) {
		panic(fmt.Sprintf("graph: Observe(%s) with invalid mean=%v std=%v",
			b.plan.cat.Event(id).Name, mean, std))
	}
	at := int(id)*b.lanes + lane
	b.obsMean[at] = mean
	b.obsStd[at] = std
	b.observed[at] = true
}

// ClearObservations detaches every lane's measurement factors, keeping all
// allocations intact for the next batch of windows.
func (b *Batch) ClearObservations() {
	for i := range b.observed {
		b.observed[i] = false
	}
}

// BatchResult is the outcome of one ExecuteInto call: per-lane posterior
// marginals plus the per-relation clique covariances, all in the batch's
// lane-strided layout (event i of lane b at i*n+b for n executed lanes).
type BatchResult struct {
	plan *Plan
	n    int // executed lanes

	Mean, Std []float64 // nv*n, event-major
	Iters     []int
	Converged []bool
	cov       []float64 // nCov*n, clique-entry-major
}

// ExecuteInto infers the first n lanes of the batch. Every lane is solved
// in closed form by one walk of the compiled elimination schedule
// (solve.go) and reports one converged iteration. Lanes whose factorization
// is not certified run damped Gaussian message passing instead, walking the
// message schedule once per sweep; each converges (and freezes)
// independently once the largest change in any of its posterior means
// (relative to the lane's problem scale) drops below tol, or after maxIter
// sweeps. Unobserved events are inferred purely from the invariants (with
// a weak zero-mean prior keeping their marginals proper). Either way lane
// posteriors do not depend on n or on which other windows share the batch.
//
// The output goes into res's slabs, reallocated only when a capacity is
// short — the steady state of a long-lived caller (the streaming workers)
// allocates nothing here. A nil res allocates a fresh result. The returned
// value is res (or the fresh result) and is only valid until the next
// ExecuteInto call that reuses it; callers that retain a lane's posterior
// copy it out first.
//
//bayesperf:hotpath
func (b *Batch) ExecuteInto(res *BatchResult, n, maxIter int, tol float64) *BatchResult {
	if n < 1 || n > b.lanes {
		panic(fmt.Sprintf("graph: ExecuteInto of %d lanes on a %d-lane batch", n, b.lanes))
	}
	p := b.plan
	nv, B := p.nv, b.lanes

	// Per-lane problem scale, from the lane's observed magnitudes.
	scale := b.scale
	for lane := 0; lane < n; lane++ {
		scale[lane] = 1.0
	}
	for i := 0; i < nv; i++ {
		om := b.obsMean[i*B : i*B+n]
		ob := b.observed[i*B : i*B+n]
		for lane, observed := range ob {
			if observed && math.Abs(om[lane]) > scale[lane] {
				scale[lane] = math.Abs(om[lane])
			}
		}
	}

	// Fixed unary factors: weak proper prior plus the observation, in
	// scaled units.
	const priorPrec = 1e-12
	for i := 0; i < nv; i++ {
		row := i * B
		om := b.obsMean[row : row+n]
		os := b.obsStd[row : row+n]
		ob := b.observed[row : row+n]
		up := b.unaryPrec[row : row+n]
		uh := b.unaryH[row : row+n]
		sc := b.scaled[row : row+n]
		for lane := range ob {
			u := natural{prec: priorPrec}
			sc[lane] = 0
			if ob[lane] {
				m, s := om[lane]/scale[lane], os[lane]/scale[lane]
				u = u.add(fromMoments(m, s*s))
				sc[lane] = m
			}
			up[lane] = u.prec
			uh[lane] = u.h
		}
	}

	// Relation factor noise: σ_r = RelTol · magnitude(observed means),
	// floored so fully-unobserved relations still carry information.
	for ri := 0; ri < p.nRels; ri++ {
		rv := b.relVar[ri*B : ri*B+n]
		for lane := range rv {
			rv[lane] = 0
		}
		for e := p.factorOff[ri]; e < p.factorOff[ri+1]; e++ {
			c := p.edgeCoeff[e]
			sc := b.scaled[p.edgeVar[e]*B : p.edgeVar[e]*B+n]
			for lane := range rv {
				rv[lane] += math.Abs(c * sc[lane])
			}
		}
		relTol := p.relTol[ri]
		for lane := range rv {
			mag := rv[lane] / 2
			if mag < 1e-6 {
				mag = 1e-6
			}
			sd := relTol * mag
			rv[lane] = sd * sd
		}
	}

	// Every lane is solved in closed form first; only lanes whose
	// factorization is not certified go on to message passing, and they
	// report the sweeps they ran. A solved lane reports one iteration,
	// converged.
	solved := b.solved[:n]
	for lane := range solved {
		solved[lane] = false
	}
	b.nSolved, b.uncertified = 0, 0
	if directSolveEnabled {
		b.uncertified = b.solveDirect(n)
		b.nSolved = n - b.uncertified
	}
	active := b.active[:n]
	for lane := range active {
		active[lane] = !solved[lane]
		b.converged[lane] = solved[lane]
		b.iters[lane] = maxIter
		if solved[lane] {
			b.iters[lane] = 1
		}
	}

	if b.nSolved < n {
		b.resetMessages(n)
		b.sweepExact(n, maxIter, tol)
	}
	if b.m != nil {
		b.m.recordExecute(b, n)
	}

	return b.resultInto(res, n)
}

// resetMessages starts message passing from flat messages, with every
// belief at its unary.
func (b *Batch) resetMessages(n int) {
	B := b.lanes
	for e := 0; e < b.plan.nEdges; e++ {
		mp := b.msgPrec[e*B : e*B+n]
		mh := b.msgH[e*B : e*B+n]
		for lane := range mp {
			mp[lane] = 0
			mh[lane] = 0
		}
	}
	copy(b.beliefPrec, b.unaryPrec)
	copy(b.beliefH, b.unaryH)
}

// sweepExact runs the exact message schedule on the active lanes: the
// legacy per-window loop, operation for operation, vectorized only across
// lanes. It serves the lanes the direct solver could not certify and stays
// bit-identical to the frozen reference implementation (reference_test.go).
//
//bayesperf:hotpath
func (b *Batch) sweepExact(n, maxIter int, tol float64) {
	p := b.plan
	nv, B := p.nv, b.lanes
	active := b.active[:n]
	remaining := 0
	for _, a := range active {
		if a {
			remaining++
		}
	}
	for i := 0; i < nv; i++ {
		row := i * B
		for lane := 0; lane < n; lane++ {
			m, _ := natural{prec: b.beliefPrec[row+lane], h: b.beliefH[row+lane]}.moments()
			b.means[row+lane] = m
		}
	}

	muJ := b.muJ[:n]
	varJ := b.varJ[:n]
	maxDelta := b.maxDelta[:n]
	for it := 1; it <= maxIter && remaining > 0; it++ {
		for ri := 0; ri < p.nRels; ri++ {
			eStart, eEnd := p.factorOff[ri], p.factorOff[ri+1]
			rv := b.relVar[ri*B : ri*B+n]
			for e := eStart; e < eEnd; e++ {
				// Gather the moments of every other term's variable→factor
				// message (belief minus that edge's old message), one
				// contiguous lane run per sibling edge.
				for lane := range muJ {
					muJ[lane] = 0
				}
				copy(varJ, rv)
				for e2 := eStart; e2 < eEnd; e2++ {
					if e2 == e {
						continue
					}
					c2 := p.edgeCoeff[e2]
					bp := b.beliefPrec[p.edgeVar[e2]*B : p.edgeVar[e2]*B+n]
					bh := b.beliefH[p.edgeVar[e2]*B : p.edgeVar[e2]*B+n]
					mp := b.msgPrec[e2*B : e2*B+n]
					mh := b.msgH[e2*B : e2*B+n]
					for lane := range bp {
						if !active[lane] {
							continue
						}
						m, v := natural{prec: bp[lane] - mp[lane], h: bh[lane] - mh[lane]}.moments()
						muJ[lane] += c2 * m
						varJ[lane] += c2 * c2 * v
					}
				}
				// Solve Σ c_i x_i ~ N(0, σ_r²) for this edge's variable,
				// damp in natural parameters, update the belief
				// incrementally — exactly the legacy per-window update.
				ck := p.edgeCoeff[e]
				bp := b.beliefPrec[p.edgeVar[e]*B : p.edgeVar[e]*B+n]
				bh := b.beliefH[p.edgeVar[e]*B : p.edgeVar[e]*B+n]
				mp := b.msgPrec[e*B : e*B+n]
				mh := b.msgH[e*B : e*B+n]
				for lane := range bp {
					if !active[lane] {
						continue
					}
					newMsg := fromMoments(-muJ[lane]/ck, varJ[lane]/(ck*ck))
					oldP, oldH := mp[lane], mh[lane]
					dampedP := damping*newMsg.prec + (1-damping)*oldP
					dampedH := damping*newMsg.h + (1-damping)*oldH
					bp[lane] = (bp[lane] - oldP) + dampedP
					bh[lane] = (bh[lane] - oldH) + dampedH
					mp[lane] = dampedP
					mh[lane] = dampedH
				}
			}
		}
		for lane := range maxDelta {
			maxDelta[lane] = 0
		}
		for i := 0; i < nv; i++ {
			row := i * B
			bp := b.beliefPrec[row : row+n]
			bh := b.beliefH[row : row+n]
			mn := b.means[row : row+n]
			for lane := range bp {
				if !active[lane] {
					continue
				}
				m, _ := natural{prec: bp[lane], h: bh[lane]}.moments()
				if d := math.Abs(m - mn[lane]); d > maxDelta[lane] {
					maxDelta[lane] = d
				}
				mn[lane] = m
			}
		}
		for lane := range active {
			if active[lane] && maxDelta[lane] < tol {
				active[lane] = false
				b.converged[lane] = true
				b.iters[lane] = it
				remaining--
			}
		}
	}
}

// sized reslices s to n, reallocating only when capacity is short — the
// slab-reuse primitive behind ExecuteInto.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NewResult returns a result with room for every lane of the batch, and
// for its clique covariances once EnableCovariance is on, and readies the
// batch's solve scratch: ExecuteInto on it allocates nothing from the
// first call on.
func (b *Batch) NewResult() *BatchResult {
	b.ensureSolveScratch()
	p := b.plan
	res := &BatchResult{
		plan:      p,
		Mean:      make([]float64, p.nv*b.lanes),
		Std:       make([]float64, p.nv*b.lanes),
		Iters:     make([]int, b.lanes),
		Converged: make([]bool, b.lanes),
	}
	if b.needCov {
		res.cov = make([]float64, p.nCov*b.lanes)
	}
	return res
}

// resultInto reads the converged beliefs out of the batch into res,
// reusing its slabs where the capacities allow.
func (b *Batch) resultInto(res *BatchResult, n int) *BatchResult {
	p := b.plan
	nv, B := p.nv, b.lanes
	if res == nil {
		res = &BatchResult{}
	}
	res.plan = p
	res.n = n
	res.Mean = sized(res.Mean, nv*n)
	res.Std = sized(res.Std, nv*n)
	res.Iters = sized(res.Iters, n)
	res.Converged = sized(res.Converged, n)
	if b.needCov {
		res.cov = sized(res.cov, p.nCov*n)
	} else {
		res.cov = nil
	}
	copy(res.Iters, b.iters[:n])
	copy(res.Converged, b.converged[:n])
	if b.nSolved > 0 {
		b.readSolved(res)
	}
	if b.nSolved == n {
		return res
	}
	scale := b.scale
	solved := b.solved[:n]
	for i := 0; i < nv; i++ {
		bp := b.beliefPrec[i*B : i*B+n]
		bh := b.beliefH[i*B : i*B+n]
		for lane := range bp {
			if solved[lane] {
				continue
			}
			m, v := natural{prec: bp[lane], h: bh[lane]}.moments()
			res.Mean[i*n+lane] = m * scale[lane]
			res.Std[i*n+lane] = math.Sqrt(v) * scale[lane]
		}
	}
	b.extractCovariances(res)
	return res
}
