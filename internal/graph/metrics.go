package graph

import "bayesperf/internal/obs"

// Metrics is the inference layer's instrument set. Construct once per
// registry with NewMetrics and attach to any number of Batches (instruments
// are atomic, so concurrent stream workers share one Metrics safely); a nil
// *Metrics — the metrics-off state — costs one pointer compare per Execute.
type Metrics struct {
	windows      *obs.Counter
	unconverged  *obs.Counter
	sweeps       *obs.Counter
	sweepsPerWin *obs.Histogram
	fallback     *obs.Counter
	cavityFloor  *obs.Counter
}

// NewMetrics registers the graph-layer instruments on r (get-or-create, so
// several Batches over one registry aggregate) and returns the set. A nil
// registry returns nil, which every consumer treats as metrics-off.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		windows: r.Counter("bayesperf_graph_windows_total",
			"Inference windows executed (batch lanes)."),
		unconverged: r.Counter("bayesperf_graph_unconverged_windows_total",
			"Windows that exhausted maxIter without meeting the convergence tolerance."),
		sweeps: r.Counter("bayesperf_graph_sweeps_total",
			"Message-passing sweeps run across all windows; a window solved in closed form counts one."),
		sweepsPerWin: r.Histogram("bayesperf_graph_sweeps_per_window",
			"Sweeps needed per window before convergence (or the maxIter budget); 1 for a window solved in closed form.",
			ExponentialSweepBuckets()),
		fallback: r.Counter("bayesperf_graph_direct_fallback_windows_total",
			"Windows that ran message passing because their direct factorization was not certified (the data left a direction undetermined, or the relations pinning the unobserved events were too ill-conditioned)."),
		cavityFloor: r.Counter("bayesperf_graph_cavity_floor_edges_total",
			"Edges whose final cavity precision sat at the vanishing-precision floor (order-sensitive, numerically flat cavities), over windows that ran message passing."),
	}
}

// ExponentialSweepBuckets returns the sweeps-per-window bucket bounds
// (1..512, powers of two) — maxIter defaults are well inside.
func ExponentialSweepBuckets() []float64 {
	return obs.ExponentialBuckets(1, 2, 10)
}

// recordExecute folds one Execute call's outcome into the instruments. It
// runs after the solve and any message passing, reading final state only —
// never inside them — so instrumentation cannot perturb any posterior bit,
// and costs nothing on the per-sweep hot path. The cavity-floor scan mirrors the moments()
// guard: a final belief-minus-message precision below minPrec means that
// edge's cavity was flat and its contribution order-sensitive. It covers
// only the lanes that ran message passing; solved lanes never touch the
// message slabs.
func (m *Metrics) recordExecute(b *Batch, n int) {
	m.windows.Add(uint64(n))
	var sweeps, unconv uint64
	for lane := 0; lane < n; lane++ {
		it := b.iters[lane]
		sweeps += uint64(it)
		m.sweepsPerWin.Observe(float64(it))
		if !b.converged[lane] {
			unconv++
		}
	}
	m.sweeps.Add(sweeps)
	m.unconverged.Add(unconv)
	m.fallback.Add(uint64(b.uncertified))
	if b.nSolved == n {
		return
	}

	p := b.plan
	B := b.lanes
	var floored uint64
	for e := 0; e < p.nEdges; e++ {
		row := p.edgeVar[e] * B
		mrow := e * B
		for lane := 0; lane < n; lane++ {
			if b.solved[lane] {
				continue
			}
			if b.beliefPrec[row+lane]-b.msgPrec[mrow+lane] < minPrec {
				floored++
			}
		}
	}
	m.cavityFloor.Add(floored)
}
