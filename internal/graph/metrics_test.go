package graph

import (
	"testing"

	"bayesperf/internal/obs"
	"bayesperf/internal/rng"
	"bayesperf/internal/uarch"
)

// TestGraphMetricsRecording runs instrumented single-window inference and
// checks the execution counters agree with the returned Result — and that
// attaching metrics leaves the posterior bit identical.
func TestGraphMetricsRecording(t *testing.T) {
	c := uarch.Skylake()
	truth := skylakeTruth(c)

	infer := func(m *Metrics) Result {
		g := Build(c)
		g.SetMetrics(m)
		benchObserveAll(g, truth, rng.New(3))
		return g.Infer(200, 1e-9)
	}

	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	res := infer(m)
	plain := infer(nil)

	for id := range res.Mean {
		if res.Mean[id] != plain.Mean[id] || res.Std[id] != plain.Std[id] {
			t.Fatalf("event %d: metrics changed the posterior", id)
		}
	}

	snap := reg.Snapshot()
	counter := func(name string) float64 {
		t.Helper()
		ms := snap.Find(name)
		if ms == nil {
			t.Fatalf("metric %s not in snapshot", name)
		}
		return ms.Value
	}
	if got := counter("bayesperf_graph_windows_total"); got != 1 {
		t.Errorf("windows counter = %v, want 1", got)
	}
	if got := counter("bayesperf_graph_sweeps_total"); got != float64(res.Iters) {
		t.Errorf("sweeps counter = %v, want Result.Iters %d", got, res.Iters)
	}
	unconv := counter("bayesperf_graph_unconverged_windows_total")
	if want := float64(0); !res.Converged {
		want = 1
	} else if unconv != want {
		t.Errorf("unconverged counter = %v with Converged=%v", unconv, res.Converged)
	}
	hist := snap.Find("bayesperf_graph_sweeps_per_window")
	if hist == nil || hist.Count != 1 || hist.Sum != float64(res.Iters) {
		t.Errorf("sweeps histogram = %+v, want count 1 sum %d", hist, res.Iters)
	}
}

// TestGraphMetricsDirectFallback: a window the direct solver answers counts
// one sweep and no fallback; a window whose factorization is not certified
// counts once in the fallback family and records the sweeps message passing
// ran for it. The cavity-floor scan covers only message-passing windows.
func TestGraphMetricsDirectFallback(t *testing.T) {
	c := uarch.Skylake()
	base := truthWindows(c, 1, 43)[0]
	run := func(win []obsEntry) (Result, bool, obs.RegistrySnapshot) {
		reg := obs.NewRegistry()
		g := Build(c)
		g.SetMetrics(NewMetrics(reg))
		for _, o := range win {
			g.Observe(o.id, o.mean, o.std)
		}
		res := g.Infer(200, 1e-9)
		return res, g.batch.solved[0], reg.Snapshot()
	}
	value := func(snap obs.RegistrySnapshot, name string) float64 {
		t.Helper()
		ms := snap.Find(name)
		if ms == nil {
			t.Fatalf("metric %s not in snapshot", name)
		}
		return ms.Value
	}

	res, solved, snap := run(base)
	if !solved || res.Iters != 1 || !res.Converged {
		t.Fatalf("fully observed window: solved=%v iters=%d converged=%v, want a one-step solve",
			solved, res.Iters, res.Converged)
	}
	if got := value(snap, "bayesperf_graph_direct_fallback_windows_total"); got != 0 {
		t.Errorf("fallback counter = %v after a solved window", got)
	}
	if got := value(snap, "bayesperf_graph_sweeps_total"); got != 1 {
		t.Errorf("sweeps counter = %v after a solved window, want 1", got)
	}
	if got := value(snap, "bayesperf_graph_cavity_floor_edges_total"); got != 0 {
		t.Errorf("cavity-floor counter = %v after a solved window, want 0", got)
	}

	_, drops := unobservedCases(c)
	for _, drop := range drops {
		res, solved, snap := run(without(base, drop...))
		if solved {
			continue
		}
		if got := value(snap, "bayesperf_graph_direct_fallback_windows_total"); got != 1 {
			t.Errorf("fallback counter = %v after one uncertified window, want 1", got)
		}
		if got := value(snap, "bayesperf_graph_sweeps_total"); got != float64(res.Iters) || res.Iters < 2 {
			t.Errorf("sweeps counter = %v, Result.Iters = %d, want equal message-passing sweeps", got, res.Iters)
		}
		return
	}
	t.Fatal("no undetermined relation fell back")
}

// TestGraphMetricsNilSafe: a nil *Metrics records nothing and never
// dereferences.
func TestGraphMetricsNilSafe(t *testing.T) {
	if m := NewMetrics(nil); m != nil {
		t.Fatalf("NewMetrics(nil) = %v, want nil", m)
	}
	c := uarch.Skylake()
	g := Build(c)
	g.SetMetrics(nil)
	benchObserveAll(g, skylakeTruth(c), rng.New(3))
	if res := g.Infer(50, 1e-9); len(res.Mean) == 0 {
		t.Fatal("inference with nil metrics returned no posterior")
	}
}
