package graph

import (
	"math"
	"testing"

	"bayesperf/internal/rng"
	"bayesperf/internal/uarch"
)

// toyCatalog builds a catalog from a spec, failing the test on error.
func toyCatalog(t *testing.T, spec uarch.Spec) *uarch.Catalog {
	t.Helper()
	cat, err := spec.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestCliqueCovarianceGolden2x2 pins the clique covariance on the smallest
// possible clique — a two-event relation A − B ≈ 0 — against the
// hand-computed joint posterior: with observation precisions p_A, p_B and
// factor noise σ_r², the joint precision matrix is
//
//	Λ = [[p_A + 1/σ_r², −1/σ_r²], [−1/σ_r², p_B + 1/σ_r²]]
//
// whose inverse's off-diagonal is (1/σ_r²)/det(Λ). The factor graph's
// Sherman–Morrison extraction must reproduce that number (and its
// positive-correlation sign: an equality invariant ties the pair together).
func TestCliqueCovarianceGolden2x2(t *testing.T) {
	const relTol = 0.05
	cat := toyCatalog(t, uarch.Spec{
		Arch: "toy-2x2", ProgCounters: 2,
		Events: []uarch.EventSpec{{Name: "A"}, {Name: "B"}},
		Relations: []uarch.RelationSpec{{
			Name: "equal", RelTol: relTol,
			Terms: []uarch.TermSpec{{Event: "A", Coeff: 1}, {Event: "B", Coeff: -1}},
		}},
	})
	a, sa := 2.0e8, 0.04*2.0e8
	b, sb := 1.9e8, 0.02*1.9e8
	g := Build(cat)
	g.Observe(cat.MustEvent("A"), a, sa)
	g.Observe(cat.MustEvent("B"), b, sb)
	res := g.Infer(500, 1e-12)
	if !res.Converged {
		t.Fatalf("toy graph did not converge in %d iters", res.Iters)
	}

	// Hand-computed joint posterior, mirroring the engine's scaled units.
	scale := math.Max(math.Abs(a), math.Abs(b)) // both > 1
	as, bs := a/scale, b/scale
	sas, sbs := sa/scale, sb/scale
	const priorPrec = 1e-12
	pA := priorPrec + 1/(sas*sas)
	pB := priorPrec + 1/(sbs*sbs)
	mag := (math.Abs(as) + math.Abs(bs)) / 2
	relVar := (relTol * mag) * (relTol * mag)
	lamA, lamB, lamAB := pA+1/relVar, pB+1/relVar, -1/relVar
	det := lamA*lamB - lamAB*lamAB
	wantCovAB := (1 / relVar) / det * scale * scale
	wantVarA := lamB / det * scale * scale
	wantVarB := lamA / det * scale * scale

	idA, idB := cat.MustEvent("A"), cat.MustEvent("B")
	gotAB := res.Cov(idA, idB)
	if e := math.Abs(gotAB-wantCovAB) / wantCovAB; e > 1e-9 {
		t.Errorf("Cov(A,B) = %g, hand-computed %g (rel err %g)", gotAB, wantCovAB, e)
	}
	if res.Cov(idB, idA) != gotAB {
		t.Errorf("Cov not symmetric: %g vs %g", res.Cov(idB, idA), gotAB)
	}
	if gotAB <= 0 {
		t.Errorf("equality-coupled pair has non-positive covariance %g", gotAB)
	}
	// The marginal posterior variances must agree with the same joint
	// (single factor ⇒ BP is exact here).
	if e := math.Abs(res.Std[idA]*res.Std[idA]-wantVarA) / wantVarA; e > 1e-6 {
		t.Errorf("Var(A) = %g, joint inverse %g (rel err %g)", res.Std[idA]*res.Std[idA], wantVarA, e)
	}
	if e := math.Abs(res.Std[idB]*res.Std[idB]-wantVarB) / wantVarB; e > 1e-6 {
		t.Errorf("Var(B) = %g, joint inverse %g (rel err %g)", res.Std[idB]*res.Std[idB], wantVarB, e)
	}
	rho := res.Corr(idA, idB)
	wantRho := wantCovAB / math.Sqrt(wantVarA*wantVarB)
	if math.Abs(rho-wantRho) > 1e-6 {
		t.Errorf("Corr(A,B) = %g, want %g", rho, wantRho)
	}
	if rho <= 0 || rho >= 1 {
		t.Errorf("Corr(A,B) = %g, want in (0,1)", rho)
	}
	// Events outside any shared clique carry no tracked covariance.
	if got := res.Cov(idA, idA); got != res.Std[idA]*res.Std[idA] {
		t.Errorf("Cov(A,A) = %g, want marginal variance %g", got, res.Std[idA]*res.Std[idA])
	}
}

// ipcToyCatalog is the covariance-aware IPC fixture: instructions are
// decomposed into two components pinned by a tightly measured total
// (inst = comp_a + comp_b), so the components' posteriors are negatively
// correlated, and IPC is declared over the components —
// IPC = (comp_a + comp_b)/cycles. The diagonal delta method adds the
// components' variances as if independent and over-counts; the clique
// covariance restores the cancellation.
func ipcToyCatalog(t *testing.T) *uarch.Catalog {
	return toyCatalog(t, uarch.Spec{
		Arch: "toy-ipc", ProgCounters: 4,
		Events: []uarch.EventSpec{
			{Name: "inst"}, {Name: "comp_a"}, {Name: "comp_b"}, {Name: "cycles"},
		},
		Relations: []uarch.RelationSpec{{
			Name: "inst_split", RelTol: 0.001,
			Terms: []uarch.TermSpec{
				{Event: "inst", Coeff: 1},
				{Event: "comp_a", Coeff: -1},
				{Event: "comp_b", Coeff: -1},
			},
		}},
		Derived: []uarch.DerivedSpec{{
			Name: "IPC", Kind: uarch.KindLinearRatio,
			Inputs: []string{"comp_a", "comp_b", "cycles"},
			Num:    []float64{1, 1, 0},
			Den:    []float64{0, 0, 1},
		}},
	})
}

// TestCovarianceAwareIPCStd is the satellite acceptance test: on
// negatively-correlated IPC inputs the covariance-aware posterior std must
// come in at or below the diagonal delta-method std, and it must agree
// with the sampled truth — the empirical std of the formula over draws
// from the joint posterior (clique covariance for the coupled pair,
// independent marginal for the uncoupled denominator).
func TestCovarianceAwareIPCStd(t *testing.T) {
	cat := ipcToyCatalog(t)
	instID := cat.MustEvent("inst")
	aID, bID := cat.MustEvent("comp_a"), cat.MustEvent("comp_b")
	cycID := cat.MustEvent("cycles")

	g := Build(cat)
	g.Observe(instID, 1.0e9, 0.001*1.0e9) // tight total pins the sum
	g.Observe(aID, 6.2e8, 0.06*6.2e8)     // loose components
	g.Observe(bID, 3.9e8, 0.05*3.9e8)
	g.Observe(cycID, 8.0e8, 0.02*8.0e8)
	res := g.Infer(500, 1e-11)
	if !res.Converged {
		t.Fatalf("toy graph did not converge in %d iters", res.Iters)
	}

	rho := res.Corr(aID, bID)
	if rho >= -0.5 {
		t.Fatalf("sum-pinned components correlate at %g, want strongly negative", rho)
	}
	if res.Corr(aID, cycID) != 0 || res.Corr(bID, cycID) != 0 {
		t.Fatalf("cycles share no clique with the components, Corr must be 0")
	}

	d := cat.DerivedByName("IPC")
	diagMean, diagStd := res.DerivedPosterior(d)
	covMean, covStd := res.DerivedPosteriorCov(d)
	if covMean != diagMean {
		t.Errorf("covariance-aware mean %g differs from diagonal %g", covMean, diagMean)
	}
	if covStd >= diagStd {
		t.Errorf("covariance-aware IPC std %g not below diagonal delta-method std %g", covStd, diagStd)
	}

	// Sampled ground truth for the std: draw (comp_a, comp_b) from the
	// clique's bivariate posterior and cycles from its independent
	// marginal, push each draw through the formula.
	muA, sdA := res.Posterior(aID)
	muB, sdB := res.Posterior(bID)
	muC, sdC := res.Posterior(cycID)
	r := rng.New(99)
	const draws = 400000
	var sum, sumSq float64
	orth := math.Sqrt(1 - rho*rho)
	for i := 0; i < draws; i++ {
		z1, z2 := r.Gaussian(0, 1), r.Gaussian(0, 1)
		xa := muA + sdA*z1
		xb := muB + sdB*(rho*z1+orth*z2)
		xc := r.Gaussian(muC, sdC)
		f := (xa + xb) / xc
		sum += f
		sumSq += f * f
	}
	mean := sum / draws
	sampledStd := math.Sqrt(sumSq/draws - mean*mean)
	if e := math.Abs(covStd-sampledStd) / sampledStd; e > 0.02 {
		t.Errorf("covariance-aware IPC std %g strays %.2f%% from sampled %g",
			covStd, 100*e, sampledStd)
	}
	// The diagonal std must NOT agree with the sampled truth here — that
	// disagreement is the whole reason to track clique covariances.
	if e := math.Abs(diagStd-sampledStd) / sampledStd; e < 0.10 {
		t.Errorf("diagonal std %g unexpectedly close to sampled %g (%.2f%%): fixture lost its correlation",
			diagStd, sampledStd, 100*e)
	}
	t.Logf("IPC std: diagonal %.4g, covariance-aware %.4g, sampled %.4g (rho=%.3f)",
		diagStd, covStd, sampledStd, rho)
}

// TestDerivedPosteriorCovUncoupledFallback: on a catalog whose derived
// inputs share no invariant (Skylake IPC — cycles take part in no
// relation), the covariance-aware propagation must reproduce the diagonal
// result bit for bit.
func TestDerivedPosteriorCovUncoupledFallback(t *testing.T) {
	cat := uarch.Skylake()
	truth := skylakeTruth(cat)
	g := Build(cat)
	for id, want := range truth {
		g.Observe(uarch.EventID(id), want, 0.01*want)
	}
	res := g.Infer(200, 1e-9)

	d := cat.DerivedByName("IPC")
	dm, ds := res.DerivedPosterior(d)
	cm, cs := res.DerivedPosteriorCov(d)
	if cm != dm || cs != ds {
		t.Errorf("uncoupled IPC: covariance-aware (%v, %v) differs from diagonal (%v, %v)", cm, cs, dm, ds)
	}

	// Branch_Misp_Rate's inputs share the branch_breakdown clique: the
	// covariance-aware std must differ (the coupling is real) yet stay
	// finite and positive.
	br := cat.DerivedByName("Branch_Misp_Rate")
	bdm, bds := res.DerivedPosterior(br)
	bcm, bcs := res.DerivedPosteriorCov(br)
	if bcm != bdm {
		t.Errorf("Branch_Misp_Rate mean changed: %v vs %v", bcm, bdm)
	}
	if bcs == bds {
		t.Errorf("branch-clique-coupled Branch_Misp_Rate std unchanged at %v", bcs)
	}
	if bcs <= 0 || math.IsNaN(bcs) || math.IsInf(bcs, 0) {
		t.Errorf("covariance-aware Branch_Misp_Rate std = %v", bcs)
	}
}

// TestBatchResultCorrMatchesWindow: the lane-indexed BatchResult.Corr reads
// the same slab entries with the same arithmetic as Window(lane).Corr, so
// every pair agrees bit for bit — on lanes with events left to the
// invariants, and for pairs that share no clique.
func TestBatchResultCorrMatchesWindow(t *testing.T) {
	cat := uarch.Skylake()
	r := rng.New(17)
	plan := Compile(cat)
	b := plan.NewBatch(5)
	b.EnableCovariance()
	for lane := 0; lane < 5; lane++ {
		for id := 0; id < cat.NumEvents(); id++ {
			if (id+lane)%4 == 0 {
				continue // leave some events to the invariants
			}
			m := 1e6 * (1 + r.Float64())
			b.Observe(lane, uarch.EventID(id), m, 0.03*m)
		}
	}
	res := b.Execute(5, 500, 1e-9)
	checked := 0
	for lane := 0; lane < 5; lane++ {
		w := res.Window(lane)
		for i := 0; i < cat.NumEvents(); i++ {
			for j := 0; j < cat.NumEvents(); j++ {
				got, want := res.Corr(lane, uarch.EventID(i), uarch.EventID(j)), w.Corr(uarch.EventID(i), uarch.EventID(j))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("lane %d Corr(%d,%d) = %v, Window gives %v", lane, i, j, got, want)
				}
				if got != 0 && i != j {
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no coupled pair had a nonzero correlation")
	}
}
