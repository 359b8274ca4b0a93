package lp

import (
	"math"
	"testing"

	"surfnet/internal/rng"
)

// perturbed builds the TestSimple2D program with the first RHS shifted.
func warmBase(delta float64) *Problem {
	p := NewMaximize(2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 2)
	p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, 1}}, Sense: LessEq, RHS: 4 + delta})
	p.AddConstraint(Constraint{Terms: []Term{{0, 1}, {1, 3}}, Sense: LessEq, RHS: 6 + delta})
	return p
}

func TestSolveFromNilBasisIsColdSolve(t *testing.T) {
	p := warmBase(0)
	cold := solveOK(t, p)
	warm, err := warmBase(0).SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.WarmStarted {
		t.Error("nil basis must not report a warm start")
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("objective %v != cold %v", warm.Objective, cold.Objective)
	}
}

func TestSolveFromReusesBasis(t *testing.T) {
	cold := solveOK(t, warmBase(0))
	if cold.Basis == nil {
		t.Fatal("optimal solve should export its basis")
	}
	// Re-solve a slightly perturbed instance from the old optimal basis:
	// same vertex structure, so the warm solve should install the basis,
	// skip phase 1, and land on the shifted optimum with zero extra pivots
	// beyond the installation.
	p := warmBase(0.5)
	warm, err := p.SolveFrom(cold.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal {
		t.Fatalf("status = %v", warm.Status)
	}
	if !warm.Stats.WarmStarted {
		t.Fatal("expected a warm start")
	}
	feasCheck(t, p, warm.X)
	want := solveOK(t, warmBase(0.5))
	if math.Abs(warm.Objective-want.Objective) > 1e-6 {
		t.Fatalf("warm objective %v != cold %v", warm.Objective, want.Objective)
	}
}

func TestSolveFromShapeMismatchFallsBack(t *testing.T) {
	p := warmBase(0)
	warm, err := p.SolveFrom([]int{0}) // wrong row count
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.WarmStarted {
		t.Error("shape mismatch must fall back to cold solve")
	}
	if warm.Status != Optimal || math.Abs(warm.Objective-12) > 1e-6 {
		t.Fatalf("fallback solve wrong: %v obj %v", warm.Status, warm.Objective)
	}
}

func TestSolveFromSingularBasisFallsBack(t *testing.T) {
	p := warmBase(0)
	// Duplicate column: basis matrix singular after first install pivot.
	warm, err := p.SolveFrom([]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.WarmStarted {
		t.Error("singular basis must fall back")
	}
	if warm.Status != Optimal || math.Abs(warm.Objective-12) > 1e-6 {
		t.Fatalf("fallback solve wrong: %v obj %v", warm.Status, warm.Objective)
	}
}

func TestSolveFromInfeasibleVertexFallsBack(t *testing.T) {
	cold := solveOK(t, warmBase(0))
	// Tighten the second constraint far below the old vertex: the stale
	// basis is primal-infeasible, so SolveFrom must cold-solve.
	p := NewMaximize(2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 2)
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}, {1, 1}}, Sense: LessEq, RHS: 4})
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}, {1, 3}}, Sense: LessEq, RHS: 1})
	warm, err := p.SolveFrom(cold.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.WarmStarted {
		t.Error("infeasible vertex must fall back")
	}
	if warm.Status != Optimal {
		t.Fatalf("status = %v", warm.Status)
	}
	feasCheck(t, p, warm.X)
}

func TestSolveFromArtificialBasisColumnFallsBack(t *testing.T) {
	// An equality row can leave a redundant-row artificial in the exported
	// basis; feeding such a basis to SolveFrom must fall back, not install
	// an artificial column.
	p := NewMaximize(1)
	p.SetObjective(0, 1)
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}}, Sense: LessEq, RHS: 2})
	sol := solveOK(t, p)
	q := NewMaximize(1)
	q.SetObjective(0, 1)
	mustAdd(t, q, Constraint{Terms: []Term{{0, 1}}, Sense: LessEq, RHS: 2})
	// Column 2 would be the first artificial slot if one existed; it is out
	// of the structural+slack range for this instance.
	warm, err := q.SolveFrom([]int{len(sol.X) + 1})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.WarmStarted {
		t.Error("out-of-range basis column must fall back")
	}
	if warm.Status != Optimal || math.Abs(warm.Objective-2) > 1e-9 {
		t.Fatalf("fallback solve wrong: %v obj %v", warm.Status, warm.Objective)
	}
}

// TestSolveFromRandomPerturbations re-solves random box LPs from the previous
// basis under small RHS perturbations and checks the warm objective always
// matches a cold solve — warm starting may pick a different optimal vertex
// but never a different optimum.
func TestSolveFromRandomPerturbations(t *testing.T) {
	src := rng.New(424242)
	for trial := 0; trial < 30; trial++ {
		stream := src.SplitN("warm", trial)
		n := 2 + stream.IntN(4)
		m := 1 + stream.IntN(4)
		build := func(delta float64) *Problem {
			s := src.SplitN("warmbuild", trial)
			p := NewMaximize(n)
			for v := 0; v < n; v++ {
				p.SetObjective(v, s.Float64())
			}
			for c := 0; c < m; c++ {
				terms := make([]Term, 0, n)
				for v := 0; v < n; v++ {
					terms = append(terms, Term{Var: v, Coeff: s.Float64()})
				}
				p.AddConstraint(Constraint{Terms: terms, Sense: LessEq, RHS: 1 + s.Float64() + delta})
			}
			return p
		}
		base, err := build(0).Solve()
		if err != nil || base.Status != Optimal {
			t.Fatalf("trial %d: base %v %v", trial, base.Status, err)
		}
		const delta = 0.05
		cold, err := build(delta).Solve()
		if err != nil || cold.Status != Optimal {
			t.Fatalf("trial %d: cold %v %v", trial, cold.Status, err)
		}
		p := build(delta)
		warm, err := p.SolveFrom(base.Basis)
		if err != nil || warm.Status != Optimal {
			t.Fatalf("trial %d: warm %v %v", trial, warm.Status, err)
		}
		feasCheck(t, p, warm.X)
		if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
			t.Fatalf("trial %d: warm objective %v != cold %v (warmStarted=%v)",
				trial, warm.Objective, cold.Objective, warm.Stats.WarmStarted)
		}
	}
}

// TestSolveFromSavesPhase1 pins the point of warm starting: on an unchanged
// instance the warm solve performs no phase-1 pivots beyond basis
// installation and reaches optimality immediately.
func TestSolveFromSavesPhase1(t *testing.T) {
	// Use >= rows so the cold solve needs a genuine phase 1.
	build := func() *Problem {
		p := NewMinimize(3)
		p.SetObjective(0, 2)
		p.SetObjective(1, 3)
		p.SetObjective(2, 1)
		mustAdd(t, p, Constraint{Terms: []Term{{0, 1}, {1, 1}, {2, 1}}, Sense: GreaterEq, RHS: 6})
		mustAdd(t, p, Constraint{Terms: []Term{{0, 1}, {1, 2}}, Sense: GreaterEq, RHS: 4})
		mustAdd(t, p, Constraint{Terms: []Term{{2, 1}}, Sense: LessEq, RHS: 5})
		return p
	}
	cold := solveOK(t, build())
	if cold.Stats.Phase1Pivots == 0 {
		t.Fatal("precondition: cold solve should need phase 1")
	}
	warm, err := build().SolveFrom(cold.Basis)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.WarmStarted {
		t.Fatal("expected warm start on identical instance")
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("objective %v != %v", warm.Objective, cold.Objective)
	}
	// Installation costs at most one pivot per row; phase 2 should then be
	// already optimal (0 further pivots) on an unchanged instance.
	if got := warm.Stats.Pivots; got > len(cold.Basis) {
		t.Fatalf("warm solve used %d pivots, want <= %d", got, len(cold.Basis))
	}
}

// TestSolveFromFallbackCountsDiscardedPivots pins honest effort accounting:
// a basis that installs partway before turning singular costs pivots, and the
// fallback's Stats must include them on top of the cold solve's own.
func TestSolveFromFallbackCountsDiscardedPivots(t *testing.T) {
	cold := solveOK(t, warmBase(0))
	warm, err := warmBase(0).SolveFrom([]int{0, 0}) // first pivot installs, second is singular
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.WarmStarted {
		t.Fatal("singular basis must fall back")
	}
	if got, want := warm.Stats.Pivots, cold.Stats.Pivots+1; got != want {
		t.Fatalf("fallback pivots = %d, want cold %d + 1 discarded", got, cold.Stats.Pivots)
	}
	if warm.Stats.Phase1Pivots != cold.Stats.Phase1Pivots {
		t.Fatalf("phase-1 pivots = %d, want the cold solve's %d", warm.Stats.Phase1Pivots, cold.Stats.Phase1Pivots)
	}
}
