package lp

import (
	"math"
	"slices"
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
	q := warmBase(0)
	warm, err := q.SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	mustCertify(t, q, warm)
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
	mustCertify(t, p, warm)
	if !warm.Stats.WarmStarted {
		t.Fatal("expected a warm start")
	}
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
	mustCertify(t, p, warm)
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
	mustCertify(t, p, warm)
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
	mustCertify(t, p, warm)
}

func TestSolveFromArtificialBasisColumnFallsBack(t *testing.T) {
	// A program of one variable and one <= row has a structural and a slack
	// column and no artificial: column 2, where the first artificial would
	// sit, is past the last tableau column. Such a basis cannot be
	// installed, so SolveFrom must fall back to a cold solve.
	q := NewMaximize(1)
	q.SetObjective(0, 1)
	mustAdd(t, q, Constraint{Terms: []Term{{0, 1}}, Sense: LessEq, RHS: 2})
	warm, err := q.SolveFrom([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	mustCertify(t, q, warm)
	if warm.Stats.WarmStarted {
		t.Error("out-of-range basis column must fall back")
	}
	if warm.Status != Optimal || math.Abs(warm.Objective-2) > 1e-9 {
		t.Fatalf("fallback solve wrong: %v obj %v", warm.Status, warm.Objective)
	}
}

// TestSolveFromZeroLevelArtificialInstalls pins that an exported basis
// holding an artificial at zero level is a basis like any other: the
// duplicated equality leaves its artificial basic in the redundant row, and
// re-solving a shifted right-hand side from that basis installs it and skips
// phase 1.
func TestSolveFromZeroLevelArtificialInstalls(t *testing.T) {
	build := func(rhs float64) *Problem {
		p := NewMaximize(2)
		p.SetObjective(0, 1)
		mustAdd(t, p, Constraint{Terms: []Term{{0, 1}, {1, 1}}, Sense: Equal, RHS: rhs})
		mustAdd(t, p, Constraint{Terms: []Term{{0, 2}, {1, 2}}, Sense: Equal, RHS: 2 * rhs})
		return p
	}
	cold := solveOK(t, build(2))
	// Two structural columns and no slacks: columns 2 and 3 are the rows'
	// artificials.
	if !slices.ContainsFunc(cold.Basis, func(c int) bool { return c >= 2 }) {
		t.Fatalf("precondition: basis %v holds no artificial", cold.Basis)
	}
	p := build(2.5)
	warm, err := p.SolveFrom(cold.Basis)
	if err != nil {
		t.Fatal(err)
	}
	mustCertify(t, p, warm)
	if !warm.Stats.WarmStarted {
		t.Fatal("a basis with a zero-level artificial must install")
	}
	if warm.Status != Optimal || math.Abs(warm.Objective-2.5) > 1e-9 {
		t.Fatalf("warm solve wrong: %v obj %v", warm.Status, warm.Objective)
	}
	if warm.Stats.Phase1Pivots > len(cold.Basis) {
		t.Fatalf("phase-1 pivots = %d, want only the %d installation pivots", warm.Stats.Phase1Pivots, len(cold.Basis))
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
		base := solveOK(t, build(0))
		const delta = 0.05
		cold := solveOK(t, build(delta))
		p := build(delta)
		warm, err := p.SolveFrom(base.Basis)
		if err != nil || warm.Status != Optimal {
			t.Fatalf("trial %d: warm %v %v", trial, warm.Status, err)
		}
		mustCertify(t, p, warm)
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
	q := build()
	warm, err := q.SolveFrom(cold.Basis)
	if err != nil {
		t.Fatal(err)
	}
	mustCertify(t, q, warm)
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
	p := warmBase(0)
	warm, err := p.SolveFrom([]int{0, 0}) // first pivot installs, second is singular
	if err != nil {
		t.Fatal(err)
	}
	mustCertify(t, p, warm)
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
