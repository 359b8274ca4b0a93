package lp

import (
	"math"
	"testing"
)

// TestPhase1FeasibilityScale is the regression test for the unified
// tolerance scheme: an ill-conditioned instance whose entire geometry lives
// around 1e-7. The constraint pair x <= 1e-7, x >= 6e-7 is infeasible by
// five times its own magnitude, but the phase-1 artificial residual (5e-7)
// stayed under the old absolute -1e-6 cutoff, so the mixed scales disagreed:
// entering columns were judged at 1e-7 while feasibility was judged at 1e-6,
// and the solver declared the system feasible. The RHS-scaled test
// (feasRelTol * max(1, max|RHS|) = 1e-7 here) classifies it correctly.
func TestPhase1FeasibilityScale(t *testing.T) {
	p := NewMaximize(1)
	p.SetObjective(0, 1)
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}}, Sense: LessEq, RHS: 1e-7})
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}}, Sense: GreaterEq, RHS: 6e-7})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v (objective %v), want infeasible", sol.Status, sol.Objective)
	}
}

// TestPhase1FeasibilityScaleLarge checks the other direction of the relative
// test: on a large-magnitude instance, a genuinely feasible system with an
// equality constraint in the 1e6 range must not be rejected by a tolerance
// that fails to scale up (phase-1 elimination residue grows with the RHS).
func TestPhase1FeasibilityScaleLarge(t *testing.T) {
	p := NewMinimize(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}, {1, 1}}, Sense: Equal, RHS: 3.7e6})
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}}, Sense: LessEq, RHS: 2.9e6})
	sol := solveOK(t, p)
	if got, want := sol.Objective, 3.7e6; got < want*(1-1e-9) || got > want*(1+1e-9) {
		t.Fatalf("objective = %v, want %v", got, want)
	}
}

// TestBoundaryFeasibleNearTolerance pins a system feasible exactly at its
// bound: x <= a, x >= a must stay Feasible for small a (no artificial mass
// remains, whatever the scale).
func TestBoundaryFeasibleNearTolerance(t *testing.T) {
	for _, a := range []float64{1e-7, 1e-3, 1, 1e5} {
		p := NewMaximize(1)
		p.SetObjective(0, 1)
		mustAdd(t, p, Constraint{Terms: []Term{{0, 1}}, Sense: LessEq, RHS: a})
		mustAdd(t, p, Constraint{Terms: []Term{{0, 1}}, Sense: GreaterEq, RHS: a})
		sol := solveOK(t, p)
		if diff := sol.Objective - a; diff > 1e-9*a || diff < -1e-9*a {
			t.Fatalf("a=%v: objective %v", a, sol.Objective)
		}
	}
}

// TestPhase1RunsOnSmallRowInLargeProgram pins that phase 1 is skipped only
// when the starting basis is exactly feasible. min x s.t. x >= 0.5, y <= 1e7:
// the feasibility tolerance scales with the largest right-hand side (1e-7 ·
// 1e7 = 1), so a rule that skipped phase 1 for artificial mass under that
// tolerance would accept x = 0 from the starting basis.
func TestPhase1RunsOnSmallRowInLargeProgram(t *testing.T) {
	p := NewMinimize(2)
	p.SetObjective(0, 1)
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}}, Sense: GreaterEq, RHS: 0.5})
	mustAdd(t, p, Constraint{Terms: []Term{{1, 1}}, Sense: LessEq, RHS: 1e7})
	sol := solveOK(t, p)
	if sol.Stats.Phase1Pivots == 0 {
		t.Error("phase 1 did not run")
	}
	if math.Abs(sol.X[0]-0.5) > 1e-9 || math.Abs(sol.Objective-0.5) > 1e-9 {
		t.Fatalf("x = %v, objective %v; want x0 = 0.5, objective 0.5", sol.X, sol.Objective)
	}
}

// TestHeldArtificialLeavesAtZero covers the Harris shift on a held
// artificial. x1 <= 0 and x1 - 0.5·x0 = 5e-8 are infeasible by 5e-8, inside
// the tolerance, so phase 1 ends with the equality row's artificial basic at
// 5e-8. Maximizing x0 then makes that row leave (its x0 entry is -0.5);
// pivoting on the unshifted right-hand side would enter x0 at -1e-7. The
// vertex enumeration of the certificate would find this program infeasible,
// so the test checks X directly.
func TestHeldArtificialLeavesAtZero(t *testing.T) {
	p := NewMaximize(2)
	p.SetObjective(0, 1)
	mustAdd(t, p, Constraint{Terms: []Term{{1, 1}}, Sense: LessEq, RHS: 0})
	mustAdd(t, p, Constraint{Terms: []Term{{1, 1}, {0, -0.5}}, Sense: Equal, RHS: 5e-8})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	for j, x := range sol.X {
		if x < 0 {
			t.Errorf("x[%d] = %v < 0", j, x)
		}
	}
	if sol.Objective < 0 {
		t.Errorf("objective %v < 0", sol.Objective)
	}
}
