package lp

import (
	"errors"
	"math"
	"testing"

	"surfnet/internal/rng"
)

// solveOK solves p and fails t unless the outcome is Optimal and certified.
func solveOK(t *testing.T, p *Problem) Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	mustCertify(t, p, sol)
	return sol
}

func TestSimple2D(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj 12.
	p := NewMaximize(2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 2)
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}, {1, 1}}, Sense: LessEq, RHS: 4})
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}, {1, 3}}, Sense: LessEq, RHS: 6})
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-12) > 1e-6 {
		t.Fatalf("objective = %v, want 12", sol.Objective)
	}
}

func TestMinimization(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 5, x <= 3 -> x=3, y=2, obj 12.
	p := NewMinimize(2)
	p.SetObjective(0, 2)
	p.SetObjective(1, 3)
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}, {1, 1}}, Sense: GreaterEq, RHS: 5})
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}}, Sense: LessEq, RHS: 3})
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-12) > 1e-6 {
		t.Fatalf("objective = %v, want 12", sol.Objective)
	}
	if math.Abs(sol.X[0]-3) > 1e-6 || math.Abs(sol.X[1]-2) > 1e-6 {
		t.Fatalf("x = %v, want [3 2]", sol.X)
	}
}

func TestEquality(t *testing.T) {
	// max x + y s.t. x + 2y = 4, x <= 2 -> x=2, y=1, obj 3.
	p := NewMaximize(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}, {1, 2}}, Sense: Equal, RHS: 4})
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}}, Sense: LessEq, RHS: 2})
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-3) > 1e-6 {
		t.Fatalf("objective = %v, want 3", sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewMaximize(1)
	p.SetObjective(0, 1)
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}}, Sense: LessEq, RHS: 1})
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}}, Sense: GreaterEq, RHS: 2})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewMaximize(2)
	p.SetObjective(0, 1)
	mustAdd(t, p, Constraint{Terms: []Term{{1, 1}}, Sense: LessEq, RHS: 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestNegativeRHS(t *testing.T) {
	// x - y <= -2 with y <= 5: max x -> x=3 at y=5.
	p := NewMaximize(2)
	p.SetObjective(0, 1)
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}, {1, -1}}, Sense: LessEq, RHS: -2})
	mustAdd(t, p, Constraint{Terms: []Term{{1, 1}}, Sense: LessEq, RHS: 5})
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-3) > 1e-6 {
		t.Fatalf("objective = %v, want 3", sol.Objective)
	}
}

func TestDegenerate(t *testing.T) {
	// Classic degenerate LP (multiple constraints active at the origin).
	p := NewMaximize(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}}, Sense: LessEq, RHS: 0})
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}, {1, 1}}, Sense: LessEq, RHS: 0})
	mustAdd(t, p, Constraint{Terms: []Term{{0, 2}, {1, 1}}, Sense: LessEq, RHS: 0})
	sol := solveOK(t, p)
	if math.Abs(sol.Objective) > 1e-6 {
		t.Fatalf("objective = %v, want 0", sol.Objective)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// Duplicate equality rows leave a redundant artificial in the basis.
	p := NewMaximize(2)
	p.SetObjective(0, 1)
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}, {1, 1}}, Sense: Equal, RHS: 2})
	mustAdd(t, p, Constraint{Terms: []Term{{0, 2}, {1, 2}}, Sense: Equal, RHS: 4})
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-2) > 1e-6 {
		t.Fatalf("objective = %v, want 2", sol.Objective)
	}
}

func TestMaxFlowAsLP(t *testing.T) {
	// Max flow on a 4-node diamond: s->a (3), s->b (2), a->t (2), b->t (3),
	// a->b (10). Max flow = 4 (a->t 2 limits the upper path; s->b 2 the
	// lower; a->b lets 1 unit reroute: s->a 3 = a->t 2 + a->b 1, b->t gets
	// 2+1=3 -> total 3+2=5? No: s-cut {s}: 3+2=5; cut {s,a,b}: 2+3=5;
	// cut {s,a}: s->b 2 + a->t 2 + a->b... a->b leaves the cut: 2+2+10.
	// Min cut = 5, so max flow = 5.
	// Variables: f_sa, f_sb, f_at, f_bt, f_ab.
	p := NewMaximize(5)
	p.SetObjective(0, 1) // flow out of s = f_sa
	p.SetObjective(1, 1) // + f_sb
	caps := []float64{3, 2, 2, 3, 10}
	for v, c := range caps {
		mustAdd(t, p, Constraint{Terms: []Term{{v, 1}}, Sense: LessEq, RHS: c})
	}
	// Conservation at a: f_sa = f_at + f_ab.
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}, {2, -1}, {4, -1}}, Sense: Equal, RHS: 0})
	// Conservation at b: f_sb + f_ab = f_bt.
	mustAdd(t, p, Constraint{Terms: []Term{{1, 1}, {4, 1}, {3, -1}}, Sense: Equal, RHS: 0})
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-5) > 1e-6 {
		t.Fatalf("max flow = %v, want 5", sol.Objective)
	}
}

func TestRandomBoxLPs(t *testing.T) {
	// max sum(c_i x_i) with x_i <= u_i and redundant aggregate rows: the
	// optimum is sum(c_i u_i) for positive c.
	src := rng.New(606)
	for trial := 0; trial < 50; trial++ {
		n := 2 + src.IntN(10)
		p := NewMaximize(n)
		want := 0.0
		terms := make([]Term, n)
		sumU := 0.0
		for v := 0; v < n; v++ {
			c := src.Range(0.1, 5)
			u := src.Range(0, 10)
			p.SetObjective(v, c)
			mustAdd(t, p, Constraint{Terms: []Term{{v, 1}}, Sense: LessEq, RHS: u})
			want += c * u
			terms[v] = Term{v, 1}
			sumU += u
		}
		// Redundant: sum x_i <= sum u_i (+slack), sum x_i >= 0.
		mustAdd(t, p, Constraint{Terms: terms, Sense: LessEq, RHS: sumU + 1})
		mustAdd(t, p, Constraint{Terms: terms, Sense: GreaterEq, RHS: 0})
		sol := solveOK(t, p)
		if math.Abs(sol.Objective-want) > 1e-5 {
			t.Fatalf("trial %d: objective %v, want %v", trial, sol.Objective, want)
		}
	}
}

func TestRandomTransportation(t *testing.T) {
	// Balanced transportation problems: min cost, total supply == total
	// demand. Optimal objective must match a brute-force over integer
	// assignments for tiny sizes... instead verify feasibility and that
	// the LP value lower-bounds a greedy feasible solution.
	src := rng.New(1212)
	for trial := 0; trial < 20; trial++ {
		ns, nd := 2+src.IntN(3), 2+src.IntN(3)
		supply := make([]float64, ns)
		demand := make([]float64, nd)
		totalSupply := 0.0
		for i := range supply {
			supply[i] = float64(1 + src.IntN(5))
			totalSupply += supply[i]
		}
		rem := totalSupply
		for j := 0; j < nd-1; j++ {
			d := rem * src.Range(0.1, 0.5)
			demand[j] = d
			rem -= d
		}
		demand[nd-1] = rem
		cost := make([][]float64, ns)
		p := NewMinimize(ns * nd)
		for i := range cost {
			cost[i] = make([]float64, nd)
			for j := range cost[i] {
				cost[i][j] = src.Range(1, 10)
				p.SetObjective(i*nd+j, cost[i][j])
			}
		}
		for i := 0; i < ns; i++ {
			terms := make([]Term, nd)
			for j := 0; j < nd; j++ {
				terms[j] = Term{i*nd + j, 1}
			}
			mustAdd(t, p, Constraint{Terms: terms, Sense: LessEq, RHS: supply[i]})
		}
		for j := 0; j < nd; j++ {
			terms := make([]Term, ns)
			for i := 0; i < ns; i++ {
				terms[i] = Term{i*nd + j, 1}
			}
			mustAdd(t, p, Constraint{Terms: terms, Sense: GreaterEq, RHS: demand[j]})
		}
		sol := solveOK(t, p)
		// Greedy feasible: ship everything via the first supplier rows in
		// order; its cost upper-bounds the optimum.
		greedy := 0.0
		remSupply := append([]float64(nil), supply...)
		for j := 0; j < nd; j++ {
			need := demand[j]
			for i := 0; i < ns && need > 1e-12; i++ {
				amt := math.Min(need, remSupply[i])
				greedy += amt * cost[i][j]
				remSupply[i] -= amt
				need -= amt
			}
		}
		if sol.Objective > greedy+1e-6 {
			t.Fatalf("trial %d: LP cost %v exceeds greedy %v", trial, sol.Objective, greedy)
		}
	}
}

func TestConstraintValidation(t *testing.T) {
	p := NewMaximize(2)
	if err := p.AddConstraint(Constraint{Terms: []Term{{5, 1}}, Sense: LessEq, RHS: 1}); err == nil {
		t.Error("out-of-range variable should fail")
	}
	if err := p.AddConstraint(Constraint{Terms: []Term{{0, math.NaN()}}, Sense: LessEq, RHS: 1}); err == nil {
		t.Error("NaN coefficient should fail")
	}
	if err := p.AddConstraint(Constraint{Terms: []Term{{0, 1}}, Sense: Sense(9), RHS: 1}); err == nil {
		t.Error("bad sense should fail")
	}
	if err := p.AddConstraint(Constraint{Terms: []Term{{0, 1}}, Sense: LessEq, RHS: math.Inf(1)}); err == nil {
		t.Error("infinite RHS should fail")
	}
}

func TestSolveStats(t *testing.T) {
	// A non-trivial solve must report pivot and iteration work, and the
	// iteration count bounds the pivot count per phase.
	p := NewMaximize(2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 2)
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}, {1, 1}}, Sense: LessEq, RHS: 4})
	mustAdd(t, p, Constraint{Terms: []Term{{0, 1}, {1, 3}}, Sense: LessEq, RHS: 6})
	sol := solveOK(t, p)
	if sol.Stats.Pivots == 0 {
		t.Fatal("optimal solve reported zero pivots")
	}
	if sol.Stats.Iterations == 0 {
		t.Fatal("optimal solve reported zero iterations")
	}
	if sol.Stats.Pivots < sol.Stats.Phase1Pivots {
		t.Fatalf("total pivots %d < phase-1 pivots %d", sol.Stats.Pivots, sol.Stats.Phase1Pivots)
	}
	// All-<= constraints with nonnegative RHS start feasible: no phase 1.
	if sol.Stats.Phase1Pivots != 0 {
		t.Fatalf("phase-1 pivots = %d, want 0 for a feasible start", sol.Stats.Phase1Pivots)
	}

	// An infeasible problem still reports the phase-1 work it did.
	q := NewMaximize(1)
	q.SetObjective(0, 1)
	mustAdd(t, q, Constraint{Terms: []Term{{0, 1}}, Sense: LessEq, RHS: 1})
	mustAdd(t, q, Constraint{Terms: []Term{{0, 1}}, Sense: GreaterEq, RHS: 2})
	sol2, err := q.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol2.Status)
	}
	if sol2.Stats.Pivots == 0 || sol2.Stats.Phase1Pivots == 0 {
		t.Fatalf("infeasible solve reported no phase-1 work: %+v", sol2.Stats)
	}
}

func TestStatusStrings(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Error("status strings wrong")
	}
	if LessEq.String() != "<=" || Equal.String() != "=" || GreaterEq.String() != ">=" {
		t.Error("sense strings wrong")
	}
}

func mustAdd(t *testing.T, p *Problem, c Constraint) {
	t.Helper()
	if err := p.AddConstraint(c); err != nil {
		t.Fatalf("AddConstraint: %v", err)
	}
}

// TestIterationLimitReportsStats pins that a solve exhausting its iteration
// budget still reports its effort. Dantzig's rule takes 2^n - 1 pivots on the
// Klee–Minty cube; at n = 14 that exceeds the 30*(m+total)+10000 budget.
func TestIterationLimitReportsStats(t *testing.T) {
	const n = 14
	p := NewMaximize(n)
	for j := 0; j < n; j++ {
		p.SetObjective(j, math.Ldexp(1, n-1-j))
	}
	for i := 0; i < n; i++ {
		terms := []Term{{i, 1}}
		for j := 0; j < i; j++ {
			terms = append(terms, Term{j, math.Ldexp(1, i-j+1)})
		}
		mustAdd(t, p, Constraint{Terms: terms, Sense: LessEq, RHS: math.Pow(5, float64(i+1))})
	}
	sol, err := p.Solve()
	if !errors.Is(err, ErrIterationLimit) {
		t.Fatalf("err = %v, want ErrIterationLimit", err)
	}
	if budget := 30*(n+2*n) + 10000; sol.Stats.Pivots != budget || sol.Stats.Iterations != budget {
		t.Fatalf("stats = %+v, want %d pivots and iterations", sol.Stats, budget)
	}
}
