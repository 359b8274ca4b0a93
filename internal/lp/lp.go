// Package lp provides a self-contained linear-programming solver: a primal
// tableau simplex with a Harris two-pass ratio test and Bland anti-cycling,
// which runs phase 1 only when the starting basis is infeasible.
//
// The routing protocol of §V formulates scheduling as an integer program and
// evaluates "a relaxed Linear Programming version with rounding"; this solver
// is the substrate for that relaxation. Problems are stated over non-negative
// variables with sparse <=, =, >= constraints and a linear objective. The
// tableau is stored dense and built straight from the sparse terms; each
// Gauss-Jordan pivot eliminates only over the nonzero columns of its pivot
// row, which the routing LP's mostly-zero rows make a small fraction of the
// width, and the periodic exact reduced-cost recomputation sums only the rows
// whose basic variable has a cost. The results are bit-identical to dense
// arithmetic (up to the sign of exact zeros); the tests keep the dense
// construction and pivot as an oracle.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is a constraint direction.
type Sense int

// Constraint senses.
const (
	LessEq Sense = 1 + iota
	Equal
	GreaterEq
)

// String implements fmt.Stringer.
func (s Sense) String() string {
	switch s {
	case LessEq:
		return "<="
	case Equal:
		return "="
	case GreaterEq:
		return ">="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Term is one coefficient of a sparse constraint row.
type Term struct {
	Var   int
	Coeff float64
}

// Constraint is a sparse linear constraint sum(Coeff_i * x_i) Sense RHS.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   float64
}

// Problem is a linear program over NumVars non-negative variables.
type Problem struct {
	numVars     int
	objective   []float64
	maximize    bool
	constraints []Constraint
}

// NewMaximize returns a maximization problem over n non-negative variables
// with zero objective coefficients.
func NewMaximize(n int) *Problem {
	return &Problem{numVars: n, objective: make([]float64, n), maximize: true}
}

// NewMinimize returns a minimization problem over n non-negative variables.
func NewMinimize(n int) *Problem {
	return &Problem{numVars: n, objective: make([]float64, n)}
}

// NumVars reports the variable count.
func (p *Problem) NumVars() int { return p.numVars }

// NumConstraints reports the constraint count.
func (p *Problem) NumConstraints() int { return len(p.constraints) }

// SetObjective sets the objective coefficient of variable v.
func (p *Problem) SetObjective(v int, c float64) {
	p.objective[v] = c
}

// AddConstraint appends a constraint; it returns an error when a term
// references an unknown variable or a coefficient is not finite.
func (p *Problem) AddConstraint(c Constraint) error {
	for _, t := range c.Terms {
		if t.Var < 0 || t.Var >= p.numVars {
			return fmt.Errorf("lp: constraint references variable %d outside [0,%d)", t.Var, p.numVars)
		}
		if math.IsNaN(t.Coeff) || math.IsInf(t.Coeff, 0) {
			return fmt.Errorf("lp: non-finite coefficient %v on variable %d", t.Coeff, t.Var)
		}
	}
	if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
		return fmt.Errorf("lp: non-finite RHS %v", c.RHS)
	}
	switch c.Sense {
	case LessEq, Equal, GreaterEq:
	default:
		return fmt.Errorf("lp: invalid sense %v", c.Sense)
	}
	p.constraints = append(p.constraints, c)
	return nil
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = 1 + iota
	Infeasible
	Unbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Stats counts the work a solve call performed; the routing layer exports
// them as scheduler telemetry and routesolve prints them. They are reported
// on every outcome, ErrIterationLimit included.
type Stats struct {
	// Pivots is the total number of Gauss-Jordan pivots the call performed:
	// both phases and, when SolveFrom falls back to a cold solve, the
	// installation pivots it discarded.
	Pivots int
	// Phase1Pivots is the pivot count attributable to phase 1 (the basis
	// installation on a warm start; excluding discarded pivots on a
	// fallback). It is zero when the cold starting basis is already
	// feasible and phase 1 is skipped.
	Phase1Pivots int
	// Iterations is the number of simplex iterations (entering-column
	// selections) in the two phases; each phase's final optimality check is
	// an iteration without a pivot.
	Iterations int
	// DegeneratePivots counts pivots with a (near-)zero ratio step.
	DegeneratePivots int
	// Refreshes counts exact reduced-cost recomputations.
	Refreshes int
	// WarmStarted reports that SolveFrom installed the supplied basis and
	// skipped phase 1; false on cold solves and on warm-start fallbacks.
	WarmStarted bool
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	// Stats reports solver effort; populated on every outcome, including
	// Infeasible and Unbounded.
	Stats Stats
	// Basis is the final simplex basis on Optimal outcomes: one tableau
	// column index per constraint row. Feed it to SolveFrom on a
	// similarly-shaped problem to warm-start the next solve.
	Basis []int
}

// Solver errors.
var (
	// ErrIterationLimit is returned when simplex exceeds its pivot budget.
	ErrIterationLimit = errors.New("lp: iteration limit exceeded")
)

// Simplex tolerances. The numeric thresholds form one documented scheme
// instead of ad-hoc magic numbers at each comparison site:
//
//   - pivotEps classifies tableau entries and ratio-test steps as numerically
//     zero. It bounds accumulated elimination roundoff, which is independent
//     of problem magnitude, so it is absolute.
//   - harrisDelta is the primal infeasibility the Harris ratio test tolerates
//     on each step: the step may overshoot a blocking row by harrisDelta/a,
//     which buys the freedom to pivot on the largest entry among the nearly
//     tied rows instead of a tiny one that blows up the tableau. A row left
//     negative is shifted back to zero when it leaves the basis.
//   - enterEps is the reduced-cost threshold for entering columns — two
//     decades above pivotEps so elimination noise in the objective row can
//     never be mistaken for an improving direction.
//   - feasRelTol is the feasibility test, *relative* to the problem's
//     right-hand-side magnitude: phase 1 declares infeasibility when the
//     residual artificial mass exceeds feasRelTol * max(1, max|RHS|), and a
//     warm-started vertex is refused when it leaves a row further than that
//     from feasibility. An absolute cutoff here disagrees with the other
//     scales on badly
//     scaled instances — a constraint system with RHS values around 1e-7
//     can be genuinely infeasible by several times its own magnitude while
//     the residual stays under any fixed cutoff (see
//     TestPhase1FeasibilityScale).
const (
	pivotEps     = 1e-9
	harrisDelta  = 1e-9
	enterEps     = 1e-7
	feasRelTol   = 1e-7
	blandTrigger = 1500 // degenerate pivots before switching to Bland's rule
	refreshEvery = 256  // pivots between exact reduced-cost recomputations
)

// Solve runs primal simplex. An Infeasible or Unbounded status is reported in
// the Solution, not as an error; errors indicate solver failure. On
// ErrIterationLimit the Solution still carries the effort Stats.
func (p *Problem) Solve() (Solution, error) {
	return p.solve(nil, p.tableau)
}

// SolveFrom runs simplex warm-started from a previous Optimal solution's
// Basis: the basis is installed by Gauss-Jordan pivots and, when the
// resulting vertex is primal-feasible, phase 1 is skipped entirely — the
// re-plan path for a resident control plane re-solving the same requests
// after small topology or demand deltas. Whenever the basis cannot be
// installed (shape mismatch, out-of-range or singular columns) or the vertex
// is infeasible for the new right-hand side, it falls back to a cold Solve,
// so SolveFrom never sacrifices correctness for speed; the Stats of a
// fallback include the installation pivots it discarded. A nil basis is
// exactly Solve.
func (p *Problem) SolveFrom(basis []int) (Solution, error) {
	return p.solve(basis, p.tableau)
}

// solve is SolveFrom over tableaus made by build, which tests replace with
// the dense reference construction.
func (p *Problem) solve(basis []int, build func() *simplex) (Solution, error) {
	discarded := 0
	if len(basis) == len(p.constraints) && len(basis) > 0 {
		s := build()
		if s.install(basis) && s.clampFeasible() {
			s.stats.WarmStarted = true
			s.stats.Phase1Pivots = s.stats.Pivots
			return p.phase2(s)
		}
		discarded = s.stats.Pivots
	}
	sol, err := p.cold(build())
	sol.Stats.Pivots += discarded
	return sol, err
}

// cold solves from the slack/artificial starting basis. Phase 1 (minimize
// the sum of artificials) runs whenever that basis puts any artificial above
// zero; a program whose artificial rows all have zero right-hand side —
// every routing LP — starts feasible and skips it. Either way, artificials
// still basic afterwards stay in the basis, and phase 2 holds them at zero
// level. The mass is tested against exact zero, not the feasibility
// tolerance: that tolerance scales with the largest right-hand side in the
// whole program, so a small row could otherwise start infeasible and stay so
// (TestPhase1RunsOnSmallRowInLargeProgram).
func (p *Problem) cold(s *simplex) (Solution, error) {
	mass := 0.0
	for i, b := range s.basis {
		if b >= s.artStart {
			mass += s.t[i][s.total]
		}
	}
	if mass > 0 {
		obj := make([]float64, s.total)
		for j := s.artStart; j < s.total; j++ {
			obj[j] = -1 // maximize -(sum of artificials)
		}
		val, err := s.optimize(obj, false)
		s.stats.Phase1Pivots = s.stats.Pivots
		if err != nil {
			return Solution{Stats: s.stats}, fmt.Errorf("phase 1: %w", err)
		}
		if val < -feasRelTol*s.feasScale {
			return Solution{Status: Infeasible, Stats: s.stats}, nil
		}
	}
	return p.phase2(s)
}

// install pivots the canonical tableau onto the given basis, assigning each
// basis column to the unused row with the largest pivot magnitude (partial
// pivoting). Artificial columns install like any other: an exported basis
// keeps the artificials its solve held at zero level. It reports false —
// leaving the caller to fall back to a cold solve — when a column is out of
// range, duplicated, or the basis matrix is numerically singular.
func (s *simplex) install(basis []int) bool {
	m := len(s.t)
	used := make([]bool, m)
	for _, b := range basis {
		if b < 0 || b >= s.total {
			return false
		}
		row, best := -1, pivotEps
		for i := 0; i < m; i++ {
			if used[i] {
				continue
			}
			if a := math.Abs(s.t[i][b]); a > best {
				best, row = a, i
			}
		}
		if row < 0 {
			return false
		}
		s.pivot(row, b)
		used[row] = true
	}
	return true
}

// clampFeasible reports whether the installed vertex is primal-feasible for
// the right-hand side and leaves every basic artificial at zero level, both
// within the feasibility scale; it clamps the negative roundoff it accepts
// to zero.
func (s *simplex) clampFeasible() bool {
	tol := feasRelTol * s.feasScale
	for i, r := range s.t {
		rhs := r[s.total]
		if rhs < -tol || s.basis[i] >= s.artStart && rhs > tol {
			return false
		}
		if rhs < 0 {
			r[s.total] = 0
		}
	}
	return true
}

// tableau builds the canonical simplex tableau straight from the sparse
// constraint terms: slack/surplus and artificial columns appended after the
// structural variables, rows normalized to non-negative RHS, slacks and
// artificials forming the starting basis.
func (p *Problem) tableau() *simplex {
	m := len(p.constraints)
	n := p.numVars
	// Column layout: [structural | slack/surplus | artificial]. Count the
	// slack and artificial columns and record the feasibility scale over
	// the normalized (rhs >= 0) rows.
	nSlack, nArt := 0, 0
	feasScale := 1.0
	for _, c := range p.constraints {
		rhs, sense := normalized(c)
		feasScale = max(feasScale, rhs)
		if sense != Equal {
			nSlack++
		}
		if sense != LessEq {
			nArt++
		}
	}
	s := newSimplex(m, n+nSlack+nArt, n+nSlack, feasScale)
	slackCol, artCol := n, n+nSlack
	for i, c := range p.constraints {
		row := s.t[i]
		for _, t := range c.Terms {
			row[t.Var] += t.Coeff
		}
		rhs, sense := normalized(c)
		if c.RHS < 0 {
			for j := range row[:n] {
				row[j] = -row[j]
			}
		}
		row[s.total] = rhs
		switch sense {
		case LessEq:
			row[slackCol] = 1
			s.basis[i] = slackCol
			slackCol++
		case GreaterEq:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			s.basis[i] = artCol
			artCol++
		case Equal:
			row[artCol] = 1
			s.basis[i] = artCol
			artCol++
		}
	}
	return s
}

// normalized returns c's right-hand side and sense after the row is negated
// to make the right-hand side non-negative.
func normalized(c Constraint) (float64, Sense) {
	if c.RHS >= 0 {
		return c.RHS, c.Sense
	}
	switch c.Sense {
	case LessEq:
		return -c.RHS, GreaterEq
	case GreaterEq:
		return -c.RHS, LessEq
	}
	return -c.RHS, Equal
}

// phase2 maximizes the real objective from the current (feasible) basis,
// then extracts the solution. Artificials never enter, and the basic ones are
// held at zero level until they leave (see ratioTest).
func (p *Problem) phase2(s *simplex) (Solution, error) {
	n := p.numVars
	total := s.total
	obj := make([]float64, total)
	for j := 0; j < n; j++ {
		if p.maximize {
			obj[j] = p.objective[j]
		} else {
			obj[j] = -p.objective[j]
		}
	}
	val, err := s.optimize(obj, true)
	if err != nil {
		if errors.Is(err, errUnbounded) {
			return Solution{Status: Unbounded, Stats: s.stats}, nil
		}
		return Solution{Stats: s.stats}, fmt.Errorf("phase 2: %w", err)
	}
	x := make([]float64, n)
	for i, b := range s.basis {
		if b < n {
			x[b] = s.t[i][total]
		}
	}
	if !p.maximize {
		val = -val
	}
	return Solution{
		Status: Optimal, X: x, Objective: val, Stats: s.stats,
		Basis: append([]int(nil), s.basis...),
	}, nil
}

var errUnbounded = errors.New("lp: unbounded")

// simplex is the shared tableau state across the two phases.
type simplex struct {
	t     [][]float64 // m rows x (total+1) columns, the last one the RHS
	basis []int
	total int
	// artStart is the first artificial column; artificials never re-enter.
	artStart int
	// feasScale is max(1, max|RHS|), the scale of the phase-1 feasibility
	// test.
	feasScale float64
	stats     Stats
	// nz lists the nonzero columns of the last pivot row.
	nz []int
	// pivot is sparsePivot; the tests swap in the dense reference pivot.
	pivot func(row, col int)
}

// newSimplex allocates a zero tableau of m rows over total columns plus the
// RHS, backed by one contiguous block.
func newSimplex(m, total, artStart int, feasScale float64) *simplex {
	w := total + 1
	buf := make([]float64, m*w)
	t := make([][]float64, m)
	for i := range t {
		t[i] = buf[i*w : (i+1)*w : (i+1)*w]
	}
	s := &simplex{t: t, basis: make([]int, m), total: total, artStart: artStart,
		feasScale: feasScale, nz: make([]int, 0, w)}
	s.pivot = s.sparsePivot
	return s
}

// sparsePivot performs a Gauss-Jordan pivot on (row, col), eliminating only
// over the nonzero columns of the scaled pivot row. Every nonzero entry sees
// the same arithmetic as a dense elimination, so pivot choices and results
// are bit-identical to it; only the sign of an exact zero may differ.
func (s *simplex) sparsePivot(row, col int) {
	pr := s.t[row]
	inv := 1 / pr[col]
	s.nz = s.nz[:0]
	for j, v := range pr {
		if v != 0 {
			pr[j] = v * inv
			s.nz = append(s.nz, j)
		}
	}
	pr[col] = 1 // exact
	for i, ri := range s.t {
		if i == row {
			continue
		}
		f := ri[col]
		if f == 0 {
			continue
		}
		for _, j := range s.nz {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0 // exact
	}
	s.basis[row] = col
	s.stats.Pivots++
}

// optimize maximizes obj over the current basis; artificial columns never
// enter. With hold set, basic artificials are held at zero level (phase 2);
// without it they may fall like any basic variable (phase 1). It returns the
// achieved objective value.
func (s *simplex) optimize(obj []float64, hold bool) (float64, error) {
	m := len(s.t)
	total := s.total
	// Reduced costs z_j - c_j are maintained incrementally in an explicit
	// objective row, recomputed exactly at the start and periodically.
	z := make([]float64, total+1)
	s.reducedCosts(obj, z)
	degenerate := 0
	maxIters := 30*(m+total) + 10000
	for iter := 0; iter < maxIters; iter++ {
		s.stats.Iterations++
		if iter > 0 && iter%refreshEvery == 0 {
			// Incremental updates drift; periodically recompute the
			// reduced costs exactly so tiny phantom negatives cannot
			// sustain degenerate cycling.
			s.reducedCosts(obj, z)
		}
		// Entering column.
		bland := degenerate >= blandTrigger
		col := -1
		best := -enterEps
		for j := 0; j < s.artStart; j++ {
			if z[j] < best {
				best = z[j]
				col = j
				if bland { // Bland: smallest improving index
					break
				}
			}
		}
		if col < 0 {
			return z[total], nil // optimal
		}
		row, step := s.ratioTest(col, hold, bland)
		if row < 0 {
			return 0, errUnbounded
		}
		if step < pivotEps {
			degenerate++
			s.stats.DegeneratePivots++
		} else {
			degenerate = 0
		}
		if r := s.t[row]; r[total] < 0 || hold && s.basis[row] >= s.artStart {
			// Harris shift: the leaving row moves to the zero level the ratio
			// test priced it at — a row overshot negative by an earlier
			// step, or a held artificial within tolerance of zero — so the
			// entering value is the reported step, never negative.
			z[total] -= objAt(obj, s.basis[row]) * r[total]
			r[total] = 0
		}
		s.pivot(row, col)
		// Update the reduced-cost row like any other row.
		f := z[col]
		if f != 0 {
			pr := s.t[row]
			for _, j := range s.nz {
				z[j] -= f * pr[j]
			}
			z[col] = 0
		}
	}
	return 0, ErrIterationLimit
}

// ratioTest picks the leaving row for entering column col by Harris's
// two-pass test and returns it with its step (-1 when nothing blocks: the
// column is unbounded). Pass 1 bounds the step by the smallest
// (max(rhs, 0) + harrisDelta) / a over the rows with a > pivotEps; pass 2
// takes, among the rows whose own ratio max(rhs, 0) / a is within that bound,
// the one with the largest |a| — or, in Bland mode, the smallest basic index,
// so anti-cycling keeps its guarantee. With hold set, a row whose basic
// variable is artificial blocks at ratio 0 any entry with |a| > pivotEps of
// either sign, so the artificial leaves before it could move off zero.
func (s *simplex) ratioTest(col int, hold, bland bool) (int, float64) {
	held := func(i int, a float64) bool {
		return hold && s.basis[i] >= s.artStart && math.Abs(a) > pivotEps
	}
	bound := math.Inf(1)
	for i, r := range s.t {
		a := r[col]
		switch {
		case held(i, a):
			bound = 0
		case a > pivotEps:
			bound = min(bound, (max(r[s.total], 0)+harrisDelta)/a)
		}
	}
	row, step, best := -1, 0.0, 0.0
	for i, r := range s.t {
		a := r[col]
		var ratio float64
		switch {
		case held(i, a):
			ratio = 0
		case a > pivotEps:
			ratio = max(r[s.total], 0) / a
		default:
			continue
		}
		if ratio > bound {
			continue
		}
		if row < 0 || bland && s.basis[i] < s.basis[row] || !bland && math.Abs(a) > best {
			row, step, best = i, ratio, math.Abs(a)
		}
	}
	return row, step
}

// reducedCosts recomputes the objective row exactly: z_j = sum over rows of
// c_B(i) * t[i][j] - c_j, and z[total] the objective value. It sums row by
// row, skipping rows whose basic variable has zero cost (most slacks), so each
// z_j adds the same nonzero terms in the same order as a dense column sum.
func (s *simplex) reducedCosts(obj, z []float64) {
	s.stats.Refreshes++
	for j := range z[:s.total] {
		z[j] = -objAt(obj, j)
	}
	z[s.total] = 0
	for i, row := range s.t {
		cb := objAt(obj, s.basis[i])
		if cb == 0 {
			continue
		}
		for j, v := range row {
			z[j] += cb * v
		}
	}
}

// objAt treats obj as padded with zeros beyond its length.
func objAt(obj []float64, j int) float64 {
	if j < len(obj) {
		return obj[j]
	}
	return 0
}
