package lp

import (
	"fmt"
	"math"
	"testing"
)

// certify checks that sol is an optimal solution of p without reading the
// solver's tableau. It works from sol.X and the exported sol.Basis over p's
// original rows:
//
//   - primal feasibility of X;
//   - duals y from its own dense solve of Bᵀy = c_B, where B holds the
//     original columns the basis names (structural, slack/surplus or
//     artificial);
//   - each dual's sign against its row's sense, and no improving reduced
//     cost on a structural column;
//   - strong duality, |c·x − b·y| ≤ 1e-7·scale, and the reported Objective
//     equal to c·x;
//   - for n ≤ 6, the objective against brute-force vertex enumeration.
//
// Signs are those of the maximisation form: a minimisation's objective is
// negated first.
func certify(p *Problem, sol Solution) error {
	n, m := p.numVars, len(p.constraints)
	if len(sol.X) != n || len(sol.Basis) != m {
		return fmt.Errorf("certificate: |X| = %d, |Basis| = %d for %d vars and %d rows", len(sol.X), len(sol.Basis), n, m)
	}
	c := make([]float64, n)
	for j, v := range p.objective {
		if p.maximize {
			c[j] = v
		} else {
			c[j] = -v
		}
	}

	// Primal feasibility.
	for j, x := range sol.X {
		if x < -1e-7*max(1, math.Abs(x)) {
			return fmt.Errorf("certificate: x[%d] = %v < 0", j, x)
		}
	}
	cols := make([][]Term, n) // cols[j]: column j of the original matrix, by row
	for i, con := range p.constraints {
		lhs, mag := 0.0, math.Abs(con.RHS)
		for _, t := range con.Terms {
			lhs += t.Coeff * sol.X[t.Var]
			mag += math.Abs(t.Coeff * sol.X[t.Var])
			cols[t.Var] = append(cols[t.Var], Term{Var: i, Coeff: t.Coeff})
		}
		tol := 1e-7 * max(1, mag)
		if con.Sense == LessEq && lhs > con.RHS+tol ||
			con.Sense == GreaterEq && lhs < con.RHS-tol ||
			con.Sense == Equal && math.Abs(lhs-con.RHS) > tol {
			return fmt.Errorf("certificate: row %d violated: %v %v %v", i, lhs, con.Sense, con.RHS)
		}
	}

	// The tableau's column layout over the original rows: structural
	// columns, then one slack/surplus column per inequality row in row
	// order, then one artificial column per row whose sign-normalised sense
	// is not <=, in row order. In the original row's orientation a slack
	// has coefficient +1 on a <= row and -1 on a >= row, and an artificial
	// has the sign of the row's RHS.
	type unit struct {
		row  int
		sign float64
	}
	var slack, art []unit
	for i, con := range p.constraints {
		switch con.Sense {
		case LessEq:
			slack = append(slack, unit{i, 1})
		case GreaterEq:
			slack = append(slack, unit{i, -1})
		}
		normLessEq := con.Sense == LessEq && con.RHS >= 0 || con.Sense == GreaterEq && con.RHS < 0
		if !normLessEq {
			sign := 1.0
			if con.RHS < 0 {
				sign = -1
			}
			art = append(art, unit{i, sign})
		}
	}
	// bt is Bᵀ: row k is the k-th basic column over the original rows.
	bt := make([][]float64, m)
	cb := make([]float64, m)
	for k, col := range sol.Basis {
		bt[k] = make([]float64, m)
		switch {
		case col < 0:
			return fmt.Errorf("certificate: basis column %d out of range", col)
		case col < n:
			for _, t := range cols[col] {
				bt[k][t.Var] += t.Coeff
			}
			cb[k] = c[col]
		case col < n+len(slack):
			u := slack[col-n]
			bt[k][u.row] = u.sign
		case col < n+len(slack)+len(art):
			u := art[col-n-len(slack)]
			bt[k][u.row] = u.sign
		default:
			return fmt.Errorf("certificate: basis column %d out of range", col)
		}
	}
	y, err := solveDense(bt, cb)
	if err != nil {
		return fmt.Errorf("certificate: basis matrix: %w", err)
	}

	// Dual feasibility: signs, then structural reduced costs.
	for i, con := range p.constraints {
		tol := 1e-7 * max(1, math.Abs(y[i]))
		if con.Sense == LessEq && y[i] < -tol || con.Sense == GreaterEq && y[i] > tol {
			return fmt.Errorf("certificate: dual y[%d] = %v has the wrong sign for a %v row", i, y[i], con.Sense)
		}
	}
	for j := 0; j < n; j++ {
		d, mag := c[j], math.Abs(c[j])
		for _, t := range cols[j] {
			d -= y[t.Var] * t.Coeff
			mag += math.Abs(y[t.Var] * t.Coeff)
		}
		if d > 1e-7*max(1, mag) {
			return fmt.Errorf("certificate: column %d improves: reduced cost %v", j, d)
		}
	}

	// Strong duality.
	cx, by, scale := 0.0, 0.0, 1.0
	for j, x := range sol.X {
		cx += c[j] * x
		scale += math.Abs(c[j] * x)
	}
	for i, con := range p.constraints {
		by += con.RHS * y[i]
		scale += math.Abs(con.RHS * y[i])
	}
	if math.Abs(cx-by) > 1e-7*scale {
		return fmt.Errorf("certificate: duality gap: c·x = %v, b·y = %v", cx, by)
	}
	obj := sol.Objective
	if !p.maximize {
		obj = -obj
	}
	if math.Abs(obj-cx) > 1e-7*scale {
		return fmt.Errorf("certificate: Objective %v but c·x = %v", sol.Objective, cx)
	}

	if n <= 6 {
		a := make([][]float64, m)
		for i, con := range p.constraints {
			a[i] = make([]float64, n)
			for _, t := range con.Terms {
				a[i][t.Var] += t.Coeff
			}
		}
		best, ok := bestVertex(a, c, p.constraints)
		if !ok {
			return fmt.Errorf("certificate: vertex enumeration finds no feasible vertex")
		}
		if math.Abs(best-cx) > 1e-7*max(scale, math.Abs(best)) {
			return fmt.Errorf("certificate: best vertex has objective %v, solution %v", best, cx)
		}
	}
	return nil
}

// solveDense solves M y = r by Gaussian elimination with partial pivoting;
// M and r are overwritten. Each elimination step touches only the nonzero
// entries of the pivot row, which keeps the routing LPs' sparse bases cheap.
func solveDense(mat [][]float64, r []float64) ([]float64, error) {
	m := len(mat)
	nz := make([]int, 0, m)
	for k := 0; k < m; k++ {
		p := k
		for i := k + 1; i < m; i++ {
			if math.Abs(mat[i][k]) > math.Abs(mat[p][k]) {
				p = i
			}
		}
		if math.Abs(mat[p][k]) < 1e-12 {
			return nil, fmt.Errorf("singular at column %d", k)
		}
		mat[k], mat[p] = mat[p], mat[k]
		r[k], r[p] = r[p], r[k]
		rk := mat[k]
		nz = nz[:0]
		for j := k + 1; j < m; j++ {
			if rk[j] != 0 {
				nz = append(nz, j)
			}
		}
		for i := k + 1; i < m; i++ {
			ri := mat[i]
			if ri[k] == 0 {
				continue
			}
			f := ri[k] / rk[k]
			ri[k] = 0
			for _, j := range nz {
				ri[j] -= f * rk[j]
			}
			r[i] -= f * r[k]
		}
	}
	y := make([]float64, m)
	for k := m - 1; k >= 0; k-- {
		s := r[k]
		for j := k + 1; j < m; j++ {
			s -= mat[k][j] * y[j]
		}
		y[k] = s / mat[k][k]
	}
	return y, nil
}

// bestVertex maximises c·x over the vertices of {x >= 0 : rows}, found by
// solving every choice of n tight hyperplanes among the m rows and the n
// bounds x_j = 0. It reports false when no vertex is feasible.
func bestVertex(a [][]float64, c []float64, rows []Constraint) (float64, bool) {
	n, m := len(c), len(rows)
	best, found := math.Inf(-1), false
	pick := make([]int, 0, n)
	var walk func(from int)
	walk = func(from int) {
		if len(pick) == n {
			mat := make([][]float64, n)
			r := make([]float64, n)
			for k, h := range pick {
				mat[k] = make([]float64, n)
				if h < m {
					copy(mat[k], a[h])
					r[k] = rows[h].RHS
				} else {
					mat[k][h-m] = 1
				}
			}
			x, err := solveDense(mat, r)
			if err != nil || !vertexFeasible(a, rows, x) {
				return
			}
			v := 0.0
			for j := range x {
				v += c[j] * x[j]
			}
			best, found = max(best, v), true
			return
		}
		for h := from; h < m+n; h++ {
			pick = append(pick, h)
			walk(h + 1)
			pick = pick[:len(pick)-1]
		}
	}
	walk(0)
	return best, found
}

// vertexFeasible reports whether x satisfies x >= 0 and every row, to a
// tolerance far below the integer-scale data the enumeration is used on.
func vertexFeasible(a [][]float64, rows []Constraint, x []float64) bool {
	const tol = 1e-9
	for _, v := range x {
		if v < -tol {
			return false
		}
	}
	for i, con := range rows {
		lhs := 0.0
		for j, v := range a[i] {
			lhs += v * x[j]
		}
		if con.Sense == LessEq && lhs > con.RHS+tol ||
			con.Sense == GreaterEq && lhs < con.RHS-tol ||
			con.Sense == Equal && math.Abs(lhs-con.RHS) > tol {
			return false
		}
	}
	return true
}

// mustCertify fails t unless sol, when Optimal, carries a valid certificate.
func mustCertify(t testing.TB, p *Problem, sol Solution) {
	t.Helper()
	if sol.Status != Optimal {
		return
	}
	if err := certify(p, sol); err != nil {
		t.Fatal(err)
	}
}
