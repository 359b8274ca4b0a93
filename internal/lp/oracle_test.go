package lp

import (
	"math"
	"slices"
	"testing"

	"surfnet/internal/rng"
)

// The dense reference solver: the production driver (phases, ratio test,
// basis installation) over a tableau built through a dense m x n coefficient
// matrix and pivoted by full-row Gauss-Jordan elimination. The sparse
// construction and sparse pivot must reproduce it bit for bit, up to the sign
// of exact zeros.

// oracleSolveFrom is SolveFrom on the dense reference path (nil basis: Solve).
func oracleSolveFrom(p *Problem, basis []int) (Solution, error) {
	return p.solve(basis, func() *simplex { return denseTableau(p) })
}

// denseTableau builds the canonical tableau through dense coefficient rows.
func denseTableau(p *Problem) *simplex {
	m := len(p.constraints)
	n := p.numVars
	type rowInfo struct {
		coeffs []float64
		rhs    float64
		sense  Sense
	}
	rows := make([]rowInfo, m)
	for i, c := range p.constraints {
		r := rowInfo{coeffs: make([]float64, n), rhs: c.RHS, sense: c.Sense}
		for _, t := range c.Terms {
			r.coeffs[t.Var] += t.Coeff
		}
		if r.rhs < 0 {
			for j := range r.coeffs {
				r.coeffs[j] = -r.coeffs[j]
			}
			r.rhs = -r.rhs
			switch r.sense {
			case LessEq:
				r.sense = GreaterEq
			case GreaterEq:
				r.sense = LessEq
			}
		}
		rows[i] = r
	}
	nSlack, nArt := 0, 0
	feasScale := 1.0
	for _, r := range rows {
		if r.rhs > feasScale {
			feasScale = r.rhs
		}
		switch r.sense {
		case LessEq:
			nSlack++
		case GreaterEq:
			nSlack++
			nArt++
		case Equal:
			nArt++
		}
	}
	total := n + nSlack + nArt
	s := &simplex{t: make([][]float64, m), basis: make([]int, m), total: total,
		artStart: n + nSlack, feasScale: feasScale}
	s.pivot = func(row, col int) { densePivot(s, row, col) }
	slackCol, artCol := n, n+nSlack
	for i, r := range rows {
		s.t[i] = make([]float64, total+1)
		copy(s.t[i], r.coeffs)
		s.t[i][total] = r.rhs
		switch r.sense {
		case LessEq:
			s.t[i][slackCol] = 1
			s.basis[i] = slackCol
			slackCol++
		case GreaterEq:
			s.t[i][slackCol] = -1
			slackCol++
			s.t[i][artCol] = 1
			s.basis[i] = artCol
			artCol++
		case Equal:
			s.t[i][artCol] = 1
			s.basis[i] = artCol
			artCol++
		}
	}
	return s
}

// densePivot eliminates over every column and reports every column as
// touched, so the reduced-cost update is dense too.
func densePivot(s *simplex, row, col int) {
	pr := s.t[row]
	inv := 1 / pr[col]
	for j := range pr {
		pr[j] *= inv
	}
	pr[col] = 1 // exact
	for i := range s.t {
		if i == row {
			continue
		}
		f := s.t[i][col]
		if f == 0 {
			continue
		}
		ri := s.t[i]
		for j := range ri {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0 // exact
	}
	s.nz = s.nz[:0]
	for j := range pr {
		s.nz = append(s.nz, j)
	}
	s.basis[row] = col
	s.stats.Pivots++
}

// sameSolution reports whether two solver outcomes agree bit for bit,
// treating +0 and -0 as equal.
func sameSolution(a, b Solution) bool {
	return a.Status == b.Status && a.Stats == b.Stats && slices.Equal(a.Basis, b.Basis) &&
		sameFloat(a.Objective, b.Objective) && slices.EqualFunc(a.X, b.X, sameFloat)
}

func sameFloat(a, b float64) bool {
	return a == b || math.IsNaN(a) && math.IsNaN(b)
}

// fuzzProgram decodes bytes into a program of at most maxN variables and maxM
// constraints: mixed senses, small integer coefficients (half of them absent,
// some explicitly zero), right-hand sides of either sign and a mixed-sign
// objective. Exhausted input reads as zeros.
func fuzzProgram(data []byte, maxN, maxM int) *Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n, m := 1+next()%maxN, 1+next()%maxM
	var p *Problem
	if next()%2 == 0 {
		p = NewMaximize(n)
	} else {
		p = NewMinimize(n)
	}
	for j := 0; j < n; j++ {
		p.SetObjective(j, float64(next()%7-3))
	}
	for i := 0; i < m; i++ {
		c := Constraint{Sense: Sense(1 + next()%3), RHS: float64(next()%21-6) / 2}
		for j := 0; j < n; j++ {
			if v := next() % 10; v >= 5 {
				c.Terms = append(c.Terms, Term{Var: j, Coeff: float64(v - 7)})
			}
		}
		if err := p.AddConstraint(c); err != nil {
			panic(err)
		}
	}
	return p
}

// FuzzSolve checks the sparse solver against the dense oracle on random small
// programs, cold and warm: from the cold optimum's own basis (installs) and
// from a basis decoded from the input's tail (mostly discarded installs that
// fall back, exercising the discarded-pivot accounting).
func FuzzSolve(f *testing.F) {
	f.Add([]byte{1, 1, 0, 3, 2, 1, 2, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(data, 8, 8)
		check := func(what string, basis []int) Solution {
			got, gotErr := p.SolveFrom(basis)
			want, wantErr := oracleSolveFrom(p, basis)
			if (gotErr == nil) != (wantErr == nil) || !sameSolution(got, want) {
				t.Fatalf("%s (basis %v): sparse %+v (err %v), dense %+v (err %v)",
					what, basis, got, gotErr, want, wantErr)
			}
			mustCertify(t, p, got)
			return got
		}
		cold := check("cold", nil)
		if cold.Status == Optimal {
			check("warm", cold.Basis)
		}
		if len(data) == 0 {
			return
		}
		junk := make([]int, p.NumConstraints())
		for i := range junk {
			junk[i] = int(data[(i*7)%len(data)]) % (p.NumVars() + p.NumConstraints())
		}
		check("junk", junk)
	})
}

// TestOracleAgreesOnLargerPrograms runs the agreement check on programs of
// up to 48 variables and 40 constraints, beyond the fuzzer's 8x8 reach, where
// long degenerate pivot sequences and reduced-cost refreshes occur.
func TestOracleAgreesOnLargerPrograms(t *testing.T) {
	src := rng.New(13)
	for trial := 0; trial < 40; trial++ {
		data := make([]byte, 4096)
		for i := range data {
			data[i] = byte(src.Uint64())
		}
		p := fuzzProgram(data, 48, 40)
		got, gotErr := p.Solve()
		want, wantErr := oracleSolveFrom(p, nil)
		if (gotErr == nil) != (wantErr == nil) || !sameSolution(got, want) {
			t.Fatalf("trial %d: sparse %+v (err %v), dense %+v (err %v)", trial, got, gotErr, want, wantErr)
		}
		mustCertify(t, p, got)
	}
}

// TestReducedCostsMatchDenseColumnSums checks the row-wise reduced-cost
// recomputation against the dense column-by-column sum it replaces, on random
// sparse tableaus whose basis mixes zero-cost and costed columns.
func TestReducedCostsMatchDenseColumnSums(t *testing.T) {
	src := rng.New(17)
	for trial := 0; trial < 50; trial++ {
		m, total := 1+int(src.Uint64()%30), 1+int(src.Uint64()%60)
		s := newSimplex(m, total, total, 1)
		for i, row := range s.t {
			for j := range row {
				if src.Uint64()%3 == 0 {
					row[j] = float64(int(src.Uint64()%19)-9) / 7
				}
			}
			s.basis[i] = int(src.Uint64() % uint64(total))
		}
		obj := make([]float64, total)
		for j := range obj {
			if src.Uint64()%2 == 0 {
				obj[j] = float64(int(src.Uint64()%7)-3) / 3
			}
		}
		got := make([]float64, total+1)
		s.reducedCosts(obj, got)
		for j := 0; j <= total; j++ {
			var want float64
			if j < total {
				want = -obj[j]
			}
			for i := 0; i < m; i++ {
				want += objAt(obj, s.basis[i]) * s.t[i][j]
			}
			if !sameFloat(got[j], want) {
				t.Fatalf("trial %d: z[%d] = %v, dense column sum %v", trial, j, got[j], want)
			}
		}
	}
}
