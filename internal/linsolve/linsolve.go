// Package linsolve solves systems of linear bit-vector constraints in
// the modular number system Z/2^n (paper §4.1). Linear constraints
// arise from adders, subtractors and multipliers with one constant
// input — most of the arithmetic units in industrial datapaths.
//
// Given A·x ≡ b (mod 2^n) the solver finds *all* solutions and returns
// them in the closed form of the paper,
//
//	x = x0 + N·f
//
// where x0 is a particular solution, the columns of N generate the null
// space (multiplying N's columns by A yields zero vectors), and f is a
// column of free variables ranging over Z/2^n. The algorithm is
// Gauss–Jordan elimination extended with the multiplicative-inverse
// machinery of internal/modarith: pivots are chosen with minimal
// 2-adic valuation, rows are normalized by the inverse of the pivot's
// greatest odd factor, and column operations (tracked in a transform
// matrix U) diagonalize the system so each congruence 2^v·y ≡ c is
// solved by inverse-with-product (Theorems 1–2). Complexity O(k^3)
// as stated in §4.1.
package linsolve

import (
	"fmt"

	"repro/internal/modarith"
)

// System accumulates linear equations over k variables modulo 2^n.
// Equations may be stated at a narrower width w <= n: a congruence
// mod 2^w is lifted to mod 2^n by scaling both sides by 2^(n-w), which
// preserves exactly the mod-2^w solution set (high variable bits become
// don't-cares). Rows live in one flat backing array (stride k+1), so a
// Reset system adds equations without allocating.
type System struct {
	m     modarith.Mod
	k     int // number of variables
	nrows int
	rows  []uint64 // nrows rows of stride k+1: k coefficients then rhs
}

// NewSystem returns an empty system over k variables modulo 2^n.
func NewSystem(n, k int) *System {
	if k < 0 {
		panic("linsolve: negative variable count")
	}
	return &System{m: modarith.NewMod(n), k: k}
}

// Reset re-initializes the system in place for n and k, keeping the row
// storage — callers that solve many small systems (the ATPG datapath
// phase) reuse one System as scratch.
func (s *System) Reset(n, k int) {
	if k < 0 {
		panic("linsolve: negative variable count")
	}
	s.m = modarith.NewMod(n)
	s.k = k
	s.nrows = 0
	s.rows = s.rows[:0]
}

// row returns the i-th row (k coefficients then rhs).
func (s *System) row(i int) []uint64 {
	return s.rows[i*(s.k+1) : (i+1)*(s.k+1)]
}

// AddEquation adds sum(coeffs[i]*x[i]) ≡ rhs (mod 2^width). width must
// be between 1 and the system width; narrower equations are lifted.
func (s *System) AddEquation(coeffs []uint64, rhs uint64, width int) error {
	if len(coeffs) != s.k {
		return fmt.Errorf("linsolve: %d coefficients for %d variables", len(coeffs), s.k)
	}
	n := s.m.Bits()
	if width < 1 || width > n {
		return fmt.Errorf("linsolve: equation width %d out of range (system width %d)", width, n)
	}
	scale := uint64(1) << uint(n-width)
	for _, c := range coeffs {
		s.rows = append(s.rows, s.m.Mul(s.m.Reduce(c), scale))
	}
	s.rows = append(s.rows, s.m.Mul(s.m.Reduce(rhs), scale))
	s.nrows++
	return nil
}

// SolutionSet is the closed form x = x0 + N·f over Z/2^n. The zero
// value is an infeasible (empty) set.
type SolutionSet struct {
	Feasible  bool
	N         int        // modulus exponent
	X0        []uint64   // particular solution, length k
	Gens      [][]uint64 // columns of the null matrix N
	GenOrders []uint64   // order of each generator (number of distinct multiples)
	countLog2 int        // log2 of the number of solutions (saturating)
	numVars   int
}

// CountLog2 returns log2 of the exact number of solutions.
func (ss SolutionSet) CountLog2() int {
	if !ss.Feasible {
		return -1
	}
	return ss.countLog2
}

// Count returns the number of solutions, saturating at 1<<62.
func (ss SolutionSet) Count() uint64 {
	if !ss.Feasible {
		return 0
	}
	if ss.countLog2 >= 62 {
		return 1 << 62
	}
	return 1 << uint(ss.countLog2)
}

// At evaluates x = x0 + N·f for a given free-variable assignment.
// len(f) must equal len(ss.Gens).
func (ss SolutionSet) At(f []uint64) []uint64 {
	if len(f) != len(ss.Gens) {
		panic("linsolve: free variable count mismatch")
	}
	m := modarith.NewMod(ss.N)
	x := make([]uint64, ss.numVars)
	copy(x, ss.X0)
	for g, fg := range f {
		for i := range x {
			x[i] = m.Add(x[i], m.Mul(ss.Gens[g][i], fg))
		}
	}
	return x
}

// Enumerate calls fn for every solution until fn returns false or the
// set is exhausted. On a big set (see Count) fn should stop it early.
func (ss SolutionSet) Enumerate(fn func(x []uint64) bool) {
	if !ss.Feasible {
		return
	}
	f := make([]uint64, len(ss.Gens))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(f) {
			return fn(ss.At(f))
		}
		ord := ss.GenOrders[i]
		for t := uint64(0); t < ord; t++ {
			f[i] = t
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

// Workspace holds the scratch storage of SolveInto. One workspace can
// back any number of sequential solves; the SolutionSet returned by
// SolveInto references its memory and stays valid only until the next
// SolveInto call with the same workspace.
type Workspace struct {
	a, u      []uint64 // flat matrices: a is nrows×k, u is k×k
	b, y0     []uint64
	pivotVals []int
	tors      []torsion
	x0        []uint64
	gens      []uint64   // flat generator arena, rows of length k
	gensIdx   [][]uint64 // outer slice pointing into gens
	genOrders []uint64
}

type torsion struct {
	col  int
	step uint64 // 2^(n-v)
	ord  uint64 // 2^v
}

// grow returns s resized to n elements, reusing capacity.
func grow(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// Solve reduces the system and returns its solution set.
func (s *System) Solve() SolutionSet {
	return s.SolveInto(nil)
}

// SolveInto is Solve using ws as scratch (allocating fresh storage when
// ws is nil). The returned set aliases ws.
func (s *System) SolveInto(ws *Workspace) SolutionSet {
	if ws == nil {
		ws = &Workspace{}
	}
	n := s.m.Bits()
	k := s.k
	m := s.m
	nrows := s.nrows

	// Working copies: A (nrows x k), b (nrows), U (k x k) accumulating
	// column operations so that x = U·y.
	a := grow(ws.a, nrows*k)
	b := grow(ws.b, nrows)
	for i := 0; i < nrows; i++ {
		r := s.row(i)
		copy(a[i*k:(i+1)*k], r[:k])
		b[i] = r[k]
	}
	u := grow(ws.u, k*k)
	for i := range u {
		u[i] = 0
	}
	for i := 0; i < k; i++ {
		u[i*k+i] = 1
	}
	ws.a, ws.b, ws.u = a, b, u

	colSwap := func(c1, c2 int) {
		for i := 0; i < nrows; i++ {
			a[i*k+c1], a[i*k+c2] = a[i*k+c2], a[i*k+c1]
		}
		for i := 0; i < k; i++ {
			u[i*k+c1], u[i*k+c2] = u[i*k+c2], u[i*k+c1]
		}
	}
	// colAddMul: col_dst -= q * col_src (on A and U).
	colAddMul := func(dst, src int, q uint64) {
		for i := 0; i < nrows; i++ {
			a[i*k+dst] = m.Sub(a[i*k+dst], m.Mul(q, a[i*k+src]))
		}
		for i := 0; i < k; i++ {
			u[i*k+dst] = m.Sub(u[i*k+dst], m.Mul(q, u[i*k+src]))
		}
	}
	rowSwap := func(r1, r2 int) {
		for j := 0; j < k; j++ {
			a[r1*k+j], a[r2*k+j] = a[r2*k+j], a[r1*k+j]
		}
		b[r1], b[r2] = b[r2], b[r1]
	}

	rank := 0
	pivotVals := ws.pivotVals[:0] // 2-adic valuation of each pivot
	for rank < nrows && rank < k {
		// Find the entry with minimal 2-adic valuation in the remaining
		// submatrix a[rank..][rank..].
		bestI, bestJ, bestV := -1, -1, n+1
		for i := rank; i < nrows; i++ {
			for j := rank; j < k; j++ {
				if a[i*k+j] == 0 {
					continue
				}
				if v := m.Val2(a[i*k+j]); v < bestV {
					bestI, bestJ, bestV = i, j, v
					if v == 0 {
						break
					}
				}
			}
			if bestV == 0 {
				break
			}
		}
		if bestI < 0 {
			break // remaining submatrix is zero
		}
		if bestI != rank {
			rowSwap(rank, bestI)
		}
		if bestJ != rank {
			colSwap(rank, bestJ)
		}
		// Normalize the pivot row so the pivot becomes exactly 2^v.
		odd, v := m.OddPart(a[rank*k+rank])
		inv, _ := m.Inverse(odd)
		for j := rank; j < k; j++ {
			a[rank*k+j] = m.Mul(a[rank*k+j], inv)
		}
		b[rank] = m.Mul(b[rank], inv)
		// Eliminate below: every remaining entry has valuation >= v.
		for i := rank + 1; i < nrows; i++ {
			if a[i*k+rank] == 0 {
				continue
			}
			q := a[i*k+rank] >> uint(v)
			for j := rank; j < k; j++ {
				a[i*k+j] = m.Sub(a[i*k+j], m.Mul(q, a[rank*k+j]))
			}
			b[i] = m.Sub(b[i], m.Mul(q, b[rank]))
		}
		// Eliminate to the right (column ops) so the pivot row becomes
		// (0.. 2^v ..0): entries right of the pivot also have val >= v.
		for j := rank + 1; j < k; j++ {
			if a[rank*k+j] == 0 {
				continue
			}
			q := a[rank*k+j] >> uint(v)
			colAddMul(j, rank, q)
		}
		pivotVals = append(pivotVals, v)
		rank++
	}
	ws.pivotVals = pivotVals

	// Rows beyond the rank must have zero rhs.
	for i := rank; i < nrows; i++ {
		if b[i] != 0 {
			return SolutionSet{}
		}
	}

	// Solve the diagonal system D·y = b: 2^v_i · y_i ≡ b_i.
	y0 := grow(ws.y0, k)
	for i := range y0 {
		y0[i] = 0
	}
	ws.y0 = y0
	tors := ws.tors[:0]
	countLog2 := 0
	for i := 0; i < rank; i++ {
		v := pivotVals[i]
		sol := m.InverseWithProduct(uint64(1)<<uint(v), b[i])
		if sol.Empty() {
			ws.tors = tors
			return SolutionSet{}
		}
		y0[i] = sol.Base()
		if v > 0 {
			tors = append(tors, torsion{col: i, step: sol.Step(), ord: sol.Count()})
			countLog2 += v
		}
	}
	ws.tors = tors
	nFree := k - rank // free columns y_j range over all of Z/2^n
	countLog2 += nFree * n

	// Map back: x = U·y, generators into the flat arena.
	mulU := func(dst, y []uint64) {
		for i := 0; i < k; i++ {
			var acc uint64
			for j := 0; j < k; j++ {
				acc = m.Add(acc, m.Mul(u[i*k+j], y[j]))
			}
			dst[i] = acc
		}
	}
	ss := SolutionSet{Feasible: true, N: n, numVars: k, countLog2: countLog2}
	ws.x0 = grow(ws.x0, k)
	mulU(ws.x0, y0)
	ss.X0 = ws.x0
	nGens := len(tors) + nFree
	ws.gens = grow(ws.gens, nGens*k)
	if cap(ws.gensIdx) < nGens {
		ws.gensIdx = make([][]uint64, nGens)
	}
	gensIdx := ws.gensIdx[:nGens]
	ws.genOrders = grow(ws.genOrders, nGens)
	genOrders := ws.genOrders
	// unit reuses y0 as the scratch basis vector (it is fully consumed
	// by now): set one coordinate, multiply, clear it again.
	for i := range y0 {
		y0[i] = 0
	}
	unit := func(g, col int, scale uint64) {
		row := ws.gens[g*k : (g+1)*k]
		y0[col] = scale
		mulU(row, y0)
		y0[col] = 0
		gensIdx[g] = row
	}
	for gi, t := range tors {
		unit(gi, t.col, t.step)
		genOrders[gi] = t.ord
	}
	for f := 0; f < nFree; f++ {
		gi := len(tors) + f
		unit(gi, rank+f, 1)
		var ord uint64
		if n >= 62 {
			ord = 1 << 62
		} else {
			ord = 1 << uint(n)
		}
		genOrders[gi] = ord
	}
	ss.Gens = gensIdx
	ss.GenOrders = genOrders
	return ss
}

// Residual returns A·x - b (mod 2^n) for a candidate x; all-zero means
// x satisfies every equation. Narrow equations were lifted at
// AddEquation time, so the check is uniform.
func (s *System) Residual(x []uint64) []uint64 {
	if len(x) != s.k {
		panic("linsolve: Residual arity mismatch")
	}
	out := make([]uint64, s.nrows)
	for i := 0; i < s.nrows; i++ {
		r := s.row(i)
		var acc uint64
		for j := 0; j < s.k; j++ {
			acc = s.m.Add(acc, s.m.Mul(r[j], x[j]))
		}
		out[i] = s.m.Sub(acc, r[s.k])
	}
	return out
}

// Satisfies reports whether x solves every equation.
func (s *System) Satisfies(x []uint64) bool {
	for _, r := range s.Residual(x) {
		if r != 0 {
			return false
		}
	}
	return true
}
