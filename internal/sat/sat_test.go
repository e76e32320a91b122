package sat

import (
	"math/rand"
	"testing"
)

func TestTrivial(t *testing.T) {
	s := NewSolver()
	a := s.NewVar()
	if st := s.Solve(); st != Sat {
		t.Fatal("empty formula should be sat")
	}
	s.AddClause(NewLit(a, false))
	if st := s.Solve(); st != Sat {
		t.Fatal("unit should be sat")
	}
	if !s.ModelValue(a) {
		t.Error("a should be true")
	}
	s.AddClause(NewLit(a, true))
	if st := s.Solve(); st != Unsat {
		t.Fatal("a and !a should be unsat")
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	s := NewSolver()
	vars := make([]int, 10)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	// v0 and (v_i -> v_{i+1}) forces all true.
	s.AddClause(NewLit(vars[0], false))
	for i := 0; i+1 < len(vars); i++ {
		s.AddClause(NewLit(vars[i], true), NewLit(vars[i+1], false))
	}
	if s.Solve() != Sat {
		t.Fatal("chain should be sat")
	}
	for i, v := range vars {
		if !s.ModelValue(v) {
			t.Errorf("v%d should be true", i)
		}
	}
	// Forcing the last false is now a contradiction.
	s.AddClause(NewLit(vars[len(vars)-1], true))
	if s.Solve() != Unsat {
		t.Fatal("contradicted chain should be unsat")
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(4,3): 4 pigeons, 3 holes — classic small unsat instance that
	// requires real conflict analysis.
	s := NewSolver()
	n, m := 4, 3
	v := make([][]int, n)
	for p := 0; p < n; p++ {
		v[p] = make([]int, m)
		for h := 0; h < m; h++ {
			v[p][h] = s.NewVar()
		}
	}
	for p := 0; p < n; p++ {
		lits := make([]Lit, m)
		for h := 0; h < m; h++ {
			lits[h] = NewLit(v[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < m; h++ {
		for p1 := 0; p1 < n; p1++ {
			for p2 := p1 + 1; p2 < n; p2++ {
				s.AddClause(NewLit(v[p1][h], true), NewLit(v[p2][h], true))
			}
		}
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("PHP(4,3) = %v, want unsat", st)
	}
}

func TestAssumptions(t *testing.T) {
	s := NewSolver()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(NewLit(a, false), NewLit(b, false)) // a | b
	if s.Solve(NewLit(a, true)) != Sat {            // assume !a
		t.Fatal("assume !a should be sat (b true)")
	}
	if !s.ModelValue(b) {
		t.Error("b must be true under !a")
	}
	if s.Solve(NewLit(a, true), NewLit(b, true)) != Unsat {
		t.Fatal("assume !a !b should be unsat")
	}
	// Solver must be reusable after assumption solving.
	if s.Solve() != Sat {
		t.Fatal("unassumed solve should be sat")
	}
}

// brute checks satisfiability of a CNF by enumeration (n <= 20).
func brute(n int, cnf [][]Lit) bool {
	for m := 0; m < 1<<uint(n); m++ {
		ok := true
		for _, cl := range cnf {
			cok := false
			for _, l := range cl {
				val := m>>(uint(l.Var()-1))&1 == 1
				if val != l.Neg() {
					cok = true
					break
				}
			}
			if !cok {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		n := 4 + r.Intn(9)                           // 4..12 vars
		m := int(float64(n) * (3.0 + r.Float64()*2)) // 3n..5n clauses
		var cnf [][]Lit
		s := NewSolver()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		for c := 0; c < m; c++ {
			var cl []Lit
			for k := 0; k < 3; k++ {
				cl = append(cl, NewLit(1+r.Intn(n), r.Intn(2) == 1))
			}
			cnf = append(cnf, cl)
			s.AddClause(cl...)
		}
		got := s.Solve()
		want := brute(n, cnf)
		if (got == Sat) != want {
			t.Fatalf("trial %d: solver=%v brute=%v (n=%d m=%d)", trial, got, want, n, m)
		}
		if got == Sat {
			// Verify the model satisfies the original CNF.
			for _, cl := range cnf {
				ok := false
				for _, l := range cl {
					if s.ModelValue(l.Var()) != l.Neg() {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("trial %d: model violates clause %v", trial, cl)
				}
			}
		}
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := NewSolver()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(NewLit(a, false), NewLit(a, true)) // tautology: ignored
	s.AddClause(NewLit(b, false), NewLit(b, false))
	if s.Solve() != Sat {
		t.Fatal("should be sat")
	}
	if !s.ModelValue(b) {
		t.Error("b forced true by duplicate-literal unit")
	}
}

func TestConflictLimit(t *testing.T) {
	// PHP(7,6) with a tiny conflict budget must return Unknown.
	s := NewSolver()
	n, m := 7, 6
	v := make([][]int, n)
	for p := 0; p < n; p++ {
		v[p] = make([]int, m)
		for h := 0; h < m; h++ {
			v[p][h] = s.NewVar()
		}
	}
	for p := 0; p < n; p++ {
		var lits []Lit
		for h := 0; h < m; h++ {
			lits = append(lits, NewLit(v[p][h], false))
		}
		s.AddClause(lits...)
	}
	for h := 0; h < m; h++ {
		for p1 := 0; p1 < n; p1++ {
			for p2 := p1 + 1; p2 < n; p2++ {
				s.AddClause(NewLit(v[p1][h], true), NewLit(v[p2][h], true))
			}
		}
	}
	s.MaxConflicts = 10
	if st := s.Solve(); st != Unknown {
		t.Fatalf("limited solve = %v, want unknown", st)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestLitEncoding(t *testing.T) {
	l := NewLit(5, true)
	if l.Var() != 5 || !l.Neg() {
		t.Error("encoding broken")
	}
	if l.Not().Neg() || l.Not().Var() != 5 {
		t.Error("Not broken")
	}
	if l.String() != "-5" || l.Not().String() != "5" {
		t.Error("String broken")
	}
}

// TestAddClauseAllocs pins AddClause to two allocations for a
// three-literal clause: the simplified literal slice and the clause.
// The solver is warmed first so the clause list and watch lists have
// room, as they do while a BMC instance relocates a frame's clauses.
func TestAddClauseAllocs(t *testing.T) {
	s := NewSolver()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	add := func() { s.AddClause(NewLit(a, false), NewLit(b, true), NewLit(c, false)) }
	for i := 0; i < 1000; i++ {
		add()
	}
	if raceEnabled {
		return
	}
	if got := testing.AllocsPerRun(100, add); got > 2 {
		t.Errorf("AddClause: %.2f allocs for a 3-literal clause, want <= 2", got)
	}
}
