package linsolve

import (
	"math/rand"
	"testing"

	"repro/internal/bv"
	"repro/internal/modarith"
)

func TestSection41Example(t *testing.T) {
	// §4.1: 3-bit system x + y = 5, 2x + 7y = 4. No integral solution
	// (only x=31/5, y=-6/5), but (3, 2) solves it mod 2^3.
	s := NewSystem(3, 2)
	if err := s.AddEquation([]uint64{1, 1}, 5, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEquation([]uint64{2, 7}, 4, 3); err != nil {
		t.Fatal(err)
	}
	ss := s.Solve()
	if !ss.Feasible {
		t.Fatal("system should be feasible mod 8")
	}
	found := false
	ss.Enumerate(func(x []uint64) bool {
		if x[0] == 3 && x[1] == 2 {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Errorf("solution (3,2) not in set; x0=%v gens=%v", ss.X0, ss.Gens)
	}
	if !s.Satisfies([]uint64{3, 2}) {
		t.Error("Satisfies(3,2) = false")
	}
}

func TestFig5ClosedForm(t *testing.T) {
	// Fig. 5: 4-bit linear circuit with outputs x=2, y=10 and integer
	// matrix rows (3, -1, 0, -2 | 2) and (1, 2, -2, 0 | 10).
	// The paper reports the closed form
	//   (a,b,c,d) = (10,0,0,6) + i*(14,10,1,0) + j*(6,0,3,1)  (mod 16).
	m := modarith.NewMod(4)
	s := NewSystem(4, 4)
	if err := s.AddEquation([]uint64{3, m.Neg(1), 0, m.Neg(2)}, 2, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEquation([]uint64{1, 2, m.Neg(2), 0}, 10, 4); err != nil {
		t.Fatal(err)
	}
	ss := s.Solve()
	if !ss.Feasible {
		t.Fatal("Fig. 5 system infeasible")
	}
	// The paper's particular solution must be in our set, and our x0 in
	// theirs; both sets must have the same size: 2 free vars over 2^4
	// = 256 solutions.
	if got := ss.Count(); got != 256 {
		t.Errorf("solution count = %d, want 256", got)
	}
	if !s.Satisfies([]uint64{10, 0, 0, 6}) {
		t.Error("paper particular solution (10,0,0,6) rejected")
	}
	if !s.Satisfies(ss.X0) {
		t.Errorf("our particular solution %v rejected", ss.X0)
	}
	// Every paper solution (10,0,0,6)+i(14,10,1,0)+j(6,0,3,1) satisfies.
	for i := uint64(0); i < 16; i++ {
		for j := uint64(0); j < 16; j++ {
			x := []uint64{
				m.Add(10, m.Add(m.Mul(14, i), m.Mul(6, j))),
				m.Mul(10, i),
				m.Add(m.Mul(1, i), m.Mul(3, j)),
				m.Add(6, m.Mul(1, j)),
			}
			if !s.Satisfies(x) {
				t.Fatalf("paper closed form point i=%d j=%d -> %v rejected", i, j, x)
			}
		}
	}
	// And conversely our enumeration has exactly the same 256 points.
	paperSet := make(map[[4]uint64]bool)
	for i := uint64(0); i < 16; i++ {
		for j := uint64(0); j < 16; j++ {
			paperSet[[4]uint64{
				m.Add(10, m.Add(m.Mul(14, i), m.Mul(6, j))),
				m.Mul(10, i),
				m.Add(i, m.Mul(3, j)),
				m.Add(6, j),
			}] = true
		}
	}
	count := 0
	ss.Enumerate(func(x []uint64) bool {
		count++
		if !paperSet[[4]uint64{x[0], x[1], x[2], x[3]}] {
			t.Fatalf("our solution %v not in paper set", x)
		}
		return true
	})
	if count != 256 {
		t.Errorf("enumerated %d, want 256", count)
	}
}

func TestInfeasible(t *testing.T) {
	s := NewSystem(4, 1)
	s.AddEquation([]uint64{2}, 1, 4) // 2x ≡ 1 mod 16: impossible
	if ss := s.Solve(); ss.Feasible {
		t.Error("2x=1 mod 16 should be infeasible")
	}
	s2 := NewSystem(4, 2)
	s2.AddEquation([]uint64{1, 1}, 3, 4)
	s2.AddEquation([]uint64{1, 1}, 4, 4) // contradictory
	if ss := s2.Solve(); ss.Feasible {
		t.Error("contradictory system should be infeasible")
	}
}

func TestTorsionSolutions(t *testing.T) {
	// 2x ≡ 4 (mod 16): solutions x = 2 + 8t, t in {0,1}: {2, 10}.
	s := NewSystem(4, 1)
	s.AddEquation([]uint64{2}, 4, 4)
	ss := s.Solve()
	if !ss.Feasible || ss.Count() != 2 {
		t.Fatalf("feasible=%v count=%d, want 2 solutions", ss.Feasible, ss.Count())
	}
	got := map[uint64]bool{}
	ss.Enumerate(func(x []uint64) bool { got[x[0]] = true; return true })
	if !got[2] || !got[10] {
		t.Errorf("solutions = %v, want {2, 10}", got)
	}
}

func TestRandomAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		n := 2 + r.Intn(3)    // width 2..4
		k := 1 + r.Intn(3)    // 1..3 variables
		rows := 1 + r.Intn(3) // 1..3 equations
		mod := modarith.NewMod(n)
		size := uint64(1) << uint(n)
		s := NewSystem(n, k)
		for i := 0; i < rows; i++ {
			coeffs := make([]uint64, k)
			for j := range coeffs {
				coeffs[j] = uint64(r.Intn(int(size)))
			}
			s.AddEquation(coeffs, uint64(r.Intn(int(size))), n)
		}
		// Brute force.
		var brute [][]uint64
		total := uint64(1)
		for i := 0; i < k; i++ {
			total *= size
		}
		for v := uint64(0); v < total; v++ {
			x := make([]uint64, k)
			tmp := v
			for i := 0; i < k; i++ {
				x[i] = tmp % size
				tmp /= size
			}
			if s.Satisfies(x) {
				brute = append(brute, x)
			}
		}
		ss := s.Solve()
		if (len(brute) > 0) != ss.Feasible {
			t.Fatalf("trial %d: feasible=%v but brute found %d solutions (n=%d k=%d)", trial, ss.Feasible, len(brute), n, k)
		}
		if !ss.Feasible {
			continue
		}
		if ss.Count() != uint64(len(brute)) {
			t.Fatalf("trial %d: count=%d, brute=%d", trial, ss.Count(), len(brute))
		}
		seen := map[string]bool{}
		ss.Enumerate(func(x []uint64) bool {
			if !s.Satisfies(x) {
				t.Fatalf("trial %d: emitted non-solution %v", trial, x)
			}
			seen[key(x)] = true
			return true
		})
		for _, x := range brute {
			if !seen[key(x)] {
				t.Fatalf("trial %d: brute solution %v missing from closed form", trial, x)
			}
		}
		_ = mod
	}
}

func key(x []uint64) string {
	b := make([]byte, 0, len(x)*8)
	for _, v := range x {
		for s := 0; s < 8; s++ {
			b = append(b, byte(v>>(8*s)))
		}
	}
	return string(b)
}

func TestMixedWidthLift(t *testing.T) {
	// Equation at width 3 inside a width-5 system: x ≡ 5 (mod 8).
	// Solutions mod 32: x in {5, 13, 21, 29}.
	s := NewSystem(5, 1)
	s.AddEquation([]uint64{1}, 5, 3)
	ss := s.Solve()
	if !ss.Feasible || ss.Count() != 4 {
		t.Fatalf("count = %d, want 4", ss.Count())
	}
	got := map[uint64]bool{}
	ss.Enumerate(func(x []uint64) bool { got[x[0]] = true; return true })
	for _, want := range []uint64{5, 13, 21, 29} {
		if !got[want] {
			t.Errorf("missing solution %d; got %v", want, got)
		}
	}
}

func TestMultiplierModularSolutions(t *testing.T) {
	// §4 example: 3-bit a,b, 4-bit c=12, a=4 known. Both b=3 and b=7
	// solve because (4*7) mod 16 = 12. An integral solver would miss 7.
	aCube := bv.FromUint64(3, 4).Zext(4)
	bCube := bv.NewX(3).Zext(4)
	// widen cubes to 4 bits with zero top bit: values 0..7.
	cands := SolveMul(4, 12, aCube, bCube, 0)
	has := func(a, b uint64) bool {
		for _, c := range cands {
			if c.A == a && c.B == b {
				return true
			}
		}
		return false
	}
	if !has(4, 3) {
		t.Errorf("missing (4,3); got %v", cands)
	}
	if !has(4, 7) {
		t.Errorf("missing wrap-around solution (4,7); got %v", cands)
	}
}

func TestSolveMulExhaustiveSmall(t *testing.T) {
	// Width 4, both operands unconstrained: enumeration must find every
	// pair for several target values.
	for _, c := range []uint64{0, 1, 6, 12, 15} {
		cands := SolveMul(4, c, bv.NewX(4), bv.NewX(4), 1<<12)
		want := 0
		for a := uint64(0); a < 16; a++ {
			for b := uint64(0); b < 16; b++ {
				if a*b%16 == c {
					want++
				}
			}
		}
		if len(cands) != want {
			t.Errorf("c=%d: got %d candidates, want %d", c, len(cands), want)
		}
		for _, cd := range cands {
			if cd.A*cd.B%16 != c {
				t.Errorf("c=%d: bad candidate %v", c, cd)
			}
		}
	}
}

func TestSingleVariableWide(t *testing.T) {
	// 64-bit sanity: x ≡ v has exactly one solution.
	s := NewSystem(64, 1)
	s.AddEquation([]uint64{1}, 0xdeadbeefcafebabe, 64)
	ss := s.Solve()
	if !ss.Feasible || ss.Count() != 1 || ss.X0[0] != 0xdeadbeefcafebabe {
		t.Fatalf("ss = %+v", ss)
	}
}

func TestZeroEquationSystem(t *testing.T) {
	s := NewSystem(4, 2)
	ss := s.Solve()
	if !ss.Feasible || ss.Count() != 256 {
		t.Fatalf("empty system: feasible=%v count=%d, want 256", ss.Feasible, ss.Count())
	}
}
