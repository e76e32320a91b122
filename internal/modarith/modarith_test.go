package modarith

import (
	"testing"
	"testing/quick"
)

func TestInversePaperExamples(t *testing.T) {
	m := NewMod(3)
	// §4: for 3-bit vectors, 3 is 3's inverse (3*3 = 9 ≡ 1 mod 8).
	inv, ok := m.Inverse(3)
	if !ok || inv != 3 {
		t.Errorf("Inverse(3) mod 8 = %d ok=%v, want 3", inv, ok)
	}
	// 2 has no multiplicative inverse.
	if _, ok := m.Inverse(2); ok {
		t.Error("Inverse(2) mod 8 should not exist")
	}
}

func TestInverseAllOdd(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 16, 31, 32, 63, 64} {
		m := NewMod(n)
		for _, a := range []uint64{1, 3, 5, 7, 0x123457, 0xdeadbeef1} {
			a = m.Reduce(a)
			if a&1 == 0 {
				continue
			}
			inv, ok := m.Inverse(a)
			if !ok {
				t.Fatalf("n=%d: Inverse(%d) failed", n, a)
			}
			if got := m.Mul(a, inv); got != 1 {
				t.Fatalf("n=%d: %d * %d = %d mod 2^%d, want 1", n, a, inv, got, n)
			}
		}
	}
}

func TestInverseWithProductPaperExamples(t *testing.T) {
	// §4: 3-bit: 3 is 6's inverse with product 2 (6*3 = 18 ≡ 2 mod 8).
	m3 := NewMod(3)
	s := m3.InverseWithProduct(6, 2)
	if s.Empty() || !s.Contains(3) {
		t.Errorf("inverse_2(6) mod 8 should contain 3; got base=%d step=%d count=%d", s.Base(), s.Step(), s.Count())
	}
	// Theorem 1 example: 3-bit, a=6=3*2^1: no inverse with product 3,
	// exactly 2 inverses with product 4, namely {2, 6}.
	if s := m3.InverseWithProduct(6, 3); !s.Empty() {
		t.Error("inverse_3(6) mod 8 should be empty")
	}
	s = m3.InverseWithProduct(6, 4)
	if s.Count() != 2 {
		t.Fatalf("inverse_4(6) count = %d, want 2", s.Count())
	}
	got := s.Enumerate(nil, 0)
	if !(contains(got, 2) && contains(got, 6)) {
		t.Errorf("inverse_4(6) = %v, want {2, 6}", got)
	}
	// Theorem 2 example: 4-bit, a=6, k=10: inverses are 7 + 8t, t=0,1.
	m4 := NewMod(4)
	s = m4.InverseWithProduct(6, 10)
	if s.Count() != 2 || s.Base() != 7 || s.Step() != 8 {
		t.Errorf("inverse_10(6) mod 16 = base %d step %d count %d, want 7/8/2", s.Base(), s.Step(), s.Count())
	}
	// §4 multiplier example: 4-bit c=12, a=4: b=3 and b=7 both solve,
	// because (4*7) mod 16 = 12.
	s = m4.InverseWithProduct(4, 12)
	if !s.Contains(3) || !s.Contains(7) {
		t.Errorf("inverse_12(4) mod 16 should contain 3 and 7")
	}
}

func contains(s []uint64, v uint64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestInverseWithProductExhaustive(t *testing.T) {
	// For widths up to 6, compare against brute force for all (a, k).
	for n := 1; n <= 6; n++ {
		m := NewMod(n)
		size := uint64(1) << uint(n)
		for a := uint64(0); a < size; a++ {
			for k := uint64(0); k < size; k++ {
				s := m.InverseWithProduct(a, k)
				var want []uint64
				for x := uint64(0); x < size; x++ {
					if m.Mul(a, x) == k {
						want = append(want, x)
					}
				}
				if uint64(len(want)) != s.Count() {
					t.Fatalf("n=%d a=%d k=%d: count %d, want %d", n, a, k, s.Count(), len(want))
				}
				for _, x := range want {
					if !s.Contains(x) {
						t.Fatalf("n=%d a=%d k=%d: missing solution %d", n, a, k, x)
					}
				}
				got := s.Enumerate(nil, 0)
				for _, x := range got {
					if m.Mul(a, x) != k {
						t.Fatalf("n=%d a=%d k=%d: spurious solution %d", n, a, k, x)
					}
				}
			}
		}
	}
}

func TestTheorem1Counts(t *testing.T) {
	// T1.3: a = a' * 2^mm has exactly 2^mm inverses with product k when
	// 2^mm | k.
	m := NewMod(8)
	for _, c := range []struct {
		a, k  uint64
		count uint64
	}{
		{12, 4, 4}, // a = 3*2^2, k = 1*2^2: 2^2 solutions
		{12, 8, 4}, // k = 2*2^2
		{12, 2, 0}, // 2^2 does not divide 2
		{16, 16, 16},
		{7, 200, 1},
	} {
		if got := m.InverseWithProduct(c.a, c.k).Count(); got != c.count {
			t.Errorf("count inverse_%d(%d) = %d, want %d", c.k, c.a, got, c.count)
		}
	}
}

func TestQuickInverseProduct(t *testing.T) {
	f := func(a, k uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		m := NewMod(n)
		s := m.InverseWithProduct(a, k)
		if s.Empty() {
			return true
		}
		// Check a few representative solutions.
		idxs := []uint64{0}
		if s.Count() > 1 {
			idxs = append(idxs, s.Count()-1, s.Count()/2)
		}
		for _, i := range idxs {
			if m.Mul(m.Reduce(a), s.At(i)) != m.Reduce(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestOddPart(t *testing.T) {
	m := NewMod(8)
	odd, e := m.OddPart(12)
	if odd != 3 || e != 2 {
		t.Errorf("OddPart(12) = %d*2^%d", odd, e)
	}
	odd, e = m.OddPart(0)
	if odd != 0 || e != 8 {
		t.Errorf("OddPart(0) = %d, 2^%d", odd, e)
	}
}

func TestFactorDivisors(t *testing.T) {
	fs := Factor(360) // 2^3 * 3^2 * 5
	want := []PrimePower{{2, 3}, {3, 2}, {5, 1}}
	if len(fs) != len(want) {
		t.Fatalf("Factor(360) = %v", fs)
	}
	for i := range fs {
		if fs[i] != want[i] {
			t.Fatalf("Factor(360) = %v", fs)
		}
	}
	ds := Divisors(12, 0)
	wantD := []uint64{1, 2, 3, 4, 6, 12}
	if len(ds) != len(wantD) {
		t.Fatalf("Divisors(12) = %v", ds)
	}
	for i := range ds {
		if ds[i] != wantD[i] {
			t.Fatalf("Divisors(12) = %v", ds)
		}
	}
	if Factor(1) != nil {
		t.Error("Factor(1) should be empty")
	}
	if Factor(97)[0] != (PrimePower{97, 1}) {
		t.Error("Factor(97) wrong")
	}
}

func TestVal2(t *testing.T) {
	m := NewMod(16)
	for _, c := range []struct {
		v    uint64
		want int
	}{{1, 0}, {2, 1}, {12, 2}, {0, 16}, {1 << 15, 15}} {
		if got := m.Val2(c.v); got != c.want {
			t.Errorf("Val2(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}
