// Package modarith implements arithmetic in the modular number system
// Z/2^n used by the paper's datapath constraint solver (§4): extended
// multiplicative inverses of bit-vectors (Definitions 3 and 4) and the
// closed-form solution sets of Theorems 1 and 2.
//
// All values are uint64 with an explicit width n (1 <= n <= 64); every
// operation reduces modulo 2^n. Hardware signals are fixed-width
// bit-vectors, so solving in Z/2^n — rather than over the integers —
// is what prevents the false-negative effect described in §4: solutions
// that exist only because of wrap-around are found, not missed.
package modarith

import "fmt"

// Mod is a power-of-two modulus 2^n represented by its exponent n.
type Mod struct {
	n uint // width in bits, 1..64
}

// NewMod returns the modulus 2^n. It panics unless 1 <= n <= 64.
func NewMod(n int) Mod {
	if n < 1 || n > 64 {
		panic(fmt.Sprintf("modarith: width %d out of range", n))
	}
	return Mod{n: uint(n)}
}

// Bits returns the exponent n of the modulus.
func (m Mod) Bits() int { return int(m.n) }

// mask returns 2^n - 1.
func (m Mod) mask() uint64 {
	if m.n == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << m.n) - 1
}

// Reduce returns v mod 2^n.
func (m Mod) Reduce(v uint64) uint64 { return v & m.mask() }

// Add returns (a + b) mod 2^n.
func (m Mod) Add(a, b uint64) uint64 { return (a + b) & m.mask() }

// Sub returns (a - b) mod 2^n.
func (m Mod) Sub(a, b uint64) uint64 { return (a - b) & m.mask() }

// Mul returns (a * b) mod 2^n.
func (m Mod) Mul(a, b uint64) uint64 { return (a * b) & m.mask() }

// Neg returns (-a) mod 2^n.
func (m Mod) Neg(a uint64) uint64 { return (-a) & m.mask() }

// Val2 returns the 2-adic valuation of a (the exponent of the largest
// power of two dividing a), capped at n for a == 0.
func (m Mod) Val2(a uint64) int {
	a = m.Reduce(a)
	if a == 0 {
		return int(m.n)
	}
	v := 0
	for a&1 == 0 {
		a >>= 1
		v++
	}
	return v
}

// OddPart returns a' and m such that a = a' * 2^m with a' odd
// (the "greatest odd factor" of Theorem 1). For a == 0 it returns
// (0, n).
func (m Mod) OddPart(a uint64) (odd uint64, exp int) {
	a = m.Reduce(a)
	if a == 0 {
		return 0, int(m.n)
	}
	exp = m.Val2(a)
	return a >> uint(exp), exp
}

// Inverse returns the unique multiplicative inverse of a modulo 2^n
// (Definition 3): the x with (a*x) mod 2^n == 1. ok is false unless a
// is odd — in Z/2^n only odd numbers are invertible.
//
// The inverse is computed by Newton–Hensel iteration: x <- x*(2 - a*x)
// doubles the number of correct low bits each step, so six steps
// suffice for 64 bits.
func (m Mod) Inverse(a uint64) (inv uint64, ok bool) {
	a = m.Reduce(a)
	if a&1 == 0 {
		return 0, false
	}
	x := a // 3 correct bits to start (a*a ≡ 1 mod 8 for odd a)
	for i := 0; i < 6; i++ {
		x = x * (2 - a*x)
	}
	return m.Reduce(x), true
}

// InverseWithProduct returns the multiplicative inverses of a with
// product k (Definition 4): all x with (a*x) mod 2^n == k, in the
// closed form of Theorem 2.
//
// Writing a = a' * 2^mm with a' odd (Theorem 1):
//
//	(T1.1) a odd  (mm = 0): exactly one inverse, inverse(a') * k.
//	(T1.2) a even and 2^mm does not divide k: no inverse.
//	(T1.3) a even and k = k' * 2^mm: exactly 2^mm inverses,
//	       x = b + 2^(n-mm) * t for t in [0, 2^mm), where b is the
//	       unique inverse of a' with product k' (Theorem 2).
//
// The special case a == 0: no inverse unless k == 0, in which case
// every residue is an inverse (Count reports 2^n, capped).
func (m Mod) InverseWithProduct(a, k uint64) Solutions {
	a, k = m.Reduce(a), m.Reduce(k)
	if a == 0 {
		if k == 0 {
			return Solutions{m: m, base: 0, step: 1, count: m.countAll()}
		}
		return Solutions{m: m}
	}
	odd, mm := m.OddPart(a)
	if k&((uint64(1)<<uint(mm))-1) != 0 {
		return Solutions{m: m} // T1.2: k not a multiple of 2^mm
	}
	kPrime := k >> uint(mm)
	invOdd, _ := m.Inverse(odd)
	b := m.Mul(invOdd, kPrime)
	if mm == 0 {
		return Solutions{m: m, base: b, step: 1, count: 1} // T1.1
	}
	// T1.3 / Theorem 2: b + 2^(n-mm) * t, t in [0, 2^mm).
	step := uint64(1) << (m.n - uint(mm))
	return Solutions{m: m, base: b, step: step, count: uint64(1) << uint(mm)}
}

func (m Mod) countAll() uint64 {
	if m.n == 64 {
		return ^uint64(0) // saturated; Enumerate refuses anyway
	}
	return uint64(1) << m.n
}

// Solutions is the closed-form arithmetic progression
// { (base + step*t) mod 2^n : 0 <= t < count } of Theorem 2.
type Solutions struct {
	m     Mod
	base  uint64
	step  uint64
	count uint64
}

// Count returns the number of solutions (0 when none exist).
func (s Solutions) Count() uint64 { return s.count }

// Empty reports whether there is no solution.
func (s Solutions) Empty() bool { return s.count == 0 }

// Base returns the particular solution (t = 0).
func (s Solutions) Base() uint64 { return s.base }

// Step returns the generator stride 2^(n-m).
func (s Solutions) Step() uint64 { return s.step }

// At returns the t-th solution.
func (s Solutions) At(t uint64) uint64 {
	if t >= s.count {
		panic("modarith: solution index out of range")
	}
	return s.m.Reduce(s.base + s.step*t)
}

// Contains reports whether x is one of the solutions.
func (s Solutions) Contains(x uint64) bool {
	x = s.m.Reduce(x)
	if s.count == 0 {
		return false
	}
	d := s.m.Sub(x, s.base)
	if s.step == 0 {
		return d == 0
	}
	if d%s.step != 0 {
		return false
	}
	return d/s.step < s.count
}

// Enumerate appends all solutions to dst (capped at limit; limit <= 0
// means no cap but panics above 2^20 as a safety net).
func (s Solutions) Enumerate(dst []uint64, limit int) []uint64 {
	n := s.count
	if limit > 0 && uint64(limit) < n {
		n = uint64(limit)
	}
	if n > 1<<20 {
		panic("modarith: refusing to enumerate more than 2^20 solutions")
	}
	for t := uint64(0); t < n; t++ {
		dst = append(dst, s.At(t))
	}
	return dst
}

// Factor returns the prime factorization of v as (prime, exponent)
// pairs in increasing prime order, by trial division. It is used by the
// nonlinear constraint heuristics (§4) to enumerate divisor candidates
// of multiplier outputs. Suitable for the 64-bit values that arise from
// bit-vector constants; worst case O(sqrt v).
func Factor(v uint64) []PrimePower {
	var out []PrimePower
	if v < 2 {
		return out
	}
	for _, p := range []uint64{2, 3, 5} {
		e := 0
		for v%p == 0 {
			v /= p
			e++
		}
		if e > 0 {
			out = append(out, PrimePower{p, e})
		}
	}
	// Wheel over 6k±1.
	for p := uint64(7); p*p <= v; p += 6 {
		for _, q := range []uint64{p, p + 4} {
			e := 0
			for v%q == 0 {
				v /= q
				e++
			}
			if e > 0 {
				out = append(out, PrimePower{q, e})
			}
		}
	}
	if v > 1 {
		out = append(out, PrimePower{v, 1})
	}
	return out
}

// PrimePower is one factor p^e of a factorization.
type PrimePower struct {
	P uint64
	E int
}

// Divisors returns all divisors of v in ascending order (via Factor).
// It caps the result at limit divisors when limit > 0.
func Divisors(v uint64, limit int) []uint64 {
	if v == 0 {
		return nil
	}
	fs := Factor(v)
	divs := []uint64{1}
	for _, f := range fs {
		cur := len(divs)
		pe := uint64(1)
		for e := 1; e <= f.E; e++ {
			pe *= f.P
			for i := 0; i < cur; i++ {
				divs = append(divs, divs[i]*pe)
				if limit > 0 && len(divs) >= limit {
					sortU64(divs)
					return divs
				}
			}
		}
	}
	sortU64(divs)
	return divs
}

func sortU64(s []uint64) {
	// Insertion sort: divisor lists are short.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
