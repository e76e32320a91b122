package linsolve

import (
	"repro/internal/bv"
	"repro/internal/modarith"
)

// Nonlinear constraint handling (§4). Nonlinear arithmetic constraints
// come from multipliers (and variable shifters) — a*b ≡ c (mod 2^n)
// with both operands unknown. Completely solving them can be very
// hard, so, following the paper, we heuristically enumerate candidate
// solutions by prime-number factoring of the output value (plus its
// modular lifts c + t·2^n, which capture the wrap-around solutions an
// integral solver would miss) and substitute candidates back so the
// remaining constraints become linear.

// MulCandidate is one (a, b) pair with a*b ≡ c (mod 2^n).
type MulCandidate struct {
	A, B uint64
}

// SolveMul enumerates assignments (a, b) satisfying a*b ≡ c (mod 2^n)
// that are consistent with the three-valued cubes aCube and bCube
// (widths up to n bits; candidates are checked against the cubes after
// zero-extension). At most limit candidates are returned. The
// enumeration is complete when the operand width is small (it falls
// back to exhaustive scanning below 2^12 combinations of the narrower
// cube); otherwise it covers the divisor-lift heuristic of §4.
func SolveMul(n int, c uint64, aCube, bCube bv.BV, limit int) []MulCandidate {
	m := modarith.NewMod(n)
	c = m.Reduce(c)
	if limit <= 0 {
		limit = 64
	}
	var out []MulCandidate
	seen := make(map[MulCandidate]bool)
	add := func(a, b uint64) bool {
		a, b = m.Reduce(a), m.Reduce(b)
		if m.Mul(a, b) != c {
			return true
		}
		if !cubeContains(aCube, a) || !cubeContains(bCube, b) {
			return true
		}
		cand := MulCandidate{a, b}
		if seen[cand] {
			return true
		}
		seen[cand] = true
		out = append(out, cand)
		return len(out) < limit
	}

	// Exhaustive scan over the narrower operand cube when tractable:
	// for each concrete a, the matching b's come from the closed form
	// of inverse-with-product, so the scan is complete.
	aCount, bCount := cubeCount(aCube), cubeCount(bCube)
	if aCount <= bCount && aCount <= 1<<12 {
		enumCube(aCube, func(a uint64) bool {
			sols := m.InverseWithProduct(a, c)
			return scanSolutions(m, sols, bCube, func(b uint64) bool { return add(a, b) })
		})
		return out
	}
	if bCount < aCount && bCount <= 1<<12 {
		enumCube(bCube, func(b uint64) bool {
			sols := m.InverseWithProduct(b, c)
			return scanSolutions(m, sols, aCube, func(a uint64) bool { return add(a, b) })
		})
		return out
	}

	// Heuristic: factor c and its modular lifts, trying divisor pairs.
	modulus := uint64(0)
	if n < 64 {
		modulus = uint64(1) << uint(n)
	}
	lifts := 8
	for t := 0; t < lifts; t++ {
		var target uint64
		if modulus == 0 {
			if t > 0 {
				break
			}
			target = c
		} else {
			target = c + uint64(t)*modulus
			if target < c { // overflow
				break
			}
		}
		if target == 0 {
			// a*b ≡ 0: try powers of two split across operands.
			for v := 0; v <= n; v++ {
				if !add(uint64(1)<<uint(v), uint64(1)<<uint(n-v)) {
					return out
				}
			}
			continue
		}
		for _, d := range modarith.Divisors(target, 256) {
			if !add(d, target/d) {
				return out
			}
			if !add(target/d, d) {
				return out
			}
		}
	}
	return out
}

func cubeContains(c bv.BV, v uint64) bool {
	if c.Width() == 0 {
		return true
	}
	if c.Width() <= 64 {
		return c.Contains(v)
	}
	return c.Covers(bv.FromUint64(64, v).Zext(c.Width()))
}

func cubeCount(c bv.BV) uint64 {
	if c.Width() == 0 {
		return 1
	}
	return c.CountSolutions()
}

// enumCube calls fn for each completion of the cube (width <= 64)
// until fn returns false.
func enumCube(c bv.BV, fn func(v uint64) bool) {
	w := c.Width()
	if w > 63 {
		return
	}
	// Iterate over the x positions only.
	var xbits []int
	base := uint64(0)
	for i := 0; i < w; i++ {
		switch c.Bit(i) {
		case bv.X:
			xbits = append(xbits, i)
		case bv.One:
			base |= uint64(1) << uint(i)
		}
	}
	total := uint64(1) << uint(len(xbits))
	for t := uint64(0); t < total; t++ {
		v := base
		for k, pos := range xbits {
			if t>>uint(k)&1 == 1 {
				v |= uint64(1) << uint(pos)
			}
		}
		if !fn(v) {
			return
		}
	}
}

func scanSolutions(m modarith.Mod, sols modarith.Solutions, cube bv.BV, fn func(v uint64) bool) bool {
	if sols.Empty() {
		return true
	}
	nsol := sols.Count()
	if nsol <= 1<<12 {
		for t := uint64(0); t < nsol; t++ {
			v := sols.At(t)
			if cubeContains(cube, v) && !fn(v) {
				return false
			}
		}
		return true
	}
	// Too many: sample the base and a few strides.
	for _, t := range []uint64{0, 1, 2, nsol / 2, nsol - 1} {
		if t >= nsol {
			continue
		}
		v := sols.At(t)
		if cubeContains(cube, v) && !fn(v) {
			return false
		}
	}
	return true
}
