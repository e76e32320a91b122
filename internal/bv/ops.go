package bv

import "math/bits"

// Three-valued bitwise and arithmetic operations. Forward operations
// compute the tightest cube containing f(a, b) for all completions of
// the operand cubes (bitwise ops are exact per bit; arithmetic ops use
// ripple carries with three-valued carry propagation, which is the
// "3-valued forward and backward simulation" of §3.1).
//
// The bitwise, add/subtract, reduction, shift and slice kernels work a
// 64-bit word at a time at every width (Mul adds one word-parallel row
// per multiplier bit); single-word vectors (width <= 64) additionally
// take a straight-line path. The canonical invariant val ⊆ known makes
// known-1 simply val and known-0 known&^val.

func checkSameWidth(a, b BV, op string) {
	if a.width != b.width {
		panic("bv: " + op + " width mismatch")
	}
}

// Not returns the bitwise complement (x stays x).
func (b BV) Not() BV {
	if b.small() {
		return single(b.width, ^b.v[0]&b.k[0], b.k[0])
	}
	c := b.Clone()
	vs, ks := c.ws()
	for i := range vs {
		vs[i] = ^vs[i] & ks[i]
	}
	return c
}

// And returns the three-valued bitwise AND.
func (b BV) And(o BV) BV {
	checkSameWidth(b, o, "And")
	if b.small() {
		one := b.v[0] & o.v[0]
		zero := (b.k[0] &^ b.v[0]) | (o.k[0] &^ o.v[0])
		return single(b.width, one, one|zero)
	}
	c := NewX(b.width)
	AndInto(&c, b, o)
	return c
}

// Or returns the three-valued bitwise OR.
func (b BV) Or(o BV) BV {
	checkSameWidth(b, o, "Or")
	if b.small() {
		one := b.v[0] | o.v[0]
		zero := (b.k[0] &^ b.v[0]) & (o.k[0] &^ o.v[0])
		return single(b.width, one, one|zero)
	}
	c := NewX(b.width)
	OrInto(&c, b, o)
	return c
}

// Xor returns the three-valued bitwise XOR (known only where both known).
func (b BV) Xor(o BV) BV {
	checkSameWidth(b, o, "Xor")
	if b.small() {
		k := b.k[0] & o.k[0]
		return single(b.width, (b.v[0]^o.v[0])&k, k)
	}
	c := NewX(b.width)
	XorInto(&c, b, o)
	return c
}

// AddCarry returns the three-valued sum a+b+cin truncated to the width
// of a, along with the carry out of the final bit. This is the forward
// adder simulation of Fig. 3.
func (b BV) AddCarry(o BV, cin Trit) (sum BV, cout Trit) {
	checkSameWidth(b, o, "Add")
	return ripple(b, o, false, cin)
}

// Add returns the three-valued sum modulo 2^width.
func (b BV) Add(o BV) BV {
	s, _ := b.AddCarry(o, Zero)
	return s
}

// SubBorrow returns the three-valued difference b-o (mod 2^width) and
// the borrow out of the final bit. A known borrow-out of One means
// every completion wraps (b < o); Zero means none does. This is the
// backward adder implication primitive of Fig. 3: given an adder output
// and one input, out − in bounds the other input, and borrow-out 1 of
// (out − in) corresponds to carry-out 1 of the original addition.
func (b BV) SubBorrow(o BV) (diff BV, borrow Trit) {
	checkSameWidth(b, o, "Sub")
	return ripple(b, o, true, Zero)
}

// ripple is the word-parallel kernel of AddCarry and SubBorrow. Both
// are Kleene ripple chains c' = g | (p & c) with a result bit
// a ^ b ^ c per position:
//
//	add:  g = a & b,   p = a | b                (c' is the carry maj(a, b, c))
//	sub:  g = ¬a & b,  p = ¬(a ⊕ b)             (c' is the borrow)
//
// with g and p evaluated in Kleene logic per bit. Kleene AND and OR act
// component-wise on a trit's (known-1, possibly-1) pair, so the chain
// splits into two ordinary boolean chains, one over the known-1 bits of
// g and p (giving the known-1 carries) and one over their possibly-1
// bits (giving the possibly-1 carries); a carry is known exactly where
// the two agree. Each boolean chain is one 64-bit addition per word:
// the carries of (p | g) + g + c are g | (p & c). The result is the
// per-trit ripple loop's, trit for trit, at every width.
func ripple(a, o BV, sub bool, cin Trit) (BV, Trit) {
	var cl, ch uint64 // known-1 and possibly-1 carry into the word
	switch cin {
	case One:
		cl, ch = 1, 1
	case X:
		ch = 1
	}
	r := NewX(a.width)
	nw := words(a.width)
	for i := 0; i < nw; i++ {
		av, ak := a.word(i)
		bv, bk := o.word(i)
		m := ^uint64(0)
		if i == nw-1 {
			m = lastMask(a.width)
		}
		var gl, pl, gh, ph uint64
		if sub {
			gl = ak &^ av & bv
			pl = ak & bk &^ (av ^ bv)
			gh = ^av & (bv | ^bk)
			ph = ^(ak & bk & (av ^ bv))
		} else {
			gl, pl = av&bv, av|bv
			amax, bmax := av|^ak, bv|^bk
			gh, ph = amax&bmax, amax|bmax
		}
		xl, yl := (pl|gl)&m, gl&m
		xh, yh := (ph|gh)&m, gh&m
		sl, cl2 := bits.Add64(xl, yl, cl)
		sh, ch2 := bits.Add64(xh, yh, ch)
		kl, kh := xl^yl^sl, xh^yh^sh // carry into each bit
		known := ak & bk &^ (kl ^ kh)
		r.setWord(i, (av^bv^kl)&known, known)
		cl, ch = cl2, ch2
		if m != ^uint64(0) { // a partial last word carries out at bit width%64
			rem := uint(a.width % wordBits)
			cl, ch = kl>>rem&1, kh>>rem&1
		}
	}
	switch {
	case cl == 1:
		return r, One
	case ch == 0:
		return r, Zero
	}
	return r, X
}

// Sub returns the three-valued difference modulo 2^width.
func (b BV) Sub(o BV) BV {
	d, _ := b.SubBorrow(o)
	return d
}

// Mul returns the three-valued product modulo 2^width. It is exact when
// both operands are fully known and degrades to interval-free partial
// knowledge otherwise: the result keeps the low bits that are fully
// determined by the known low bits of the operands (a standard
// word-level approximation — bit i of the product depends only on bits
// [0..i] of the operands).
func (b BV) Mul(o BV) BV {
	checkSameWidth(b, o, "Mul")
	w := b.width
	if b.IsFullyKnown() && o.IsFullyKnown() {
		return mulExact(b, o)
	}
	// Sum of shifted partial products with three-valued addition, where
	// each partial product row is o shifted left by i, anded with bit i
	// of b. Unknown multiplier bits make the whole row x from that point.
	acc := FromUint64(w, 0)
	for i := 0; i < w; i++ {
		var row BV
		switch b.Bit(i) {
		case Zero:
			continue
		case One:
			row = o.shiftLeftKnown(i)
		default:
			row = NewX(w)
			// Low i bits of the row are 0 regardless.
			row.knownZero(0, i)
			// If o is known to be zero the row is zero.
			if z, okz := o.Uint64(); okz && z == 0 {
				row = FromUint64(w, 0)
			}
		}
		acc = acc.Add(row)
	}
	return acc
}

func mulExact(a, b BV) BV {
	w := a.width
	if w <= 64 {
		av, _ := a.Uint64()
		bw, _ := b.Uint64()
		return FromUint64(w, av*bw)
	}
	// Schoolbook over words for wide fully-known vectors.
	acc := FromUint64(w, 0)
	for i := 0; i < w; i++ {
		if b.Bit(i) == One {
			acc = acc.Add(a.shiftLeftKnown(i))
		}
	}
	return acc
}

// shiftLeftKnown returns b << n with known zero fill.
func (b BV) shiftLeftKnown(n int) BV {
	if b.small() {
		m := lowMask(b.width)
		low := lowMask(n) & m
		if n >= b.width {
			return single(b.width, 0, m)
		}
		return single(b.width, b.v[0]<<uint(n)&m, b.k[0]<<uint(n)&m|low)
	}
	c := NewX(b.width)
	c.knownZero(0, min(n, b.width))
	if n < b.width {
		blit(&c, n, b, 0, b.width-n)
	}
	return c
}

// shiftRightKnown returns b >> n (logical) with known zero fill.
func (b BV) shiftRightKnown(n int) BV {
	if b.small() {
		m := lowMask(b.width)
		if n >= b.width {
			return single(b.width, 0, m)
		}
		high := m &^ lowMask(b.width-n)
		return single(b.width, b.v[0]>>uint(n), b.k[0]>>uint(n)|high)
	}
	c := NewX(b.width)
	keep := max(b.width-n, 0)
	blit(&c, 0, b, n, keep)
	c.knownZero(keep, b.width-keep)
	return c
}

// Shl returns the three-valued logical left shift b << o. When the
// shift amount is not fully known the result is the union over all
// feasible amounts (bounded by the width).
func (b BV) Shl(o BV) BV {
	return b.shiftDynamic(o, BV.shiftLeftKnown)
}

// Shr returns the three-valued logical right shift b >> o.
func (b BV) Shr(o BV) BV {
	return b.shiftDynamic(o, BV.shiftRightKnown)
}

// shiftDynamic shifts b by every amount in the cube o with f and
// returns the union of the results. An amount at or past the width
// shifts every bit out. An amount bit of weight 2^64 or more that is 1
// does so too; when all such bits are 0 the low 64 bits decide, and
// when some are x the result is the union of the low-bit result and
// zero.
func (b BV) shiftDynamic(o BV, f func(BV, int) BV) BV {
	if o.width > wordBits {
		switch o.Slice(o.width-1, wordBits).RedOr().Bit(0) {
		case One:
			return FromUint64(b.width, 0)
		case Zero:
			return b.shiftDynamic(o.Slice(wordBits-1, 0), f)
		default:
			return b.shiftDynamic(o.Slice(wordBits-1, 0), f).Union(FromUint64(b.width, 0))
		}
	}
	// The least and the greatest amount are both in the cube.
	lo, hi, w := o.MinUint64(), o.MaxUint64(), uint64(b.width)
	if lo >= w {
		return FromUint64(b.width, 0)
	}
	acc := f(b, int(lo))
	if hi >= w {
		acc.UnionInPlace(FromUint64(b.width, 0))
	}
	for s := lo + 1; s <= hi && s < w; s++ {
		if o.Contains(s) {
			acc.UnionInPlace(f(b, int(s)))
		}
	}
	return acc
}

// RedAnd returns the 1-bit reduction AND.
func (b BV) RedAnd() BV {
	for i := 0; i < words(b.width); i++ {
		if v, k := b.word(i); k&^v != 0 { // some bit known 0
			return FromUint64(1, 0)
		}
	}
	if b.IsFullyKnown() { // all bits known 1 (width 0: vacuously One)
		return FromUint64(1, 1)
	}
	return NewX(1)
}

// RedOr returns the 1-bit reduction OR.
func (b BV) RedOr() BV {
	for i := 0; i < words(b.width); i++ {
		if v, _ := b.word(i); v != 0 { // some bit known 1
			return FromUint64(1, 1)
		}
	}
	if b.IsFullyKnown() { // all known, all 0
		return FromUint64(1, 0)
	}
	return NewX(1)
}

// RedXor returns the 1-bit reduction XOR.
func (b BV) RedXor() BV {
	if !b.IsFullyKnown() {
		return NewX(1)
	}
	parity := 0
	for i := 0; i < words(b.width); i++ {
		v, _ := b.word(i)
		parity ^= bits.OnesCount64(v)
	}
	return FromUint64(1, uint64(parity&1))
}

// LtThree compares two cubes as unsigned integers in three-valued
// logic, returning the trit of the predicate a < b (Lt), using interval
// reasoning: if max(a) < min(b) the answer is One; if min(a) >= max(b)
// it is Zero; otherwise X.
func LtThree(a, b BV) Trit {
	checkSameWidth(a, b, "Lt")
	if a.width <= wordBits {
		if a.MaxUint64() < b.MinUint64() {
			return One
		}
		if a.MinUint64() >= b.MaxUint64() {
			return Zero
		}
		return X
	}
	if a.Max().Cmp(b.Min()) < 0 {
		return One
	}
	if a.Min().Cmp(b.Max()) >= 0 {
		return Zero
	}
	return X
}

// EqThree returns the trit of a == b: One if both fully known and
// equal; Zero if some bit is known unequal; X otherwise.
func EqThree(a, b BV) Trit {
	checkSameWidth(a, b, "Eq")
	if ConflictMask(a, b) != 0 {
		return Zero
	}
	if a.IsFullyKnown() && b.IsFullyKnown() {
		return One
	}
	return X
}

// TightenToRange refines cube b against the unsigned range [lo, hi]
// following the paper's Rules 1 and 2 (§3.1, Fig. 4): scanning from the
// most significant bit, an unknown bit is implied to value v when
// forcing it to the complement makes the cube's reachable interval
// disjoint from [lo, hi]. Scanning stops at the first unknown bit that
// cannot be implied, because less-significant implications would split
// the range into overlapping sub-ranges (Rule 2). ok is false when the
// cube has no completion inside [lo, hi].
func (b BV) TightenToRange(lo, hi BV) (BV, bool) {
	if lo.width != b.width || hi.width != b.width {
		panic("bv: TightenToRange width mismatch")
	}
	if b.width <= wordBits {
		return b.tightenToRange64(lo.MinUint64(), hi.MinUint64())
	}
	cur := b.Clone()
	if cur.Max().Cmp(lo) < 0 || cur.Min().Cmp(hi) > 0 {
		return BV{}, false
	}
	for i := b.width - 1; i >= 0; i-- {
		if cur.Bit(i) != X {
			continue
		}
		c0 := cur.WithBit(i, Zero)
		c1 := cur.WithBit(i, One)
		out0 := c0.Max().Cmp(lo) < 0 || c0.Min().Cmp(hi) > 0
		out1 := c1.Max().Cmp(lo) < 0 || c1.Min().Cmp(hi) > 0
		switch {
		case out0 && out1:
			return BV{}, false
		case out0:
			cur = c1
		case out1:
			cur = c0
		default:
			// Rule 2: stop at the first undecidable unknown bit.
			return cur, true
		}
	}
	return cur, true
}

// tightenToRange64 is TightenToRange for widths up to 64 bits, working
// directly on the [min, max] integers of the cube.
func (b BV) tightenToRange64(lo, hi uint64) (BV, bool) {
	cur := b
	cmin, cmax := cur.MinUint64(), cur.MaxUint64()
	if cmax < lo || cmin > hi {
		return BV{}, false
	}
	for i := b.width - 1; i >= 0; i-- {
		if cur.getTrit(i) != X {
			continue
		}
		bit := uint64(1) << uint(i)
		// Setting the bit to 0 keeps range [cmin, cmax-bit]; to 1,
		// [cmin+bit, cmax].
		out0 := cmax-bit < lo || cmin > hi
		out1 := cmax < lo || cmin+bit > hi
		switch {
		case out0 && out1:
			return BV{}, false
		case out0:
			cur.setBit(i, One)
			cmin += bit
		case out1:
			cur.setBit(i, Zero)
			cmax -= bit
		default:
			return cur, true
		}
	}
	return cur, true
}
