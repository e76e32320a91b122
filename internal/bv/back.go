package bv

// Backward implication primitives for bitwise gates: given the required
// output cube of a gate and the current cube of the *other* input, each
// function returns the cube that the remaining input must refine to.
// These are exact per bit (the strongest sound implication).

// BackAnd returns the implication on input a of an AND gate with output
// out and other input b: out bit 1 forces a=1; out bit 0 with b=1
// forces a=0.
func BackAnd(out, other BV) BV {
	checkSameWidth(out, other, "BackAnd")
	if out.small() {
		one := out.v[0]
		zero := (out.k[0] &^ out.v[0]) & other.v[0]
		return single(out.width, one, one|zero)
	}
	r := NewX(out.width)
	rvs, rks := r.ws()
	ovs, oks := out.ws()
	bvs, _ := other.ws()
	for i := range rvs {
		one := ovs[i]
		zero := (oks[i] &^ ovs[i]) & bvs[i]
		rvs[i] = one
		rks[i] = one | zero
	}
	return r
}

// BackOr returns the implication on input a of an OR gate with output
// out and other input b: out bit 0 forces a=0; out bit 1 with b=0
// forces a=1.
func BackOr(out, other BV) BV {
	checkSameWidth(out, other, "BackOr")
	if out.small() {
		zero := out.k[0] &^ out.v[0]
		one := out.v[0] & (other.k[0] &^ other.v[0])
		return single(out.width, one, one|zero)
	}
	r := NewX(out.width)
	rvs, rks := r.ws()
	ovs, oks := out.ws()
	bvs, bks := other.ws()
	for i := range rvs {
		zero := oks[i] &^ ovs[i]
		one := ovs[i] & (bks[i] &^ bvs[i])
		rvs[i] = one
		rks[i] = one | zero
	}
	return r
}

// BackXor returns the implication on input a of an XOR gate: a = out ^ b
// wherever both are known.
func BackXor(out, other BV) BV {
	checkSameWidth(out, other, "BackXor")
	return out.Xor(other)
}

// BackNot returns the implication on the input of an inverter.
func BackNot(out BV) BV { return out.Not() }

// BackRedAnd returns the implication on the input of a reduction AND
// whose 1-bit output is out: output 1 forces all input bits to 1;
// output 0 forces the single remaining x bit to 0 when all other bits
// are known 1.
func BackRedAnd(out BV, in BV) BV {
	if out.Width() != 1 {
		panic("bv: BackRedAnd output must be 1 bit")
	}
	switch out.Bit(0) {
	case One:
		return Ones(in.width)
	case Zero:
		// One x bit and no bit known 0: the x bit must be 0.
		if in.width-in.KnownCount() == 1 && in.RedAnd().Bit(0) != Zero {
			return in.WithBit(in.firstX(), Zero)
		}
	}
	return in
}

// BackRedOr is the dual of BackRedAnd: output 0 forces all bits 0;
// output 1 with a single x and the rest 0 forces that x to 1.
func BackRedOr(out BV, in BV) BV {
	if out.Width() != 1 {
		panic("bv: BackRedOr output must be 1 bit")
	}
	switch out.Bit(0) {
	case Zero:
		return FromUint64(in.width, 0)
	case One:
		// One x bit and no bit known 1: the x bit must be 1.
		if in.width-in.KnownCount() == 1 && in.RedOr().Bit(0) != One {
			return in.WithBit(in.firstX(), One)
		}
	}
	return in
}

// BackAdd returns the implication on input a of an adder out = a + b:
// a refines to out - b (three-valued). The returned borrow trit, when
// known, is the implied carry-out of the original addition (Fig. 3).
func BackAdd(out, other BV) (BV, Trit) {
	return out.SubBorrow(other)
}

// BackSubMinuend returns the implication on the minuend a of a
// subtractor out = a - b: a refines to out + b (three-valued).
func BackSubMinuend(out, other BV) BV { return out.Add(other) }

// BackSubSubtrahend returns the implication on the subtrahend b of
// out = a - b given the minuend a.
func BackSubSubtrahend(out, minuend BV) BV { return minuend.Sub(out) }

// BackZext returns the implication on the input of a zero-extension
// whose output cube is out: high output bits known 1 conflict (reported
// by the caller via Refine), low bits map through.
func BackZext(out BV, inWidth int) BV {
	return Deposit(inWidth, 0, out, 0, min(inWidth, out.width))
}
