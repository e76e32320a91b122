package bv

import "math/bits"

// Allocation-conscious primitives and the engine-internal mutating API.
// The exported immutable API (bv.go, ops.go, back.go) is unchanged;
// small vectors (width <= 64) are plain values, so the immutable
// operations on them already allocate nothing. The *InPlace and *Into
// variants below additionally let owners of wide vectors reuse their
// spill storage. They are for callers that exclusively own the
// receiver's storage (the engine's cube-union accumulators, EvalGate's
// intermediate results) and must never be applied to a vector that
// another holder may still read.

// setBit mutates a bit of an *unshared* vector (freshly allocated by
// the caller, never an operand).
func (b *BV) setBit(i int, t Trit) {
	if b.vs == nil {
		s := uint(i)
		switch t {
		case X:
			b.k0 &^= uint64(1) << s
			b.v0 &^= uint64(1) << s
		case Zero:
			b.k0 |= uint64(1) << s
			b.v0 &^= uint64(1) << s
		case One:
			b.k0 |= uint64(1) << s
			b.v0 |= uint64(1) << s
		}
		return
	}
	w, s := i/wordBits, uint(i%wordBits)
	switch t {
	case X:
		b.ks[w] &^= uint64(1) << s
		b.vs[w] &^= uint64(1) << s
	case Zero:
		b.ks[w] |= uint64(1) << s
		b.vs[w] &^= uint64(1) << s
	case One:
		b.ks[w] |= uint64(1) << s
		b.vs[w] |= uint64(1) << s
	}
}

// getTrit reads a bit without bounds checking beyond slice safety.
func (b *BV) getTrit(i int) Trit {
	if b.vs == nil {
		s := uint(i)
		if b.k0>>s&1 == 0 {
			return X
		}
		return Trit(b.v0 >> s & 1)
	}
	w, s := i/wordBits, uint(i%wordBits)
	if b.ks[w]>>s&1 == 0 {
		return X
	}
	return Trit(b.vs[w] >> s & 1)
}

// word returns the i-th (val, known) word pair of either representation.
func (b *BV) word(i int) (v, k uint64) {
	if b.vs == nil {
		return b.v0, b.k0
	}
	return b.vs[i], b.ks[i]
}

// RefineScan reports whether refining b with o would add known bits
// (changed) or contradict (conflict), without allocating. It is the
// read-only prefix of Refine used on the implication fast path, where
// the overwhelmingly common case is "no change".
func (b BV) RefineScan(o BV) (changed, conflict bool) {
	if b.small() {
		if b.k0&o.k0&(b.v0^o.v0) != 0 {
			return false, true
		}
		return o.k0&^b.k0 != 0, false
	}
	for i := range b.vs {
		if b.ks[i]&o.ks[i]&(b.vs[i]^o.vs[i]) != 0 {
			return false, true
		}
		if o.ks[i]&^b.ks[i] != 0 {
			changed = true
		}
	}
	return changed, false
}

// DeltaKnown returns the mask of bit positions, folded modulo 64, that
// are known in next but not in prev — the changed-bit mask a trail
// entry records for bit-granular conflict analysis. For vectors of
// width <= 64 the fold is the identity (an exact per-bit mask); wider
// vectors OR their per-word deltas, so mask bit j stands for bits
// j, j+64, j+128, ... Folding commutes with bitwise operations
// exactly and with bit offsets as rotations ((b+k) mod 64 ==
// ((b mod 64)+k) mod 64), which is what keeps one word of mask sound
// and useful across arbitrarily wide signals.
func DeltaKnown(prev, next BV) uint64 {
	if next.small() {
		return next.k0 &^ prev.k0
	}
	var m uint64
	for i, k := range next.ks {
		var pk uint64
		if i < len(prev.ks) {
			pk = prev.ks[i]
		}
		m |= k &^ pk
	}
	return m
}

// ConflictMask returns the folded (mod 64) mask of bit positions where
// a and b are both known and disagree — the positions witnessing a cube
// contradiction. Zero means the cubes are compatible. a and b must have
// equal widths (and therefore the same representation).
func ConflictMask(a, b BV) uint64 {
	if a.small() {
		return a.k0 & b.k0 & (a.v0 ^ b.v0)
	}
	var m uint64
	for i := range a.ks {
		m |= a.ks[i] & b.ks[i] & (a.vs[i] ^ b.vs[i])
	}
	return m
}

// setWord stores the i-th (val, known) word pair of an unshared vector.
func (b *BV) setWord(i int, v, k uint64) {
	if b.vs == nil {
		b.v0, b.k0 = v, k
		return
	}
	b.vs[i], b.ks[i] = v, k
}

// orWord ORs a (val, known) pair into the i-th word of an unshared
// vector.
func (b *BV) orWord(i int, v, k uint64) {
	if b.vs == nil {
		b.v0 |= v
		b.k0 |= k
		return
	}
	b.vs[i] |= v
	b.ks[i] |= k
}

// bitsAt returns the (val, known) bits at positions [pos, pos+64) of
// either representation; positions at or beyond the width read as x.
func (b *BV) bitsAt(pos int) (v, k uint64) {
	i, s := pos/wordBits, uint(pos%wordBits)
	v, k = b.word(i)
	v, k = v>>s, k>>s
	if s != 0 && i+1 < len(b.vs) {
		v |= b.vs[i+1] << (wordBits - s)
		k |= b.ks[i+1] << (wordBits - s)
	}
	return v, k
}

// blit copies n bits of src starting at srcLo into dst starting at
// dstLo, OR-ing known bits in. dst must be unshared; bits outside the
// blit are untouched. It moves one destination word per step, so its
// cost is linear in words, not bits, at any alignment.
func blit(dst *BV, dstLo int, src BV, srcLo, n int) {
	for n > 0 {
		dw, ds := dstLo/wordBits, uint(dstLo%wordBits)
		c := min(wordBits-int(ds), n)
		v, k := src.bitsAt(srcLo)
		m := lowMask(c)
		dst.orWord(dw, (v&m)<<ds, (k&m)<<ds)
		dstLo, srcLo, n = dstLo+c, srcLo+c, n-c
	}
}

// firstX returns the position of the lowest x bit, or -1 if every bit
// is known.
func (b *BV) firstX() int {
	for i := 0; i < words(b.width); i++ {
		if _, k := b.word(i); k != ^uint64(0) {
			if p := i*wordBits + bits.TrailingZeros64(^k); p < b.width {
				return p
			}
			return -1
		}
	}
	return -1
}

// knownZero makes bits [lo, lo+n) of an unshared vector known 0; the
// bits must still be x.
func (b *BV) knownZero(lo, n int) {
	for n > 0 {
		w, s := lo/wordBits, uint(lo%wordBits)
		c := min(wordBits-int(s), n)
		b.orWord(w, 0, lowMask(c)<<s)
		lo, n = lo+c, n-c
	}
}

// RefineInPlace merges the known bits of o into b, mutating b. It is
// Refine for callers that own b's storage: no allocation for any width.
// On conflict b is left unchanged and ok is false.
func (b *BV) RefineInPlace(o BV) (changed, ok bool) {
	if b.width != o.width {
		panic("bv: RefineInPlace width mismatch")
	}
	if b.small() {
		if b.k0&o.k0&(b.v0^o.v0) != 0 {
			return false, false
		}
		nk := b.k0 | o.k0
		changed = nk != b.k0
		b.v0 |= o.v0
		b.k0 = nk
		return changed, true
	}
	for i := range b.vs {
		if b.ks[i]&o.ks[i]&(b.vs[i]^o.vs[i]) != 0 {
			return false, false
		}
	}
	for i := range b.vs {
		nk := b.ks[i] | o.ks[i]
		if nk != b.ks[i] {
			changed = true
		}
		b.vs[i] |= o.vs[i]
		b.ks[i] = nk
	}
	return changed, true
}

// IntersectInPlace narrows b to the cube intersection of b and o,
// mutating b. ok is false (b unchanged) when the cubes are disjoint.
func (b *BV) IntersectInPlace(o BV) bool {
	_, ok := b.RefineInPlace(o)
	return ok
}

// UnionInPlace widens b to the smallest cube containing both b and o,
// mutating b.
func (b *BV) UnionInPlace(o BV) {
	if b.width != o.width {
		panic("bv: UnionInPlace width mismatch")
	}
	if b.small() {
		agree := b.k0 & o.k0 & ^(b.v0 ^ o.v0)
		b.v0 &= agree
		b.k0 = agree
		return
	}
	for i := range b.vs {
		agree := b.ks[i] & o.ks[i] & ^(b.vs[i] ^ o.vs[i])
		b.vs[i] &= agree
		b.ks[i] = agree
	}
}

// reshape resizes dst to the given width, reusing its spill storage
// when the capacity fits. Words are NOT cleared: every caller below
// overwrites all of them, which is also what makes the *Into kernels
// safe when dst aliases an operand (reads of word i complete before
// word i is written).
func (dst *BV) reshape(width int) {
	if width <= wordBits {
		*dst = BV{width: width}
		return
	}
	nw := words(width)
	if cap(dst.vs) < nw || cap(dst.ks) < nw {
		*dst = NewX(width)
		return
	}
	dst.width = width
	dst.vs = dst.vs[:nw]
	dst.ks = dst.ks[:nw]
	dst.v0, dst.k0 = 0, 0
}

// CopyInto replaces *dst with a copy of src, reusing dst's spill
// storage when possible. dst must own its storage.
func CopyInto(dst *BV, src BV) {
	if src.small() {
		*dst = src
		return
	}
	dst.reshape(src.width)
	copy(dst.vs, src.vs)
	copy(dst.ks, src.ks)
}

// AndInto stores the three-valued bitwise AND of a and o into dst,
// reusing dst's spill storage. dst may alias a or o.
func AndInto(dst *BV, a, o BV) {
	checkSameWidth(a, o, "AndInto")
	if a.small() {
		*dst = a.And(o)
		return
	}
	dst.reshape(a.width)
	for i := range dst.vs {
		one := a.ks[i] & a.vs[i] & o.ks[i] & o.vs[i]
		zero := (a.ks[i] &^ a.vs[i]) | (o.ks[i] &^ o.vs[i])
		dst.vs[i] = one
		dst.ks[i] = one | zero
	}
	dst.normalize()
}

// OrInto stores the three-valued bitwise OR of a and o into dst.
// dst may alias a or o.
func OrInto(dst *BV, a, o BV) {
	checkSameWidth(a, o, "OrInto")
	if a.small() {
		*dst = a.Or(o)
		return
	}
	dst.reshape(a.width)
	for i := range dst.vs {
		one := (a.ks[i] & a.vs[i]) | (o.ks[i] & o.vs[i])
		zero := (a.ks[i] &^ a.vs[i]) & (o.ks[i] &^ o.vs[i])
		dst.vs[i] = one
		dst.ks[i] = one | zero
	}
	dst.normalize()
}

// XorInto stores the three-valued bitwise XOR of a and o into dst.
// dst may alias a or o.
func XorInto(dst *BV, a, o BV) {
	checkSameWidth(a, o, "XorInto")
	if a.small() {
		*dst = a.Xor(o)
		return
	}
	dst.reshape(a.width)
	for i := range dst.vs {
		k := a.ks[i] & o.ks[i]
		dst.ks[i] = k
		dst.vs[i] = (a.vs[i] ^ o.vs[i]) & k
	}
	dst.normalize()
}

// NotInto stores the bitwise complement of a into dst. dst may alias a.
func NotInto(dst *BV, a BV) {
	if a.small() {
		*dst = a.Not()
		return
	}
	dst.reshape(a.width)
	for i := range dst.vs {
		dst.vs[i] = ^a.vs[i] & a.ks[i]
		dst.ks[i] = a.ks[i]
	}
	dst.normalize()
}
