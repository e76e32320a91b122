package bv

import "math/bits"

// Allocation-conscious primitives and the engine-internal mutating API.
// The exported immutable API (bv.go, ops.go, back.go) is unchanged;
// vectors up to 128 bits are plain values, so the immutable operations
// on them already allocate nothing. The *InPlace and *Into variants
// below additionally let owners of wider vectors reuse their spill
// storage. They are for callers that exclusively own the
// receiver's storage (the engine's cube-union accumulators, EvalGate's
// intermediate results) and must never be applied to a vector that
// another holder may still read.

// setBit mutates a bit of an *unshared* vector (freshly allocated by
// the caller, never an operand).
func (b *BV) setBit(i int, t Trit) {
	vs, ks := b.ws()
	w, m := i/wordBits, uint64(1)<<uint(i%wordBits)
	switch t {
	case X:
		ks[w] &^= m
		vs[w] &^= m
	case Zero:
		ks[w] |= m
		vs[w] &^= m
	case One:
		ks[w] |= m
		vs[w] |= m
	}
}

// getTrit reads a bit without bounds checking beyond slice safety.
func (b *BV) getTrit(i int) Trit {
	v, k := b.word(i / wordBits)
	s := uint(i % wordBits)
	if k>>s&1 == 0 {
		return X
	}
	return Trit(v >> s & 1)
}

// word returns the i-th (val, known) word pair of either representation.
func (b *BV) word(i int) (v, k uint64) {
	if b.spill == nil {
		return b.v[i], b.k[i]
	}
	n := len(b.spill) / 2
	return b.spill[i], b.spill[n+i]
}

// RefineScan reports whether refining b with o would add known bits
// (changed) or contradict (conflict), without allocating. It is the
// read-only prefix of Refine used on the implication fast path, where
// the overwhelmingly common case is "no change".
func (b BV) RefineScan(o BV) (changed, conflict bool) {
	if b.small() {
		if b.k[0]&o.k[0]&(b.v[0]^o.v[0]) != 0 {
			return false, true
		}
		return o.k[0]&^b.k[0] != 0, false
	}
	bvs, bks := b.ws()
	ovs, oks := o.ws()
	for i := range bvs {
		if bks[i]&oks[i]&(bvs[i]^ovs[i]) != 0 {
			return false, true
		}
		if oks[i]&^bks[i] != 0 {
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
		return next.k[0] &^ prev.k[0]
	}
	_, nks := next.ws()
	_, pks := prev.ws()
	var m uint64
	for i, k := range nks {
		var pk uint64
		if i < len(pks) {
			pk = pks[i]
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
		return a.k[0] & b.k[0] & (a.v[0] ^ b.v[0])
	}
	avs, aks := a.ws()
	bvs, bks := b.ws()
	var m uint64
	for i := range aks {
		m |= aks[i] & bks[i] & (avs[i] ^ bvs[i])
	}
	return m
}

// setWord stores the i-th (val, known) word pair of an unshared vector.
func (b *BV) setWord(i int, v, k uint64) {
	if b.spill == nil {
		b.v[i], b.k[i] = v, k
		return
	}
	n := len(b.spill) / 2
	b.spill[i], b.spill[n+i] = v, k
}

// orWord ORs a (val, known) pair into the i-th word of an unshared
// vector.
func (b *BV) orWord(i int, v, k uint64) {
	if b.spill == nil {
		b.v[i] |= v
		b.k[i] |= k
		return
	}
	n := len(b.spill) / 2
	b.spill[i] |= v
	b.spill[n+i] |= k
}

// bitsAt returns the (val, known) bits at positions [pos, pos+64) of
// either representation; positions at or beyond the width read as x.
func (b *BV) bitsAt(pos int) (v, k uint64) {
	i, s := pos/wordBits, uint(pos%wordBits)
	v, k = b.word(i)
	v, k = v>>s, k>>s
	if s != 0 && i+1 < words(b.width) {
		v1, k1 := b.word(i + 1)
		v |= v1 << (wordBits - s)
		k |= k1 << (wordBits - s)
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
	changed, conflict := b.RefineScan(o)
	if conflict {
		return false, false
	}
	bvs, bks := b.ws()
	ovs, oks := o.ws()
	for i := range bvs {
		bvs[i] |= ovs[i]
		bks[i] |= oks[i]
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
	bvs, bks := b.ws()
	ovs, oks := o.ws()
	for i := range bvs {
		agree := bks[i] & oks[i] & ^(bvs[i] ^ ovs[i])
		bvs[i] &= agree
		bks[i] = agree
	}
}

// reshape resizes dst to the given width, reusing its spill storage
// when the capacity fits. Spilled words are NOT cleared: every caller
// below overwrites all of them, which is also what makes the *Into
// kernels safe when dst aliases an operand (reads of word i complete
// before word i is written). An inline operand is a copy, so it never
// aliases dst.
func (dst *BV) reshape(width int) {
	if width <= inlineBits {
		*dst = BV{width: width}
		return
	}
	n := 2 * words(width)
	if cap(dst.spill) < n {
		*dst = NewX(width)
		return
	}
	*dst = BV{width: width, spill: dst.spill[:n]}
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
	dvs, dks := dst.ws()
	avs, aks := a.ws()
	ovs, oks := o.ws()
	for i := range dvs {
		one := avs[i] & ovs[i]
		zero := (aks[i] &^ avs[i]) | (oks[i] &^ ovs[i])
		dvs[i] = one
		dks[i] = one | zero
	}
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
	dvs, dks := dst.ws()
	avs, aks := a.ws()
	ovs, oks := o.ws()
	for i := range dvs {
		one := avs[i] | ovs[i]
		zero := (aks[i] &^ avs[i]) & (oks[i] &^ ovs[i])
		dvs[i] = one
		dks[i] = one | zero
	}
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
	dvs, dks := dst.ws()
	avs, aks := a.ws()
	ovs, oks := o.ws()
	for i := range dvs {
		k := aks[i] & oks[i]
		dks[i] = k
		dvs[i] = (avs[i] ^ ovs[i]) & k
	}
}

// NotInto stores the bitwise complement of a into dst. dst may alias a.
func NotInto(dst *BV, a BV) {
	if a.small() {
		*dst = a.Not()
		return
	}
	dst.reshape(a.width)
	dvs, dks := dst.ws()
	avs, aks := a.ws()
	for i := range dvs {
		dvs[i] = ^avs[i] & aks[i]
		dks[i] = aks[i]
	}
}
