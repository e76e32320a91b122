// Package bv implements three-valued bit-vectors (cubes) of arbitrary
// width, the value domain of the word-level ATPG engine described in
// Huang & Cheng, "Assertion Checking by Combined Word-level ATPG and
// Modular Arithmetic Constraint-Solving Techniques" (DAC 2000), §3.1.
//
// Each bit of a BV is 0, 1 or x (unknown). A BV therefore denotes the
// set (cube) of all fully-known bit-vectors obtained by replacing every
// x with 0 or 1. Word-level logic implication refines cubes: known bits
// are only ever added, never retracted, within one decision level.
//
// The representation is a pair of words (val, known): bit i is known
// iff known has bit i set, in which case its value is the i-th bit of
// val. Unknown positions keep val at 0 so that equal cubes are
// representation-equal, which makes Equal and hashing cheap.
//
// Widths up to 128 bits — every signal of the paper's Table-2 designs
// and the 96-bit registers of the scaled token ring — store two
// (val, known) word pairs inline in the struct with a nil spill slice,
// so such vectors live entirely in registers or on the stack and the
// hot implication operations perform no heap allocation. Wider vectors
// spill to one slice of words. The split is invisible outside the
// package: the exported API is unchanged and remains immutable by
// convention (in-place variants, documented as engine-internal, are the
// exception; see fast.go).
package bv

import (
	"fmt"
	"math/bits"
	"strings"
)

// Trit is a single three-valued bit.
type Trit uint8

// The three trit values.
const (
	Zero Trit = iota // known 0
	One              // known 1
	X                // unknown
)

// String returns "0", "1" or "x".
func (t Trit) String() string {
	switch t {
	case Zero:
		return "0"
	case One:
		return "1"
	default:
		return "x"
	}
}

const (
	wordBits   = 64
	inlineBits = 2 * wordBits // widest vector stored without a spill slice
)

// BV is a three-valued bit-vector. The zero value is a width-0 vector.
// BV values are immutable by convention: all operations return new
// vectors and never modify their receivers or operands. (The *InPlace /
// *Into variants in fast.go are the documented exception, for callers
// that own their storage.)
//
// Representation invariant: width <= 128 stores word i of val/known
// inline in v[i]/k[i] with spill nil; width > 128 keeps the val words
// and then the known words in spill (2*words(width) entries) and leaves
// v/k zero. In both forms val bits are set only where known, and bits
// beyond width (inline words past the width included) are clear.
type BV struct {
	width int
	v, k  [2]uint64 // inline words, valid iff width <= 128
	spill []uint64  // val words then known words, non-nil iff width > 128
}

func words(width int) int { return (width + wordBits - 1) / wordBits }

// small reports whether the vector is a single inline word, the fast
// path of most operations.
func (b *BV) small() bool { return b.width <= wordBits }

// single returns the one-word vector of the given width with val v and
// known k.
func single(width int, v, k uint64) BV {
	return BV{width: width, v: [2]uint64{v}, k: [2]uint64{k}}
}

// ws returns the val and known words of b. Up to 128 bits they are
// views of b's inline arrays, so they are valid only while b is.
func (b *BV) ws() (vs, ks []uint64) {
	if b.spill != nil {
		n := len(b.spill) / 2
		return b.spill[:n:n], b.spill[n:]
	}
	n := words(b.width)
	return b.v[:n], b.k[:n]
}

// lastMask returns the mask of valid bits in the final word.
func lastMask(width int) uint64 {
	r := width % wordBits
	if r == 0 {
		return ^uint64(0)
	}
	return (uint64(1) << r) - 1
}

// lowMask returns a mask of the n lowest bits (n in [0, 64]); for an
// inline vector it is the mask of valid bits.
func lowMask(n int) uint64 {
	if n >= wordBits {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// NewX returns an all-unknown vector of the given width.
func NewX(width int) BV {
	if width < 0 {
		panic("bv: negative width")
	}
	if width <= inlineBits {
		return BV{width: width}
	}
	return BV{width: width, spill: make([]uint64, 2*words(width))}
}

// FromUint64 returns a fully-known vector holding v truncated to width.
func FromUint64(width int, v uint64) BV {
	if width <= wordBits {
		if width < 0 {
			panic("bv: negative width")
		}
		m := lowMask(width)
		return single(width, v&m, m)
	}
	b := NewX(width)
	vs, ks := b.ws()
	vs[0] = v
	for i := range ks {
		ks[i] = ^uint64(0)
	}
	ks[len(ks)-1] &= lastMask(width)
	return b
}

// Ones returns the fully-known all-ones vector of the given width.
func Ones(width int) BV {
	if width <= wordBits {
		if width < 0 {
			panic("bv: negative width")
		}
		m := lowMask(width)
		return single(width, m, m)
	}
	b := NewX(width)
	vs, ks := b.ws()
	for i := range vs {
		vs[i] = ^uint64(0)
		ks[i] = ^uint64(0)
	}
	m := lastMask(width)
	vs[len(vs)-1] &= m
	ks[len(ks)-1] &= m
	return b
}

// Parse parses a Verilog-style literal such as "4'b10xx", "8'hff",
// "12'd100", or a plain binary/decimal string ("10xx" is binary with
// width 4, "13" needs an explicit width prefix). It returns an error
// for malformed input or values that do not fit the declared width.
func Parse(s string) (BV, error) {
	tick := strings.IndexByte(s, '\'')
	if tick < 0 {
		// Bare binary string possibly containing x.
		return parseBinary(len(s), s)
	}
	var width int
	if _, err := fmt.Sscanf(s[:tick], "%d", &width); err != nil {
		return BV{}, fmt.Errorf("bv: bad width in %q", s)
	}
	if width <= 0 {
		return BV{}, fmt.Errorf("bv: non-positive width in %q", s)
	}
	if tick+1 >= len(s) {
		return BV{}, fmt.Errorf("bv: missing base in %q", s)
	}
	base := s[tick+1]
	digits := strings.ReplaceAll(s[tick+2:], "_", "")
	switch base {
	case 'b', 'B':
		return parseBinary(width, digits)
	case 'h', 'H':
		return parseHex(width, digits)
	case 'd', 'D':
		var v uint64
		if _, err := fmt.Sscanf(digits, "%d", &v); err != nil {
			return BV{}, fmt.Errorf("bv: bad decimal digits in %q", s)
		}
		if width < wordBits && v >= uint64(1)<<width {
			return BV{}, fmt.Errorf("bv: value %d does not fit %d bits", v, width)
		}
		return FromUint64(width, v), nil
	case 'o', 'O':
		b := NewX(width)
		pos := 0
		for i := len(digits) - 1; i >= 0; i-- {
			c := digits[i]
			if c == 'x' || c == 'X' {
				pos += 3
				continue
			}
			if c < '0' || c > '7' {
				return BV{}, fmt.Errorf("bv: bad octal digit %q", c)
			}
			v := uint64(c - '0')
			for k := 0; k < 3 && pos < width; k++ {
				b.setBit(pos, Trit((v>>k)&1))
				pos++
			}
		}
		return b, nil
	default:
		return BV{}, fmt.Errorf("bv: unknown base %q in %q", base, s)
	}
}

func parseBinary(width int, digits string) (BV, error) {
	b := NewX(width)
	pos := 0
	for i := len(digits) - 1; i >= 0; i-- {
		c := digits[i]
		if c == '_' {
			continue
		}
		if pos >= width {
			return BV{}, fmt.Errorf("bv: %q wider than %d bits", digits, width)
		}
		switch c {
		case '0':
			b.setBit(pos, Zero)
		case '1':
			b.setBit(pos, One)
		case 'x', 'X', '?':
			// already x
		default:
			return BV{}, fmt.Errorf("bv: bad binary digit %q", c)
		}
		pos++
	}
	return b, nil
}

func parseHex(width int, digits string) (BV, error) {
	b := NewX(width)
	pos := 0
	for i := len(digits) - 1; i >= 0; i-- {
		c := digits[i]
		var v uint64
		switch {
		case c == 'x' || c == 'X' || c == '?':
			pos += 4
			continue
		case c >= '0' && c <= '9':
			v = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			v = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v = uint64(c-'A') + 10
		default:
			return BV{}, fmt.Errorf("bv: bad hex digit %q", c)
		}
		for k := 0; k < 4 && pos < width; k++ {
			b.setBit(pos, Trit((v>>k)&1))
			pos++
		}
	}
	return b, nil
}

// ParseVerilog parses a literal with Verilog semantics: strings without
// a base tick are unsized decimals (32 bits); everything else follows
// Parse. bv.Parse by contrast treats bare strings as binary, which is
// handy for tests but wrong for Verilog source.
func ParseVerilog(s string) (BV, error) {
	if !strings.ContainsRune(s, '\'') {
		var v uint64
		clean := strings.ReplaceAll(s, "_", "")
		if _, err := fmt.Sscanf(clean, "%d", &v); err != nil {
			return BV{}, fmt.Errorf("bv: bad decimal literal %q", s)
		}
		return FromUint64(32, v), nil
	}
	return Parse(s)
}

// MustParse is Parse but panics on error; for literals in tests and tables.
func MustParse(s string) BV {
	b, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return b
}

// Width returns the number of bits.
func (b BV) Width() int { return b.width }

// Bit returns the trit at position i (bit 0 is the LSB).
func (b BV) Bit(i int) Trit {
	if i < 0 || i >= b.width {
		panic(fmt.Sprintf("bv: bit %d out of range for width %d", i, b.width))
	}
	return b.getTrit(i)
}

// WithBit returns a copy of b with bit i set to t.
func (b BV) WithBit(i int, t Trit) BV {
	if i < 0 || i >= b.width {
		panic(fmt.Sprintf("bv: bit %d out of range for width %d", i, b.width))
	}
	c := b.Clone()
	c.setBit(i, t)
	return c
}

// Clone returns a deep copy. Vectors up to 128 bits are plain values,
// so for them this is a copy with no allocation.
func (b BV) Clone() BV {
	if b.spill == nil {
		return b
	}
	c := BV{width: b.width, spill: make([]uint64, len(b.spill))}
	copy(c.spill, b.spill)
	return c
}

// IsAllX reports whether every bit is unknown.
func (b BV) IsAllX() bool {
	if b.spill == nil {
		return b.k[0]|b.k[1] == 0
	}
	_, ks := b.ws()
	for _, k := range ks {
		if k != 0 {
			return false
		}
	}
	return true
}

// IsFullyKnown reports whether no bit is unknown.
func (b BV) IsFullyKnown() bool {
	if b.small() {
		return b.k[0] == lowMask(b.width)
	}
	_, ks := b.ws()
	last := len(ks) - 1
	for _, k := range ks[:last] {
		if k != ^uint64(0) {
			return false
		}
	}
	return ks[last] == lastMask(b.width)
}

// KnownCount returns the number of known bits.
func (b BV) KnownCount() int {
	if b.spill == nil {
		return bits.OnesCount64(b.k[0]) + bits.OnesCount64(b.k[1])
	}
	_, ks := b.ws()
	n := 0
	for _, k := range ks {
		n += bits.OnesCount64(k)
	}
	return n
}

// Uint64 returns the value if the vector is fully known and fits in 64
// bits; ok is false otherwise.
func (b BV) Uint64() (v uint64, ok bool) {
	if b.width > wordBits || b.k[0] != lowMask(b.width) {
		return 0, false
	}
	return b.v[0], true
}

// Equal reports whether a and b have identical width and trits.
func (b BV) Equal(o BV) bool {
	if b.width != o.width {
		return false
	}
	if b.spill == nil {
		return b.v == o.v && b.k == o.k
	}
	for i, w := range b.spill {
		if w != o.spill[i] {
			return false
		}
	}
	return true
}

// String renders the vector as a Verilog-style binary literal, e.g. "4'b10xx".
func (b BV) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d'b", b.width)
	for i := b.width - 1; i >= 0; i-- {
		sb.WriteString(b.getTrit(i).String())
	}
	if b.width == 0 {
		sb.WriteString("0")
	}
	return sb.String()
}

// Key returns a compact string usable as a map key (state hashing for
// the extended state transition graph).
func (b BV) Key() string {
	nw := words(b.width)
	buf := make([]byte, 0, nw*16+2)
	for i := 0; i < nw; i++ {
		v, k := b.word(i)
		for s := 0; s < 8; s++ {
			buf = append(buf, byte(v>>(8*s)))
		}
		for s := 0; s < 8; s++ {
			buf = append(buf, byte(k>>(8*s)))
		}
	}
	return string(buf)
}

// normalize clears val bits that are not known and bits beyond width,
// restoring the canonical representation invariant.
func (b *BV) normalize() {
	if b.small() {
		m := lowMask(b.width)
		b.k[0] &= m
		b.v[0] &= b.k[0]
		return
	}
	vs, ks := b.ws()
	for i := range vs {
		vs[i] &= ks[i]
	}
	m := lastMask(b.width)
	vs[len(vs)-1] &= m
	ks[len(ks)-1] &= m
}

// Min returns the smallest fully-known vector in the cube (every x set
// to 0). Interpreting vectors as unsigned integers.
func (b BV) Min() BV {
	if b.small() {
		return single(b.width, b.v[0], lowMask(b.width))
	}
	c := b.Clone()
	_, ks := c.ws()
	for i := range ks {
		ks[i] = ^uint64(0)
	}
	c.normalize()
	return c
}

// Max returns the largest fully-known vector in the cube (every x set to 1).
func (b BV) Max() BV {
	if b.small() {
		m := lowMask(b.width)
		return single(b.width, (b.v[0]|^b.k[0])&m, m)
	}
	c := b.Clone()
	vs, ks := c.ws()
	for i := range vs {
		vs[i] |= ^ks[i]
		ks[i] = ^uint64(0)
	}
	c.normalize()
	return c
}

// MinUint64 returns Min as a uint64; only valid for width <= 64.
func (b BV) MinUint64() uint64 {
	if b.width > wordBits {
		panic("bv: MinUint64 on wide vector")
	}
	return b.v[0]
}

// MaxUint64 returns Max as a uint64; only valid for width <= 64.
func (b BV) MaxUint64() uint64 {
	if b.width > wordBits {
		panic("bv: MaxUint64 on wide vector")
	}
	return b.v[0] | (^b.k[0] & lowMask(b.width))
}

// Cmp compares two fully-known vectors of equal width as unsigned
// integers, returning -1, 0 or +1. It panics if either has unknown bits.
func (b BV) Cmp(o BV) int {
	if b.width != o.width {
		panic("bv: Cmp width mismatch")
	}
	if !b.IsFullyKnown() || !o.IsFullyKnown() {
		panic("bv: Cmp on partially-known vectors")
	}
	bvs, _ := b.ws()
	ovs, _ := o.ws()
	for i := len(bvs) - 1; i >= 0; i-- {
		if bvs[i] != ovs[i] {
			if bvs[i] < ovs[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Intersect returns the cube intersection of b and o: the set of
// fully-known vectors contained in both. ok is false (and the returned
// vector meaningless) when the cubes are disjoint, i.e. some bit is
// known 0 in one and known 1 in the other.
func (b BV) Intersect(o BV) (BV, bool) {
	if b.width != o.width {
		panic("bv: Intersect width mismatch")
	}
	if b.small() {
		if b.k[0]&o.k[0]&(b.v[0]^o.v[0]) != 0 {
			return BV{}, false
		}
		return single(b.width, b.v[0]|o.v[0], b.k[0]|o.k[0]), true
	}
	c := NewX(b.width)
	cvs, cks := c.ws()
	bvs, bks := b.ws()
	ovs, oks := o.ws()
	for i := range cvs {
		if bks[i]&oks[i]&(bvs[i]^ovs[i]) != 0 {
			return BV{}, false
		}
		cks[i] = bks[i] | oks[i]
		cvs[i] = bvs[i] | ovs[i]
	}
	return c, true
}

// Union returns the smallest cube containing both b and o: bits keep
// their value where both agree and are known, and become x elsewhere.
func (b BV) Union(o BV) BV {
	if b.width != o.width {
		panic("bv: Union width mismatch")
	}
	if b.small() {
		agree := b.k[0] & o.k[0] & ^(b.v[0] ^ o.v[0])
		return single(b.width, b.v[0]&agree, agree)
	}
	c := NewX(b.width)
	cvs, cks := c.ws()
	bvs, bks := b.ws()
	ovs, oks := o.ws()
	for i := range cvs {
		agree := bks[i] & oks[i] & ^(bvs[i] ^ ovs[i])
		cks[i] = agree
		cvs[i] = bvs[i] & agree
	}
	return c
}

// Covers reports whether cube b contains cube o (every vector in o is
// in b); equivalently, every known bit of b is known and equal in o.
func (b BV) Covers(o BV) bool {
	if b.width != o.width {
		panic("bv: Covers width mismatch")
	}
	if b.small() {
		return b.k[0]&^o.k[0] == 0 && b.k[0]&(b.v[0]^o.v[0]) == 0
	}
	bvs, bks := b.ws()
	ovs, oks := o.ws()
	for i := range bvs {
		if bks[i]&^oks[i] != 0 || bks[i]&(bvs[i]^ovs[i]) != 0 {
			return false
		}
	}
	return true
}

// Refine merges the known bits of o into b, the fundamental implication
// step. changed reports whether any new bit became known; ok is false
// on conflict (a bit known with opposite values).
func (b BV) Refine(o BV) (r BV, changed, ok bool) {
	if b.width != o.width {
		panic("bv: Refine width mismatch")
	}
	r, ok = b.Intersect(o)
	if !ok {
		return BV{}, false, false
	}
	return r, r.KnownCount() != b.KnownCount(), true
}

// Contains reports whether the fully-known vector v (given as uint64,
// width <= 64) lies in cube b.
func (b BV) Contains(v uint64) bool {
	if b.width > wordBits {
		panic("bv: Contains on wide vector")
	}
	return (v^b.v[0])&b.k[0] == 0
}

// CountSolutions returns the number of fully-known vectors in the cube,
// i.e. 2^(number of x bits). It saturates at 2^62 to avoid overflow.
func (b BV) CountSolutions() uint64 {
	n := b.width - b.KnownCount()
	if n >= 62 {
		return 1 << 62
	}
	return 1 << uint(n)
}

// Concat returns the concatenation {hi, lo} — hi occupies the most
// significant bits of the result.
func Concat(hi, lo BV) BV {
	c := NewX(hi.width + lo.width)
	blit(&c, 0, lo, 0, lo.width)
	blit(&c, lo.width, hi, 0, hi.width)
	return c
}

// Slice returns bits [lo, hi] inclusive as a new vector of width hi-lo+1.
func (b BV) Slice(hi, lo int) BV {
	if lo < 0 || hi >= b.width || hi < lo {
		panic(fmt.Sprintf("bv: bad slice [%d:%d] of width %d", hi, lo, b.width))
	}
	c := NewX(hi - lo + 1)
	blit(&c, 0, b, lo, hi-lo+1)
	return c
}

// Deposit returns an all-x vector of the given width whose bits
// [at, at+n) hold the n bits of src starting at srcLo: the
// back-implication of a slice, shift or zero-extension onto its input,
// built with one word-level copy.
func Deposit(width, at int, src BV, srcLo, n int) BV {
	if at < 0 || srcLo < 0 || n < 0 || at+n > width || srcLo+n > src.width {
		panic(fmt.Sprintf("bv: bad deposit of bits [%d, %d) of width %d at %d of width %d",
			srcLo, srcLo+n, src.width, at, width))
	}
	c := NewX(width)
	blit(&c, at, src, srcLo, n)
	return c
}

// HasOneIn reports whether any of the bits [lo, lo+n) is known 1.
func (b BV) HasOneIn(lo, n int) bool {
	if lo < 0 || n < 0 || lo+n > b.width {
		panic(fmt.Sprintf("bv: bad range [%d, %d) of width %d", lo, lo+n, b.width))
	}
	for n > 0 {
		c := min(wordBits, n)
		if v, _ := b.bitsAt(lo); v&lowMask(c) != 0 {
			return true
		}
		lo, n = lo+c, n-c
	}
	return false
}

// Zext zero-extends (or truncates) b to the given width. Truncation
// drops high bits; extension adds known-0 bits.
func (b BV) Zext(width int) BV {
	n := min(b.width, width)
	c := NewX(width)
	blit(&c, 0, b, 0, n)
	c.knownZero(n, width-n)
	return c
}
