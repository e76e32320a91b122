package bv

import (
	"math/rand"
	"testing"
	"unsafe"
)

// The inline small-vector representation must make every hot operation
// on single-word (≤64-bit) vectors allocation-free: the ATPG engine's
// implication loop leans on that to touch the heap zero times per pass.

var sinkBV BV
var sinkTrit Trit
var sinkBool bool
var sinkWord uint64

func TestSmallOpsZeroAlloc(t *testing.T) {
	a := MustParse("16'b10xx_01xx_10x1_0x10")
	b := MustParse("16'b1xx0_011x_10xx_0110")
	one := FromUint64(16, 0x1234)
	lo := FromUint64(16, 100)
	hi := FromUint64(16, 30000)
	a64 := FromUint64(64, 0xdeadbeefcafebabe)
	b64 := MustParse("64'hxx_xxxx_xxxx_dead_beef")
	ops := map[string]func(){
		"NewX":       func() { sinkBV = NewX(64) },
		"FromUint64": func() { sinkBV = FromUint64(64, 42) },
		"Clone":      func() { sinkBV = a.Clone() },
		"WithBit":    func() { sinkBV = a.WithBit(3, One) },
		"Not":        func() { sinkBV = a.Not() },
		"And":        func() { sinkBV = a.And(b) },
		"Or":         func() { sinkBV = a.Or(b) },
		"Xor":        func() { sinkBV = a.Xor(b) },
		"Add":        func() { sinkBV = a.Add(b) },
		"Add64":      func() { sinkBV = a64.Add(b64) },
		"Sub":        func() { sinkBV = a.Sub(b) },
		"SubBorrow":  func() { sinkBV, sinkTrit = a.SubBorrow(b) },
		"Mul":        func() { sinkBV = one.Mul(one) },
		"Shl":        func() { sinkBV = a.Shl(FromUint64(16, 3)) },
		"Shr":        func() { sinkBV = a.Shr(FromUint64(16, 3)) },
		"Intersect":  func() { sinkBV, sinkBool = a.Intersect(b) },
		"Union":      func() { sinkBV = a.Union(b) },
		"Refine":     func() { sinkBV, _, sinkBool = a.Refine(b) },
		"RefineScan": func() { sinkBool, _ = a.RefineScan(b) },
		"Covers":     func() { sinkBool = a.Covers(b) },
		"Min":        func() { sinkBV = a.Min() },
		"Max":        func() { sinkBV = a.Max() },
		"RedAnd":     func() { sinkBV = a.RedAnd() },
		"RedOr":      func() { sinkBV = a.RedOr() },
		"RedXor":     func() { sinkBV = a.RedXor() },
		"LtThree":    func() { sinkTrit = LtThree(a, b) },
		"EqThree":    func() { sinkTrit = EqThree(a, b) },
		"Concat":     func() { sinkBV = Concat(a, b) },
		"Slice":      func() { sinkBV = a.Slice(11, 4) },
		"Zext":       func() { sinkBV = a.Zext(32) },
		"Tighten":    func() { sinkBV, sinkBool = a.TightenToRange(lo, hi) },
		"BackAnd":    func() { sinkBV = BackAnd(a, b) },
		"BackOr":     func() { sinkBV = BackOr(a, b) },
		"BackXor":    func() { sinkBV = BackXor(a, b) },
		"BackNot":    func() { sinkBV = BackNot(a) },
		"BackZext":   func() { sinkBV = BackZext(a, 12) },
		"Deposit":    func() { sinkBV = Deposit(64, 40, a, 2, 12) },
		"HasOneIn":   func() { sinkBool = a.HasOneIn(3, 9) },
		"DeltaKnown": func() { sinkWord = DeltaKnown(a, b) },
	}
	for name, fn := range ops {
		if raceEnabled {
			fn() // still exercise the op under the race detector
			continue
		}
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s: %.2f allocs/op on single-word vectors, want 0", name, got)
		}
	}
}

// TestBVSize pins the struct at 64 bytes: the width, two inline
// (val, known) word pairs and the spill slice header. The engine's
// value tables and trail hold one per signal instance and refinement.
func TestBVSize(t *testing.T) {
	if got := unsafe.Sizeof(BV{}); got > 64 {
		t.Errorf("bv.BV is %d bytes, want <= 64", got)
	}
}

// TestWideOpsAllocOnlyResult pins the wide kernels' allocations: up to
// 128 bits a vector is inline, so a 96-bit kernel allocates nothing;
// past 128 bits (152 here) a kernel allocates only its result's spill
// storage. A per-bit rebuild through WithBit clones would allocate per
// bit.
func TestWideOpsAllocOnlyResult(t *testing.T) {
	for _, c := range []struct {
		width int
		want  float64
	}{{96, 0}, {152, 2}} {
		w := c.width
		a := FromUint64(64, 0x0123_4567_89ab_cdef).Zext(w).WithBit(w-3, X).WithBit(w-40, One).WithBit(9, X)
		b := Ones(w).WithBit(70, X).WithBit(5, X)
		half := MustParse("48'h12x4_5678_9abc").Zext(w / 2)
		ops := map[string]func(){
			"Add":       func() { sinkBV = a.Add(b) },
			"Sub":       func() { sinkBV = a.Sub(b) },
			"SubBorrow": func() { sinkBV, sinkTrit = a.SubBorrow(b) },
			"And":       func() { sinkBV = a.And(b) },
			"Intersect": func() { sinkBV, sinkBool = a.Intersect(b) },
			"Refine":    func() { sinkBV, _, sinkBool = a.Refine(b) },
			"Slice":     func() { sinkBV = a.Slice(w-6, 3) },
			"Concat":    func() { sinkBV = Concat(half, half) },
			"Zext":      func() { sinkBV = half.Zext(w) },
			"Deposit":   func() { sinkBV = Deposit(w, 17, a, 5, 70) },
			"BackAnd":   func() { sinkBV = BackAnd(a, b) },
			"BackZext":  func() { sinkBV = BackZext(a, w-16) },
			"RedAnd":    func() { sinkBV = a.RedAnd() },
			"HasOneIn":  func() { sinkBool = a.HasOneIn(9, w-16) },
		}
		for name, fn := range ops {
			if raceEnabled {
				fn()
				continue
			}
			want := c.want
			if name == "RedAnd" || name == "HasOneIn" {
				want = 0 // 1-bit or boolean result: nothing to allocate
			}
			if got := testing.AllocsPerRun(100, fn); got > want {
				t.Errorf("%s: %.2f allocs/op on %d-bit vectors, want <= %.0f", name, got, w, want)
			}
		}
	}
}

func TestInPlaceVariantsZeroAllocWide(t *testing.T) {
	// Spilled vectors allocate on construction, but the in-place
	// variants must reuse the receiver's spill storage.
	for _, w := range []int{100, 200} {
		a := NewX(w)
		b := Ones(w).WithBit(70, X)
		dst := NewX(w)
		ops := map[string]func(){
			"RefineInPlace": func() { _, _ = a.RefineInPlace(b) },
			"UnionInPlace":  func() { a.UnionInPlace(b) },
			"AndInto":       func() { AndInto(&dst, a, b) },
			"OrInto":        func() { OrInto(&dst, a, b) },
			"XorInto":       func() { XorInto(&dst, a, b) },
			"NotInto":       func() { NotInto(&dst, a) },
		}
		for name, fn := range ops {
			fn() // warm any one-time growth
			if raceEnabled {
				continue
			}
			if got := testing.AllocsPerRun(100, fn); got != 0 {
				t.Errorf("%s: %.2f allocs/op at width %d, want 0", name, got, w)
			}
		}
	}
}

// TestIntoKernelsMatchImmutable checks the destination-reuse kernels
// against the immutable ops on random vectors, both small and wide,
// including the documented dst-aliases-operand case.
func TestIntoKernelsMatchImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, w := range []int{1, 16, 64, 65, 100, 128, 129, 200} {
		for trial := 0; trial < 200; trial++ {
			a, b := randCube(rng, w), randCube(rng, w)
			dst := randCube(rng, w) // pre-populated garbage to overwrite
			check := func(name string, got, want BV) {
				t.Helper()
				if !got.Equal(want) {
					t.Fatalf("w=%d %s(%v, %v) = %v, want %v", w, name, a, b, got, want)
				}
			}
			AndInto(&dst, a, b)
			check("AndInto", dst, a.And(b))
			OrInto(&dst, a, b)
			check("OrInto", dst, a.Or(b))
			XorInto(&dst, a, b)
			check("XorInto", dst, a.Xor(b))
			NotInto(&dst, a)
			check("NotInto", dst, a.Not())
			// Aliased forms: dst is the first operand's own storage.
			al := a.Clone()
			AndInto(&al, al, b)
			check("AndInto/alias", al, a.And(b))
			al = a.Clone()
			NotInto(&al, al)
			check("NotInto/alias", al, a.Not())
			al = a.Clone()
			if al.IntersectInPlace(b) {
				want, _ := a.Intersect(b)
				check("IntersectInPlace", al, want)
			} else if _, ok := a.Intersect(b); ok {
				t.Fatalf("w=%d IntersectInPlace(%v, %v) reported disjoint, Intersect succeeds", w, a, b)
			}
			al = a.Clone()
			al.UnionInPlace(b)
			check("UnionInPlace", al, a.Union(b))
		}
	}
}
