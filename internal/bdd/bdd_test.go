package bdd

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func TestBasicOps(t *testing.T) {
	m := New(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	ab := m.And(a, b)
	if m.Eval(ab, func(v int) bool { return true }) != true {
		t.Error("a∧b under all-true")
	}
	if m.Eval(ab, func(v int) bool { return v != 1 }) != false {
		t.Error("a∧b with b=0")
	}
	or := m.Or(ab, c)
	if !m.Eval(or, func(v int) bool { return v == 2 }) {
		t.Error("(a∧b)∨c with only c")
	}
	if m.Not(m.Not(a)) != a {
		t.Error("double negation not canonical")
	}
	if m.Xor(a, a) != False {
		t.Error("a⊕a should be False")
	}
	if m.And(a, m.Not(a)) != False {
		t.Error("a∧¬a should be False")
	}
	if m.Or(a, m.Not(a)) != True {
		t.Error("a∨¬a should be True")
	}
}

func TestCanonicity(t *testing.T) {
	m := New(4)
	// Build the same function two ways; refs must be identical.
	a, b := m.Var(0), m.Var(1)
	f1 := m.Or(m.And(a, b), m.And(m.Not(a), b))
	f2 := b
	if f1 != f2 {
		t.Errorf("ab + ¬ab should reduce to b: %d vs %d", f1, f2)
	}
	g1 := m.Ite(a, b, m.Not(b))
	g2 := m.Xnor(a, b)
	if g1 != g2 {
		t.Error("ite(a,b,¬b) should equal a↔b")
	}
}

// cacheConfigs are the computed tables the randomized tests run under:
// the default one, and a one-slot table on which every store evicts
// the previous entry, so every result is recomputed from the unique
// table whenever it is needed again.
var cacheConfigs = []struct {
	name  string
	setup func(m *Manager)
}{
	{"default", func(m *Manager) {}},
	{"one-slot", func(m *Manager) { m.cache = make([]cacheEntry, 1) }},
}

func TestRandomAgainstTruthTable(t *testing.T) {
	for _, c := range cacheConfigs {
		t.Run(c.name, func(t *testing.T) { randomAgainstTruthTable(t, c.setup) })
	}
}

func randomAgainstTruthTable(t *testing.T, setup func(*Manager)) {
	r := rand.New(rand.NewSource(17))
	n := 5
	all := []bool{true, true, true, true, true}
	low := []bool{true, true, true, false, false}
	for trial := 0; trial < 60; trial++ {
		m := New(n)
		setup(m)
		// Random expression tree over n vars, evaluated both ways.
		type fn struct {
			ref Ref
			tt  uint32 // truth table over 2^5 = 32 rows
		}
		var leaves []fn
		for v := 0; v < n; v++ {
			var tt uint32
			for row := 0; row < 32; row++ {
				if row>>uint(v)&1 == 1 {
					tt |= 1 << uint(row)
				}
			}
			leaves = append(leaves, fn{m.Var(v), tt})
		}
		for step := 0; step < 12; step++ {
			a := leaves[r.Intn(len(leaves))]
			b := leaves[r.Intn(len(leaves))]
			var nf fn
			switch r.Intn(4) {
			case 0:
				nf = fn{m.And(a.ref, b.ref), a.tt & b.tt}
			case 1:
				nf = fn{m.Or(a.ref, b.ref), a.tt | b.tt}
			case 2:
				nf = fn{m.Xor(a.ref, b.ref), a.tt ^ b.tt}
			case 3:
				nf = fn{m.Not(a.ref), ^a.tt}
			}
			leaves = append(leaves, nf)
		}
		f := leaves[len(leaves)-1]
		for row := 0; row < 32; row++ {
			want := f.tt>>uint(row)&1 == 1
			got := m.Eval(f.ref, func(v int) bool { return row>>uint(v)&1 == 1 })
			if got != want {
				t.Fatalf("trial %d row %d: bdd=%v tt=%v", trial, row, got, want)
			}
		}
		// SatCount must match the popcount of the truth table.
		pc := 0
		for row := 0; row < 32; row++ {
			if f.tt>>uint(row)&1 == 1 {
				pc++
			}
		}
		if got := m.SatCount(f.ref, all); got != float64(pc) {
			t.Fatalf("trial %d: satcount=%v, want %d", trial, got, pc)
		}
		// Counting over variables 0-2 only, after quantifying 3-4
		// away: the assignments of the low three variables that some
		// value of the high two extends to a satisfying row.
		proj := m.Exists(f.ref, func(v int) bool { return !low[v] })
		pc = 0
		for row := 0; row < 8; row++ {
			if f.tt>>uint(row)&0x01010101 != 0 {
				pc++
			}
		}
		if got := m.SatCount(proj, low); got != float64(pc) {
			t.Fatalf("trial %d: satcount over vars 0-2 = %v, want %d", trial, got, pc)
		}
	}
}

func TestExists(t *testing.T) {
	m := New(3)
	a, b := m.Var(0), m.Var(1)
	f := m.And(a, b)
	// ∃a. a∧b = b
	g := m.Exists(f, func(v int) bool { return v == 0 })
	if g != b {
		t.Errorf("∃a.(a∧b) = %d, want b=%d", g, b)
	}
	// ∃a,b. a∧b = true
	g = m.Exists(f, func(v int) bool { return v <= 1 })
	if g != True {
		t.Error("∃a,b.(a∧b) should be True")
	}
	// ∃c (absent) is identity.
	if m.Exists(f, func(v int) bool { return v == 2 }) != f {
		t.Error("quantifying an absent variable changed f")
	}
}

func TestRename(t *testing.T) {
	m := New(4)
	// f over odd vars 1,3; rename to 0,2 (monotone).
	f := m.And(m.Var(1), m.Var(3))
	g := m.Rename(f, func(v int) int { return v - 1 })
	want := m.And(m.Var(0), m.Var(2))
	if g != want {
		t.Errorf("rename result %d, want %d", g, want)
	}
}

// TestMinterms: the enumeration yields exactly the satisfying rows,
// in lexicographic order, with variables outside f's support expanded,
// and stops when fn returns false.
func TestMinterms(t *testing.T) {
	m := New(4)
	f := m.Or(m.And(m.Var(0), m.NVar(2)), m.Var(3)) // vars 0, 2, 3
	vars := []int{0, 1, 2, 3}
	var got []int
	m.Minterms(f, vars, func(bits []bool) bool {
		row := 0
		for k, b := range bits {
			if b {
				row |= 1 << k
			}
		}
		got = append(got, row)
		return true
	})
	var want []int
	// Lexicographic over vars with vars[0] most significant.
	for lex := 0; lex < 16; lex++ {
		row := 0
		for k := range vars {
			row |= (lex >> (3 - k) & 1) << k
		}
		if m.Eval(f, func(v int) bool { return row>>v&1 == 1 }) {
			want = append(want, row)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("minterms %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("minterms %v, want %v", got, want)
		}
	}
	n := 0
	m.Minterms(f, vars, func([]bool) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("enumeration went on for %d calls after fn returned false at 3", n)
	}
}

func TestNodeLimit(t *testing.T) {
	m := New(20)
	m.MaxNodes = 50
	defer func() {
		if recover() != ErrNodeLimit {
			t.Error("expected ErrNodeLimit panic")
		}
	}()
	// Build something big enough to blow the limit.
	f := True
	for i := 0; i < 20; i += 2 {
		f = m.And(f, m.Xor(m.Var(i), m.Var(i+1)))
	}
	_ = f
}

func TestNumNodesGrows(t *testing.T) {
	m := New(8)
	before := m.NumNodes()
	f := True
	for i := 0; i < 8; i++ {
		f = m.And(f, m.Var(i))
	}
	if m.NumNodes() <= before {
		t.Error("node count did not grow")
	}
	if m.NumVars() != 8 {
		t.Error("NumVars wrong")
	}
}

// TestAndExistsMatchesComposed cross-checks the one-pass relational
// product against the composed And-then-Exists on random functions:
// same manager, same quantifier set, refs must be identical (both are
// canonical).
func TestAndExistsMatchesComposed(t *testing.T) {
	for _, c := range cacheConfigs {
		t.Run(c.name, func(t *testing.T) { andExistsMatchesComposed(t, c.setup) })
	}
}

func andExistsMatchesComposed(t *testing.T, setup func(*Manager)) {
	r := rand.New(rand.NewSource(41))
	n := 6
	for trial := 0; trial < 80; trial++ {
		m := New(n)
		setup(m)
		rnd := func() Ref {
			f := True
			if r.Intn(2) == 0 {
				f = False
			}
			for i := 0; i < 4; i++ {
				v := m.Var(r.Intn(n))
				if r.Intn(2) == 0 {
					v = m.Not(v)
				}
				switch r.Intn(3) {
				case 0:
					f = m.And(f, v)
				case 1:
					f = m.Or(f, v)
				default:
					f = m.Xor(f, v)
				}
			}
			return f
		}
		f, g := rnd(), rnd()
		qmask := r.Intn(1 << n)
		quant := func(v int) bool { return qmask>>uint(v)&1 == 1 }
		got := m.AndExists(f, g, quant)
		want := m.Exists(m.And(f, g), quant)
		if got != want {
			t.Fatalf("trial %d: AndExists=%d, Exists(And)=%d (qmask=%b)", trial, got, want, qmask)
		}
	}
}

func TestSupport(t *testing.T) {
	m := New(5)
	f := m.And(m.Var(0), m.Xor(m.Var(2), m.Var(4)))
	mark := make([]bool, 5)
	m.Support(f, mark)
	want := []bool{true, false, true, false, true}
	for v := range mark {
		if mark[v] != want[v] {
			t.Errorf("support[%d] = %v, want %v", v, mark[v], want[v])
		}
	}
	// Marks accumulate across calls (callers reset between uses).
	m.Support(m.Var(1), mark)
	if !mark[1] || !mark[0] {
		t.Error("Support cleared marks instead of accumulating")
	}
	// Terminals have empty support.
	clear := make([]bool, 5)
	m.Support(True, clear)
	for v, in := range clear {
		if in {
			t.Errorf("True has var %d in support", v)
		}
	}
}

func TestSize(t *testing.T) {
	m := New(4)
	if m.Size(True) != 0 || m.Size(False) != 0 {
		t.Error("terminals must have size 0")
	}
	a := m.Var(0)
	if m.Size(a) != 1 {
		t.Errorf("Size(var) = %d, want 1", m.Size(a))
	}
	// A conjunction chain is one node per variable.
	f := True
	for v := 0; v < 4; v++ {
		f = m.And(f, m.Var(v))
	}
	if m.Size(f) != 4 {
		t.Errorf("Size(a∧b∧c∧d) = %d, want 4", m.Size(f))
	}
	// Size counts distinct nodes, not paths: repeated calls agree and
	// shared subgraphs are not double-counted.
	g := m.Xor(m.Var(0), m.Var(1))
	s1 := m.Size(g)
	if s2 := m.Size(g); s1 != s2 {
		t.Errorf("Size unstable across calls: %d then %d", s1, s2)
	}
	if m.Size(m.Not(f)) != m.Size(f) {
		t.Error("complement changed the node count")
	}
}

// lessThan builds x < y for two vars-bit numbers with every x bit
// ordered above every y bit: the order that makes the comparator
// exponential, so a small vars gives a large node table.
func lessThan(m *Manager, vars int) Ref {
	lt := False
	for i := 0; i < vars; i++ {
		x, y := m.Var(i), m.Var(vars+i)
		lt = m.Or(m.And(m.Not(x), y), m.And(m.Xnor(x, y), lt))
	}
	return lt
}

var sinkManager *Manager

// TestNewFromSnapshotAllocs: a load reads the snapshot in place, so it
// allocates the same few objects whatever the snapshot's size, and the
// loaded managers share nothing mutable.
func TestNewFromSnapshotAllocs(t *testing.T) {
	for _, vars := range []int{4, 12} {
		m := New(2 * vars)
		f := lessThan(m, vars)
		s := m.Snapshot()
		if !raceEnabled {
			if got := testing.AllocsPerRun(5, func() { sinkManager = NewFromSnapshot(s) }); got > 3 {
				t.Errorf("%d-node snapshot: NewFromSnapshot made %v allocations, want at most 3",
					m.NumNodes(), got)
			}
		}
		// Two loads extended with different functions: neither sees
		// the other's nodes, and the snapshot's refs stay valid.
		a, b := NewFromSnapshot(s), NewFromSnapshot(s)
		fa := a.Xor(f, a.Var(2*vars-1))
		fb := b.And(f, b.Var(2*vars-1))
		if a.NumNodes() <= m.NumNodes() || b.NumNodes() <= m.NumNodes() {
			t.Fatalf("extending a loaded manager created no nodes")
		}
		r := rand.New(rand.NewSource(int64(vars)))
		for k := 0; k < 1024; k++ {
			row := r.Intn(1 << (2 * vars))
			asg := func(v int) bool { return row>>v&1 == 1 }
			want := m.Eval(f, asg)
			last := asg(2*vars - 1)
			if a.Eval(fa, asg) != (want != last) || b.Eval(fb, asg) != (want && last) ||
				a.Eval(f, asg) != want || b.Eval(f, asg) != want {
				t.Fatalf("%d vars, row %d: loaded managers disagree with the source", vars, row)
			}
		}
	}
}

// TestLoadBytesIndependentOfSize: a load allocates the same bytes for
// a snapshot of 891 nodes as for one of 114,683, since it copies
// neither the node slice nor the unique table.
func TestLoadBytesIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime perturbs allocation sizes")
	}
	// The fewest bytes per load over five batches: a batch may also
	// count an allocation the test runtime made meanwhile.
	const loads = 100
	var perLoad []uint64
	for _, vars := range []int{7, 14} {
		m := New(2 * vars)
		lessThan(m, vars)
		s := m.Snapshot()
		least := uint64(math.MaxUint64)
		for batch := 0; batch < 5; batch++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < loads; i++ {
				sinkManager = NewFromSnapshot(s)
			}
			runtime.ReadMemStats(&m1)
			least = min(least, (m1.TotalAlloc-m0.TotalAlloc)/loads)
		}
		perLoad = append(perLoad, least)
	}
	if perLoad[0] != perLoad[1] || perLoad[1] > 16<<10 {
		t.Errorf("a load allocated %d bytes from an 891-node snapshot and %d from a 114,683-node one, want the same, under 16 KB",
			perLoad[0], perLoad[1])
	}
}

// TestConcurrentLoadsExtendOneSnapshot: eight managers load one
// snapshot at once, and each extends it with a function of its own,
// past the first size of its own unique table, then quantifies it and
// reloads it from a snapshot of its own. Every result must match its
// truth table. The race job runs this: a write to the shared snapshot
// fails it there.
func TestConcurrentLoadsExtendOneSnapshot(t *testing.T) {
	const vars = 8 // x is variables 0-7, y is variables 8-15
	m := New(2 * vars)
	lt := lessThan(m, vars)
	s := m.Snapshot()
	less := func(row int) bool { return row&0xff < row>>vars }
	parity := func(row int) bool { return bits.OnesCount(uint(row))%2 == 1 }
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// f = (x < y) ⊕ parity of every variable but w; h = ∃w. f.
			mask := 0xffff &^ (1 << w)
			lm := NewFromSnapshot(s)
			p := False
			for v := 0; v < 2*vars; v++ {
				if mask>>v&1 == 1 {
					p = lm.Xor(p, lm.Var(v))
				}
			}
			f := lm.Xor(lt, p)
			h := lm.Exists(f, func(v int) bool { return v == w })
			if len(lm.unique) <= minUnique {
				t.Errorf("manager %d: own unique table never grew (%d nodes of its own)", w, len(lm.own))
				return
			}
			reloaded := NewFromSnapshot(lm.Snapshot())
			r := rand.New(rand.NewSource(int64(w)))
			for k := 0; k < 4096; k++ {
				row := r.Intn(1 << (2 * vars))
				asg := func(v int) bool { return row>>v&1 == 1 }
				wantF := less(row) != parity(row&mask)
				other := row ^ 1<<w
				wantH := wantF || less(other) != parity(other&mask)
				for _, x := range []*Manager{lm, reloaded} {
					if x.Eval(lt, asg) != less(row) || x.Eval(f, asg) != wantF || x.Eval(h, asg) != wantH {
						t.Errorf("manager %d, row %#x: results disagree with their truth tables", w, row)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestInterruptOnUniqueTableHits: an operation whose every node
// request finds an existing node still polls Interrupt. Rebuilding a
// function after the computed table is reset creates no node, so a
// poll placed only on node allocation would never fire.
func TestInterruptOnUniqueTableHits(t *testing.T) {
	const vars = 11
	m := New(2 * vars)
	f := lessThan(m, vars)
	nodes := m.NumNodes()
	m.cache = nil
	m.requests = 0
	if g := lessThan(m, vars); g != f || m.NumNodes() != nodes {
		t.Fatalf("rebuild gave %d with %d nodes, want %d with %d", g, m.NumNodes(), f, nodes)
	}
	if m.requests < 2*interruptInterval {
		t.Fatalf("rebuild made %d node requests; the test needs at least %d", m.requests, 2*interruptInterval)
	}
	m.cache = nil
	m.Interrupt = func() bool { return true }
	defer func() {
		if r := recover(); r != ErrInterrupted {
			t.Fatalf("recovered %v, want ErrInterrupted", r)
		}
		if m.NumNodes() != nodes {
			t.Errorf("interrupted rebuild changed the node count %d -> %d", nodes, m.NumNodes())
		}
	}()
	lessThan(m, vars)
	t.Fatal("rebuild ran to completion without observing Interrupt")
}

var sinkInt int

// TestSizeAllocsAfterGrowth: Size interleaved with node creation, the
// pattern of buildModel's cluster packing, allocates visited marks only
// when a walk first reaches a page of 4,096 refs, not on every call.
func TestSizeAllocsAfterGrowth(t *testing.T) {
	m := New(256)
	f, v := True, 0
	grow := func() {
		f = m.And(f, m.Var(v)) // v new nodes: every chain node changes
		v++
		sinkInt = m.Size(f)
	}
	for v < 32 {
		grow()
	}
	if raceEnabled {
		grow()
		return
	}
	if got := testing.AllocsPerRun(100, grow); got != 0 {
		t.Errorf("Size after growth: %v allocations per call, want amortized 0", got)
	}
}
