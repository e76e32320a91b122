// Package bdd implements reduced ordered binary decision diagrams
// (Bryant, paper ref. [12]) — the substrate of the BDD-based symbolic
// model checking baseline (internal/mc) whose memory behaviour §1 and
// §5 contrast with the ATPG approach. The node store has the classic
// package layout (Brace/Rudell/Bryant, "Efficient Implementation of a
// BDD Package", DAC 1990): a flat node slice, an open-addressed unique
// table over it, and one lossy computed table that memoizes every
// operation. None of the three holds a Go pointer, so the garbage
// collector never scans them. A manager loaded from a snapshot reads
// the snapshot's node slice and unique table in place and keeps only
// the nodes it creates, so a load costs the same whatever the
// snapshot's size.
package bdd

import (
	"fmt"
	"math"
	"slices"
)

// Ref is a node reference. Refs 0 and 1 are the constant terminals.
type Ref int32

// Terminal references.
const (
	False Ref = 0
	True  Ref = 1
)

const termLevel = int32(1 << 30)

type node struct {
	level  int32
	lo, hi Ref
}

// cacheEntry is one computed-table slot: r is the result of the
// operation tag applied to (f, g). No operation uses tag 0, so a
// zeroed slot is empty.
type cacheEntry struct {
	tag     uint32
	f, g, r Ref
}

// Computed-table tags. And, Or and Xor results hold for the manager's
// whole life, so each has one fixed tag at the top of the range.
// AndExists, Exists and Rename results hold only for one quantifier
// set or variable mapping, so every call of those draws a fresh tag
// from the bottom of the range; its entries stop matching when it
// returns, and nothing is ever cleared.
const (
	opAnd uint32 = math.MaxUint32 - iota
	opOr
	opXor
)

const (
	// minUnique is the size of a new manager's own unique table.
	minUnique = 1024
	// maxCacheSlots caps the computed table (16 MB).
	maxCacheSlots = 1 << 20
	// cacheWork is how many node requests per slot a computed table
	// serves before it doubles.
	cacheWork = 1
	// markPage is how many refs one page of walk's visited marks
	// covers.
	markPage = 1 << 12
)

// Manager owns the node pool. The zero value is not usable; call New
// or NewFromSnapshot.
type Manager struct {
	// base is the immutable store the manager extends: refs below
	// len(base.nodes) are its nodes, read in place and never written.
	base *Snapshot
	// own holds the nodes the manager created: own[i] has the ref
	// len(base.nodes)+i.
	own []node
	// unique is the open-addressed hash table (linear probing) over
	// own: a slot holds the Ref of an own node, or 0 when empty. Its
	// length is a power of two, at least twice len(own).
	unique []Ref
	// cache is the direct-mapped computed table, allocated on first
	// use at cacheSlots(len(unique)). A lost entry is recomputed, and
	// the recomputation finds only nodes that already exist: eviction
	// never changes which nodes are created, or in what order.
	cache []cacheEntry
	// cacheReqs counts the node requests since cache was allocated;
	// see poll.
	cacheReqs int
	lastTag   uint32
	nVars     int
	// MaxNodes bounds the node count (0 = unlimited); exceeding it
	// panics with ErrNodeLimit.
	MaxNodes int
	// Interrupt, when non-nil, is polled every interruptInterval node
	// requests, hits in the unique table included; returning true
	// panics with ErrInterrupted. Because the poll sits inside mk,
	// cancellation lands even in the middle of a single huge apply,
	// including one that only revisits nodes that already exist. The
	// model checker recovers the panic into an Unknown verdict.
	Interrupt func() bool
	requests  uint32
	// Generation-stamped visited marks and DFS stack of walk, reused
	// across calls (Size runs once per relational-product step). A
	// page of marks is allocated when a walk first reaches one of its
	// refs, so a walk over a few nodes of a large snapshot allocates
	// a few pages, not marks for the whole store.
	marks   []*[markPage]uint32
	markGen uint32
	stack   []Ref
}

// ErrNodeLimit is panicked (and recovered by the model checker) when
// MaxNodes is exceeded — the BDD blow-up signal.
var ErrNodeLimit = fmt.Errorf("bdd: node limit exceeded")

// ErrInterrupted is panicked (and recovered by the model checker) when
// Interrupt reports cancellation mid-operation.
var ErrInterrupted = fmt.Errorf("bdd: interrupted")

// interruptInterval is how many node requests pass between Interrupt
// polls: rare enough to stay off the profile, frequent enough that
// any operation (millions of requests per second) observes
// cancellation within microseconds.
const interruptInterval = 4096

// Snapshot is an immutable flat node store: the node slice and the
// unique table over it. Any number of managers may extend one snapshot
// concurrently; none of them writes it.
type Snapshot struct {
	nVars  int
	nodes  []node
	unique []Ref
}

// terminals is the snapshot every New manager extends: the two
// terminals and a one-slot unique table with nothing in it.
var terminals = &Snapshot{
	nodes:  []node{{level: termLevel}, {level: termLevel}},
	unique: make([]Ref, 1),
}

// New returns a manager with n variables (levels 0..n-1).
func New(n int) *Manager {
	m := NewFromSnapshot(terminals)
	m.nVars = n
	return m
}

// NewFromSnapshot returns a manager that extends s in place: it reads
// s's nodes and unique table without copying them and keeps the nodes
// it creates in its own store, so a load makes the same three small
// allocations whatever the size of s. Its computed table starts empty.
// This is how a compiled transition relation is shared across
// concurrent sessions: one immutable snapshot, one cheap private
// manager per session.
func NewFromSnapshot(s *Snapshot) *Manager {
	return &Manager{base: s, nVars: s.nVars, own: make([]node, 0, minUnique/2), unique: make([]Ref, minUnique)}
}

// NumNodes returns the number of allocated nodes (memory proxy): the
// snapshot's and the manager's own.
func (m *Manager) NumNodes() int { return len(m.base.nodes) + len(m.own) }

// Snapshot returns m's whole node store as one flat snapshot. Refs
// held against m index the same nodes in every manager loaded from it.
// A manager made by New hands over a clone of its unique table, which
// already indexes every non-terminal node; a loaded manager's store is
// rehashed.
func (m *Manager) Snapshot() *Snapshot {
	nodes := make([]node, 0, m.NumNodes())
	nodes = append(append(nodes, m.base.nodes...), m.own...)
	s := &Snapshot{nVars: m.nVars, nodes: nodes}
	if m.base == terminals {
		s.unique = slices.Clone(m.unique)
		return s
	}
	size := minUnique
	for 2*len(nodes) > size {
		size *= 2
	}
	s.unique = make([]Ref, size)
	for r, n := range nodes[2:] {
		place(s.unique, n, Ref(r+2))
	}
	return s
}

// NumVars returns the variable count.
func (m *Manager) NumVars() int { return m.nVars }

// hash3 mixes three 32-bit keys; all tables index with its low bits.
func hash3(a, b, c uint32) uint64 {
	h := uint64(a)*0x9E3779B97F4A7C15 ^ uint64(b)*0xC2B2AE3D27D4EB4F ^ uint64(c)*0x165667B19E3779F9
	return h ^ h>>32
}

// node returns the node of r.
func (m *Manager) node(r Ref) node {
	if nb := Ref(len(m.base.nodes)); r >= nb {
		return m.own[r-nb]
	}
	return m.base.nodes[r]
}

// find returns the ref of s's node (level, lo, hi), whose hash3 is h,
// or 0 if s has none.
func (s *Snapshot) find(h uint64, level int32, lo, hi Ref) Ref {
	mask := uint64(len(s.unique) - 1)
	for i := h & mask; s.unique[i] != 0; i = (i + 1) & mask {
		if r := s.unique[i]; s.nodes[r] == (node{level, lo, hi}) {
			return r
		}
	}
	return 0
}

// place puts r, the ref of n, in the first empty slot of n's probe
// sequence in the unique table t.
func place(t []Ref, n node, r Ref) {
	mask := uint64(len(t) - 1)
	i := hash3(uint32(n.level), uint32(n.lo), uint32(n.hi)) & mask
	for t[i] != 0 {
		i = (i + 1) & mask
	}
	t[i] = r
}

// mk returns the canonical node (level, lo, hi). A new node gets the
// next ref after every existing one, snapshot refs included, so a
// loaded manager creates the same nodes in the same order as the
// manager its snapshot came from would have.
func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	m.requests++
	if m.requests%interruptInterval == 0 {
		m.poll()
	}
	h := hash3(uint32(level), uint32(lo), uint32(hi))
	nb := Ref(len(m.base.nodes))
	// A node with a child of the manager's own cannot be in the
	// snapshot.
	if lo < nb && hi < nb {
		if r := m.base.find(h, level, lo, hi); r != 0 {
			return r
		}
	}
	mask := uint64(len(m.unique) - 1)
	i := h & mask
	for r := m.unique[i]; r != 0; r = m.unique[i] {
		if m.own[r-nb] == (node{level, lo, hi}) {
			return r
		}
		i = (i + 1) & mask
	}
	if m.MaxNodes > 0 && m.NumNodes() >= m.MaxNodes {
		panic(ErrNodeLimit)
	}
	r := nb + Ref(len(m.own))
	m.own = append(m.own, node{level: level, lo: lo, hi: hi})
	m.unique[i] = r
	if 2*len(m.own) > len(m.unique) {
		m.grow()
	}
	return r
}

// poll runs every interruptInterval node requests. It polls Interrupt,
// and it doubles the computed table, dropping its entries, once the
// table has served cacheWork requests per slot: a check that does
// little work keeps a small table, and one that does much gets a large
// one. The table stops growing at the size a flat copy of the whole
// store would give it: cacheSlots of the snapshot's unique table,
// doubled until it holds twice NumNodes. A table smaller than its
// starting size (set explicitly) never grows.
func (m *Manager) poll() {
	if m.Interrupt != nil && m.Interrupt() {
		panic(ErrInterrupted)
	}
	m.cacheReqs += interruptInterval
	n := len(m.cache)
	if n < cacheSlots(len(m.unique)) || m.cacheReqs <= cacheWork*n {
		return
	}
	flat := len(m.base.unique)
	for flat < 2*m.NumNodes() {
		flat *= 2
	}
	if n < cacheSlots(flat) {
		m.cache = make([]cacheEntry, 2*n)
		m.cacheReqs = 0
	}
}

// grow doubles the own unique table and reinserts every own node. It
// also reserves room for every node the new table can take before it
// grows again: left to append, a large node slice grows by a quarter
// at a time, and each step leaves the old array behind as garbage.
func (m *Manager) grow() {
	old := len(m.unique)
	m.unique = make([]Ref, 2*old)
	if cap(m.own) <= old {
		m.own = slices.Grow(m.own, old+1-len(m.own))
	}
	nb := Ref(len(m.base.nodes))
	for k, n := range m.own {
		place(m.unique, n, nb+Ref(k))
	}
	// A computed table sized for the old unique table is dropped and
	// reallocated at the new size on next use. One of any other size
	// (grown by poll, capped, or set explicitly) is kept.
	if len(m.cache) == cacheSlots(old) && len(m.cache) < maxCacheSlots {
		m.cache = nil
		m.cacheReqs = 0
	}
}

// cacheSlots sizes the computed table for a unique table: one slot per
// eight unique-table slots, a quarter to a half of the node count. The
// table's cost is memory stalls, and on the corpus a larger one kept
// few more results than it cost (arbiter24/p5, one slot per unique
// slot: 25% slower).
func cacheSlots(unique int) int { return min(unique/8, maxCacheSlots) }

// slot returns the computed-table slot of (tag, f, g).
func (m *Manager) slot(tag uint32, f, g Ref) *cacheEntry {
	if len(m.cache) == 0 {
		m.cache = make([]cacheEntry, cacheSlots(len(m.unique)))
	}
	return &m.cache[hash3(tag, uint32(f), uint32(g))&uint64(len(m.cache)-1)]
}

// lookup returns the cached result of (tag, f, g), if any.
func (m *Manager) lookup(tag uint32, f, g Ref) (Ref, bool) {
	e := m.slot(tag, f, g)
	return e.r, e.tag == tag && e.f == f && e.g == g
}

func (m *Manager) store(tag uint32, f, g, r Ref) {
	*m.slot(tag, f, g) = cacheEntry{tag: tag, f: f, g: g, r: r}
}

// callTag returns a computed-table tag no earlier call has used.
func (m *Manager) callTag() uint32 {
	m.lastTag++
	if m.lastTag == opXor {
		// Wrapped into the fixed tags: forget every entry, so a
		// reused tag cannot match an old call's results.
		clear(m.cache)
		m.lastTag = 1
	}
	return m.lastTag
}

// Var returns the BDD of variable v.
func (m *Manager) Var(v int) Ref {
	if v < 0 || v >= m.nVars {
		panic("bdd: variable out of range")
	}
	return m.mk(int32(v), False, True)
}

// NVar returns the BDD of ¬v.
func (m *Manager) NVar(v int) Ref {
	return m.mk(int32(v), True, False)
}

// Const returns the terminal of v.
func (m *Manager) Const(v bool) Ref {
	if v {
		return True
	}
	return False
}

// Not returns ¬f.
func (m *Manager) Not(f Ref) Ref { return m.Xor(f, True) }

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) Ref { return m.applyOp(opAnd, f, g) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) Ref { return m.applyOp(opOr, f, g) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref { return m.applyOp(opXor, f, g) }

// Xnor returns f ↔ g.
func (m *Manager) Xnor(f, g Ref) Ref { return m.Not(m.Xor(f, g)) }

// Ite returns if-then-else(f, g, h).
func (m *Manager) Ite(f, g, h Ref) Ref {
	return m.Or(m.And(f, g), m.And(m.Not(f), h))
}

func terminalApply(op uint32, f, g Ref) (Ref, bool) {
	switch op {
	case opAnd:
		if f == False || g == False {
			return False, true
		}
		if f == True {
			return g, true
		}
		if g == True {
			return f, true
		}
		if f == g {
			return f, true
		}
	case opOr:
		if f == True || g == True {
			return True, true
		}
		if f == False {
			return g, true
		}
		if g == False {
			return f, true
		}
		if f == g {
			return f, true
		}
	case opXor:
		if f == g {
			return False, true
		}
		if f == False {
			return g, true
		}
		if g == False {
			return f, true
		}
	}
	return 0, false
}

// cofactors returns the top level of f and g and their cofactors with
// respect to it.
func (m *Manager) cofactors(f, g Ref) (top int32, f0, f1, g0, g1 Ref) {
	nf, ng := m.node(f), m.node(g)
	top = min(nf.level, ng.level)
	f0, f1, g0, g1 = f, f, g, g
	if nf.level == top {
		f0, f1 = nf.lo, nf.hi
	}
	if ng.level == top {
		g0, g1 = ng.lo, ng.hi
	}
	return top, f0, f1, g0, g1
}

func (m *Manager) applyOp(op uint32, f, g Ref) Ref {
	if r, ok := terminalApply(op, f, g); ok {
		return r
	}
	// Normalize operand order for the commutative cache.
	if f > g {
		f, g = g, f
	}
	if r, ok := m.lookup(op, f, g); ok {
		return r
	}
	top, f0, f1, g0, g1 := m.cofactors(f, g)
	r := m.mk(top, m.applyOp(op, f0, g0), m.applyOp(op, f1, g1))
	m.store(op, f, g, r)
	return r
}

// AndExists returns ∃Q. f ∧ g where Q is the set of variables for
// which quant returns true — the relational product of symbolic image
// computation (Burch/Clarke/Long). Computing the conjunction and the
// quantification in one recursion never materializes the full product
// f ∧ g: whenever the top variable is quantified, a True low branch
// short-circuits the high branch entirely.
func (m *Manager) AndExists(f, g Ref, quant func(v int) bool) Ref {
	return m.andExists(m.callTag(), f, g, quant)
}

// andExists is AndExists under the call's tag. Its entries have
// f < g, both non-terminal; the Exists calls it makes share the tag
// with g = False, so one call memoizes both.
func (m *Manager) andExists(tag uint32, f, g Ref, quant func(v int) bool) Ref {
	if f == False || g == False {
		return False
	}
	if f == True && g == True {
		return True
	}
	if f == True {
		return m.exists(tag, g, quant)
	}
	if g == True {
		return m.exists(tag, f, quant)
	}
	if f > g {
		f, g = g, f
	}
	if r, ok := m.lookup(tag, f, g); ok {
		return r
	}
	top, f0, f1, g0, g1 := m.cofactors(f, g)
	var r Ref
	if quant(int(top)) {
		r = m.andExists(tag, f0, g0, quant)
		if r != True {
			r = m.Or(r, m.andExists(tag, f1, g1, quant))
		}
	} else {
		r = m.mk(top, m.andExists(tag, f0, g0, quant), m.andExists(tag, f1, g1, quant))
	}
	m.store(tag, f, g, r)
	return r
}

// walk calls visit once for each non-terminal node of f.
func (m *Manager) walk(f Ref, visit func(node)) {
	if f == True || f == False {
		return
	}
	// Generation-stamped marks: no clearing per call.
	if m.markGen == math.MaxUint32 {
		m.marks, m.markGen = nil, 0
	}
	m.markGen++
	m.stack = append(m.stack[:0], f)
	m.mark(f)
	for len(m.stack) > 0 {
		n := m.node(m.stack[len(m.stack)-1])
		m.stack = m.stack[:len(m.stack)-1]
		visit(n)
		if n.lo > True && m.mark(n.lo) {
			m.stack = append(m.stack, n.lo)
		}
		if n.hi > True && m.mark(n.hi) {
			m.stack = append(m.stack, n.hi)
		}
	}
}

// mark marks r visited by the current walk and reports whether it was
// unvisited.
func (m *Manager) mark(r Ref) bool {
	p := int(r) / markPage
	if p >= len(m.marks) {
		m.marks = slices.Grow(m.marks, p+1-len(m.marks))[:p+1]
	}
	if m.marks[p] == nil {
		m.marks[p] = new([markPage]uint32)
	}
	if mk := &m.marks[p][r%markPage]; *mk != m.markGen {
		*mk = m.markGen
		return true
	}
	return false
}

// Support marks the variables f depends on in mark (which must have
// at least NumVars entries). Entries for variables not in f's support
// are left untouched, so one slice can accumulate the union support
// of several functions.
func (m *Manager) Support(f Ref, mark []bool) {
	m.walk(f, func(n node) { mark[n.level] = true })
}

// Size returns the number of non-terminal nodes in f — the memory
// cost of that one function, as opposed to NumNodes, the manager-wide
// allocation count.
func (m *Manager) Size(f Ref) int {
	count := 0
	m.walk(f, func(node) { count++ })
	return count
}

// Exists existentially quantifies all variables for which quant
// returns true.
func (m *Manager) Exists(f Ref, quant func(v int) bool) Ref {
	return m.exists(m.callTag(), f, quant)
}

func (m *Manager) exists(tag uint32, f Ref, quant func(v int) bool) Ref {
	if f == True || f == False {
		return f
	}
	if r, ok := m.lookup(tag, f, False); ok {
		return r
	}
	n := m.node(f)
	lo, hi := m.exists(tag, n.lo, quant), m.exists(tag, n.hi, quant)
	var r Ref
	if quant(int(n.level)) {
		r = m.Or(lo, hi)
	} else {
		r = m.mk(n.level, lo, hi)
	}
	m.store(tag, f, False, r)
	return r
}

// Rename maps each variable to rename(v); the mapping must be strictly
// monotone on the variables present in f (order-preserving), or the
// result would not be reduced-ordered.
func (m *Manager) Rename(f Ref, rename func(v int) int) Ref {
	return m.rename(m.callTag(), f, rename)
}

func (m *Manager) rename(tag uint32, f Ref, fn func(v int) int) Ref {
	if f == True || f == False {
		return f
	}
	if r, ok := m.lookup(tag, f, False); ok {
		return r
	}
	n := m.node(f)
	r := m.mk(int32(fn(int(n.level))), m.rename(tag, n.lo, fn), m.rename(tag, n.hi, fn))
	m.store(tag, f, False, r)
	return r
}

// SatCount returns the number of assignments to the variables marked
// in counted (at least NumVars entries) that satisfy f, which must
// depend on marked variables only. The count is a float64 — counts
// overflow uint64 quickly — and is +Inf past 2^1023, never NaN.
func (m *Manager) SatCount(f Ref, counted []bool) float64 {
	// below[l] counts the marked variables at levels < l; terminals
	// sit at level nVars.
	below := make([]int, m.nVars+1)
	for v := 0; v < m.nVars; v++ {
		below[v+1] = below[v]
		if counted[v] {
			below[v+1]++
		}
	}
	lvl := func(r Ref) int {
		if l := m.node(r).level; l != termLevel {
			return int(l)
		}
		return m.nVars
	}
	memo := map[Ref]float64{}
	// rec(f) counts assignments of the marked variables at levels >=
	// lvl(f).
	var rec func(Ref) float64
	rec = func(f Ref) float64 {
		if f == False {
			return 0
		}
		if f == True {
			return 1
		}
		if c, ok := memo[f]; ok {
			return c
		}
		n := m.node(f)
		from := below[n.level+1]
		c := math.Ldexp(rec(n.lo), below[lvl(n.lo)]-from) +
			math.Ldexp(rec(n.hi), below[lvl(n.hi)]-from)
		memo[f] = c
		return c
	}
	return math.Ldexp(rec(f), below[lvl(f)])
}

// Minterms calls fn for every assignment to vars (ascending variable
// indices, which must include f's whole support) that satisfies f,
// until fn returns false; bits[k] is the value of vars[k]. Assignments
// come in lexicographic order over vars with false first. fn must not
// retain bits, which is reused between calls.
func (m *Manager) Minterms(f Ref, vars []int, fn func(bits []bool) bool) {
	bits := make([]bool, len(vars))
	var rec func(f Ref, k int) bool
	rec = func(f Ref, k int) bool {
		if f == False {
			return true
		}
		if k == len(vars) {
			return fn(bits)
		}
		lo, hi := f, f
		if n := m.node(f); int(n.level) == vars[k] {
			lo, hi = n.lo, n.hi
		}
		bits[k] = false
		if !rec(lo, k+1) {
			return false
		}
		bits[k] = true
		return rec(hi, k+1)
	}
	rec(f, 0)
}

// Eval evaluates f under a complete assignment.
func (m *Manager) Eval(f Ref, assign func(v int) bool) bool {
	for f != True && f != False {
		n := m.node(f)
		if assign(int(n.level)) {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}
