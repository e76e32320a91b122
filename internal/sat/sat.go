// Package sat is a CDCL (conflict-driven clause learning) Boolean
// satisfiability solver: two-literal watching, first-UIP conflict
// analysis, VSIDS-style activity ordering, phase saving and Luby
// restarts. It is the substrate of the SAT-based bounded model checker
// (internal/bmc) that the paper positions its ATPG approach against
// (§1, Biere et al. [13]).
package sat

import (
	"fmt"
	"slices"
)

// Lit is a literal: variable v (1-based) is encoded as 2v for the
// positive and 2v+1 for the negated literal.
type Lit uint32

// NewLit makes a literal from a 1-based variable index.
func NewLit(v int, neg bool) Lit {
	if v <= 0 {
		panic("sat: variables are 1-based")
	}
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Var returns the 1-based variable of the literal.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal as ±v.
func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", l.Var())
	}
	return fmt.Sprintf("%d", l.Var())
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

type clause struct {
	lits    []Lit
	learned bool
	act     float64
}

// Status is a solver outcome.
type Status int8

// Solver outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// Solver is a CDCL SAT solver. Add variables with NewVar, clauses with
// AddClause, then call Solve.
type Solver struct {
	nVars   int
	clauses []*clause
	// watches[lit] lists clauses watching lit.
	watches  [][]*clause
	assign   []lbool // by var
	level    []int   // decision level by var
	reason   []*clause
	phase    []bool // saved phase
	trail    []Lit
	trailLim []int
	qhead    int
	activity []float64
	varInc   float64
	order    *varHeap
	// Stop, when non-nil, is polled periodically inside Solve (every
	// stopCheckInterval loop rounds); returning true aborts the search
	// with Unknown. It is the cancellation hook the bounded model
	// checker wires to a context so a losing portfolio engine stops
	// promptly instead of finishing its search.
	Stop         func() bool
	conflicts    int64
	propagations int64
	decisions    int64
	ok           bool
	// model is the assignment snapshot of the last Sat answer; Solve
	// backtracks to level 0 before returning, so reads go through here.
	model []bool
}

// NewSolver returns an empty solver.
func NewSolver() *Solver {
	s := &Solver{varInc: 1, ok: true}
	s.order = &varHeap{s: s}
	// Index 0 is unused (vars are 1-based): reserve dummy slots.
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.watches = append(s.watches, nil, nil)
	return s
}

func (s *Solver) grow(v int) {
	for s.nVars < v {
		s.nVars++
		s.assign = append(s.assign, lUndef)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, nil)
		s.phase = append(s.phase, false)
		s.activity = append(s.activity, 0)
		s.watches = append(s.watches, nil, nil)
		s.order.push(s.nVars)
	}
}

// NewVar allocates a fresh variable and returns its index (1-based).
func (s *Solver) NewVar() int {
	s.grow(s.nVars + 1)
	return s.nVars
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.nVars }

// NumClauses returns the number of problem clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// Stats returns (decisions, propagations, conflicts).
func (s *Solver) Stats() (int64, int64, int64) {
	return s.decisions, s.propagations, s.conflicts
}

func (s *Solver) value(l Lit) lbool {
	v := s.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

// AddClause adds a clause; returns false if the formula became
// trivially unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if len(s.trailLim) != 0 {
		panic("sat: AddClause after decisions")
	}
	// Simplify: drop false/duplicate literals, detect tautologies.
	// Clauses are short, so a scan of the literals kept so far finds
	// duplicates and complements without a set.
	out := make([]Lit, 0, len(lits))
	for _, l := range lits {
		if l.Var() > s.nVars {
			s.grow(l.Var())
		}
		switch s.value(l) {
		case lTrue:
			return true // already satisfied
		case lFalse:
			continue
		}
		if slices.Contains(out, l.Not()) {
			return true // tautology
		}
		if !slices.Contains(out, l) {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(out[0], nil) {
			s.ok = false
			return false
		}
		if s.propagate() != nil {
			s.ok = false
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.attach(c)
	s.clauses = append(s.clauses, c)
	return true
}

func (s *Solver) attach(c *clause) {
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], c)
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
}

func (s *Solver) enqueue(l Lit, from *clause) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = len(s.trailLim)
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; returns the conflicting clause
// or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		ws := s.watches[p]
		s.watches[p] = ws[:0:0] // will re-add the keepers
		kept := s.watches[p]
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			// Normalize: watched literal being falsified is p.Not()...
			// ensure c.lits[1] is the false literal.
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Unit or conflict.
			kept = append(kept, c)
			if !s.enqueue(c.lits[0], c) {
				// Conflict: restore remaining watches.
				kept = append(kept, ws[i+1:]...)
				s.watches[p] = kept
				s.qhead = len(s.trail)
				return c
			}
		}
		s.watches[p] = kept
	}
	return nil
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // slot for the asserting literal
	seen := make(map[int]bool)
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	c := confl
	for {
		for _, q := range c.lits {
			if p != 0 && q == p {
				continue
			}
			v := q.Var()
			if !seen[v] && s.level[v] > 0 {
				seen[v] = true
				s.bumpVar(v)
				if s.level[v] == len(s.trailLim) {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find next literal to expand.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Not()
			break
		}
		c = s.reason[v]
	}
	// Backtrack level: max level among learnt[1:].
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = s.level[learnt[1].Var()]
	}
	return learnt, bt
}

func (s *Solver) cancelUntil(level int) {
	if len(s.trailLim) <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = nil
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranch() Lit {
	for {
		v := s.order.pop()
		if v == 0 {
			return 0
		}
		if s.assign[v] == lUndef {
			if s.phase[v] {
				return NewLit(v, false)
			}
			return NewLit(v, true)
		}
	}
}

// luby returns the Luby restart sequence value for index x (0-based):
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
func luby(x int64) int64 {
	size, seq := int64(1), uint(0)
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) / 2
		seq--
		x = x % size
	}
	return 1 << seq
}

// stopCheckInterval is how many CDCL loop rounds pass between Stop
// polls — frequent enough that cancellation lands within microseconds,
// rare enough that the poll never shows up in a profile.
const stopCheckInterval = 256

// Solve runs the CDCL loop under the given assumptions.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if !s.ok {
		return Unsat
	}
	defer s.cancelUntil(0)
	restart := int64(0)
	confLimit := 100 * luby(restart)
	confAtRestart := int64(0)
	rounds := 0
	for {
		rounds++
		if rounds%stopCheckInterval == 0 && s.Stop != nil && s.Stop() {
			return Unknown
		}
		confl := s.propagate()
		if confl != nil {
			s.conflicts++
			confAtRestart++
			if len(s.trailLim) == 0 {
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			s.cancelUntil(bt)
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], nil) {
					return Unsat
				}
			} else {
				c := &clause{lits: learnt, learned: true}
				s.attach(c)
				s.enqueue(learnt[0], c)
			}
			s.varInc *= 1.05
			continue
		}
		if confAtRestart >= confLimit {
			restart++
			confLimit = 100 * luby(restart)
			confAtRestart = 0
			s.cancelUntil(len(assumptions))
		}
		// Apply assumptions as pseudo-decisions.
		if len(s.trailLim) < len(assumptions) {
			a := assumptions[len(s.trailLim)]
			switch s.value(a) {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				return Unsat
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(a, nil)
			continue
		}
		l := s.pickBranch()
		if l == 0 {
			s.model = make([]bool, s.nVars+1)
			for v := 1; v <= s.nVars; v++ {
				s.model[v] = s.assign[v] == lTrue
			}
			return Sat
		}
		s.decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(l, nil)
	}
}

// ModelValue returns the assignment of a variable in the most recent
// Sat model.
func (s *Solver) ModelValue(v int) bool {
	if v < len(s.model) {
		return s.model[v]
	}
	return false
}

// varHeap is a max-heap on variable activity.
type varHeap struct {
	s    *Solver
	heap []int
	pos  map[int]int
}

func (h *varHeap) less(a, b int) bool { return h.s.activity[a] > h.s.activity[b] }

func (h *varHeap) push(v int) {
	if h.pos == nil {
		h.pos = map[int]int{}
	}
	h.heap = append(h.heap, v)
	h.pos[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pushIfAbsent(v int) {
	if h.pos == nil {
		h.pos = map[int]int{}
	}
	if _, ok := h.pos[v]; !ok {
		h.push(v)
	}
}

func (h *varHeap) pop() int {
	if len(h.heap) == 0 {
		return 0
	}
	top := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	delete(h.pos, top)
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.pos[last] = 0
		h.down(0)
	}
	return top
}

func (h *varHeap) update(v int) {
	if i, ok := h.pos[v]; ok {
		h.up(i)
	}
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.less(h.heap[i], h.heap[p]) {
			h.heap[i], h.heap[p] = h.heap[p], h.heap[i]
			h.pos[h.heap[i]] = i
			h.pos[h.heap[p]] = p
			i = p
		} else {
			break
		}
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.heap) && h.less(h.heap[l], h.heap[best]) {
			best = l
		}
		if r < len(h.heap) && h.less(h.heap[r], h.heap[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.heap[i], h.heap[best] = h.heap[best], h.heap[i]
		h.pos[h.heap[i]] = i
		h.pos[h.heap[best]] = best
		i = best
	}
}
