// Package elab elaborates a parsed Verilog source into a flattened
// word-level netlist — the paper's "quick synthesis" step (§2). In
// keeping with the paper, no logic minimization is performed: the
// design intent (mux structures, comparators, arithmetic operators) is
// mapped structurally so the word-level ATPG can exploit it.
//
// Elaboration is demand-driven: every named net resolves lazily through
// its driver (continuous assignment, combinational always block, or
// instance output), which both orders the construction topologically
// and detects combinational cycles. Sequential registers (assigned
// under an edge-triggered always) become D flip-flops, with enables,
// holds and the asynchronous-reset idiom synthesized as multiplexors in
// front of the D input. Memories (reg arrays) are expanded into one
// register per word with address-decoded write multiplexors and read
// mux trees.
package elab

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/bv"
	"repro/internal/netlist"
	"repro/internal/verilog"
)

// elaborations counts Elaborate calls process-wide. The Design/Session
// layer promises that batch workers and repeated sessions never
// re-elaborate a design; tests assert that promise against this
// counter.
var elaborations atomic.Int64

// Elaborations returns the number of Elaborate calls so far in this
// process (test observability for the compile-once contract).
func Elaborations() int64 { return elaborations.Load() }

// sortedKeys returns a map's string keys in sorted order. Elaboration
// iterates several maps while emitting gates; sorting those iterations
// makes gate/signal order — and therefore downstream search statistics
// like implication counts — identical across processes (Go randomizes
// map iteration per process), which reproducible benchmarks and the
// CI bench-smoke comparison rely on.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Elaborate flattens the design rooted at module top into a netlist.
// paramOverrides overrides top-level parameters by name.
func Elaborate(src *verilog.Source, top string, paramOverrides map[string]uint64) (*netlist.Netlist, error) {
	elaborations.Add(1)
	e := &elaborator{mods: map[string]*verilog.Module{}, nl: netlist.New(top)}
	for _, m := range src.Modules {
		if e.mods[m.Name] == nil { // the first of a name, as FindModule
			e.mods[m.Name] = m
		}
	}
	mod := e.mods[top]
	if mod == nil {
		return nil, fmt.Errorf("elab: no module %q", top)
	}
	sc, err := e.newScope(mod, "", paramOverrides, nil)
	if err != nil {
		return nil, err
	}
	if err := e.elabScope(sc, true); err != nil {
		return nil, err
	}
	if err := e.nl.Validate(); err != nil {
		return nil, e.errf(sc, mod.Line, "%v", err)
	}
	return e.nl, nil
}

// Elaboration is bounded by its input: a net resolves through at most
// maxNetDepth nets (each level is a few stack frames, and a deeper
// recursion could overflow the stack, which no recover catches), and a
// design elaborates at most maxInstances module instances (each
// instance level can double the design). A source at either limit
// compiles in a fraction of a second.
const (
	maxNetDepth  = 10000
	maxInstances = 4096
)

type elaborator struct {
	mods map[string]*verilog.Module // the source's modules by name
	nl   *netlist.Netlist
	// depth counts the resolveNet calls open; instances counts the
	// module instances elaborated so far.
	depth, instances int
}

// netState tracks lazy resolution.
type netState uint8

const (
	nsUnresolved netState = iota
	nsResolving
	nsResolved
)

// driverKind classifies how a net gets its value.
type driverKind uint8

const (
	dkAssign     driverKind = iota // continuous assign (may cover a part select)
	dkAlways                       // combinational always block
	dkInstOut                      // instance output port
	dkParentExpr                   // submodule input fed by parent expression
)

type driver struct {
	kind   driverKind
	assign *verilog.Assign
	always *verilog.Always
	inst   *instInfo
	port   string
	// For dkParentExpr:
	parent *scope
	expr   verilog.Expr
}

type netInfo struct {
	name    string // local name
	full    string // hierarchical name
	width   int
	state   netState
	sig     netlist.SignalID
	drivers []*driver
	line    int
}

// memInfo is a declared memory array, expanded to per-word registers.
type memInfo struct {
	name     string
	width    int
	words    int
	wordNets []*netInfo // sequential register per word, also in scope.nets as "mem[i]"
}

type instInfo struct {
	ast   *verilog.Instance
	child *scope
	done  bool
}

// scope is one module instance during elaboration.
type scope struct {
	mod    *verilog.Module
	up     *scope // the instantiating scope; nil at the top
	prefix string
	params map[string]uint64
	nets   map[string]*netInfo
	mems   map[string]*memInfo
	// consts carries loop-variable values while unrolling for loops.
	consts map[string]uint64
	// widths memoizes natWidth under the current loop bindings.
	widths map[verilog.Expr]int
	// seqAlways lists edge-triggered blocks; combAlways the @(*) ones.
	seqAlways  []*verilog.Always
	alwaysDone map[*verilog.Always]bool
	insts      []*instInfo
	inits      []*verilog.Initial
	outputs    map[string]bool // output port names
	inputs     map[string]bool
	parentConn map[string]*driver // input port -> parent expression
	combCache  map[*verilog.Always]*combAlwaysResult
}

// errf formats every error Elaborate returns: "elab: ", the instance
// path and module, and the line. Helpers that evaluate constants
// (constEval, constEvalBV, literal) return bare messages, which their
// callers wrap here.
func (e *elaborator) errf(sc *scope, line int, format string, args ...interface{}) error {
	return fmt.Errorf("elab: %s%s line %d: %s", sc.prefix, sc.mod.Name, line, fmt.Sprintf(format, args...))
}

// newScope evaluates parameters and declarations of a module instance.
func (e *elaborator) newScope(mod *verilog.Module, prefix string, overrides map[string]uint64, parentConns map[string]*driver) (*scope, error) {
	sc := &scope{
		mod: mod, prefix: prefix,
		params: map[string]uint64{}, nets: map[string]*netInfo{},
		mems: map[string]*memInfo{}, consts: map[string]uint64{},
		widths:     map[verilog.Expr]int{},
		alwaysDone: map[*verilog.Always]bool{},
		outputs:    map[string]bool{}, inputs: map[string]bool{},
		parentConn: parentConns,
	}
	ports := map[string]bool{}
	for _, p := range mod.Ports {
		if ports[p] {
			return nil, e.errf(sc, mod.Line, "port %q listed twice", p)
		}
		ports[p] = true
	}
	for _, p := range mod.Params {
		if v, ok := overrides[p.Name]; ok && !p.Local {
			sc.params[p.Name] = v
			continue
		}
		v, err := e.constEval(sc, p.Value)
		if err != nil {
			return nil, e.errf(sc, p.Line, "parameter %s: %v", p.Name, err)
		}
		sc.params[p.Name] = v
	}
	// Declarations.
	for _, it := range mod.Items {
		d, ok := it.(*verilog.Decl)
		if !ok {
			continue
		}
		w := 1
		if d.Msb != nil {
			msb, err := e.constEval(sc, d.Msb)
			if err != nil {
				return nil, e.errf(sc, d.Line, "bad range msb: %v", err)
			}
			lsb, err := e.constEval(sc, d.Lsb)
			if err != nil {
				return nil, e.errf(sc, d.Line, "bad range lsb: %v", err)
			}
			if lsb != 0 || msb >= maxWidth {
				return nil, e.errf(sc, d.Line, "unsupported range [%d:%d]", msb, lsb)
			}
			w = int(msb) + 1
		}
		for _, name := range d.Names {
			if d.ArrayHi != nil {
				hi, err := e.constEval(sc, d.ArrayHi)
				if err != nil {
					return nil, e.errf(sc, d.Line, "bad memory bound: %v", err)
				}
				lo, err := e.constEval(sc, d.ArrayLo)
				if err != nil {
					return nil, e.errf(sc, d.Line, "bad memory bound: %v", err)
				}
				if hi < lo { // declared [0:N]
					hi, lo = lo, hi
				}
				if lo != 0 || hi > 255 {
					return nil, e.errf(sc, d.Line, "unsupported memory bounds [%d:%d]", lo, hi)
				}
				if d.Dir != verilog.DirNone {
					return nil, e.errf(sc, d.Line, "memory %q cannot be a port", name)
				}
				sc.mems[name] = &memInfo{name: name, width: w, words: int(hi) + 1}
			} else if ni := sc.nets[name]; ni == nil {
				sc.nets[name] = &netInfo{name: name, full: prefix + name, width: w, line: d.Line}
			} else if ni.width == 1 && w > 1 {
				// "output [3:0] q; reg [3:0] q;" — second decl refines width.
				ni.width = w
			}
			if sc.nets[name] != nil && sc.mems[name] != nil {
				return nil, e.errf(sc, d.Line, "%q declared as both a net and a memory", name)
			}
			switch d.Dir {
			case verilog.DirInput:
				sc.inputs[name] = true
			case verilog.DirOutput:
				sc.outputs[name] = true
			case verilog.DirInout:
				return nil, e.errf(sc, d.Line, "inout ports are not supported")
			}
		}
	}
	// Classify always blocks; collect instances and initial blocks.
	instNames := map[string]bool{}
	for _, it := range mod.Items {
		switch v := it.(type) {
		case *verilog.Always:
			if isSequential(v) {
				sc.seqAlways = append(sc.seqAlways, v)
			} else {
				// Attach as driver to every net it assigns.
				for _, name := range sortedKeys(assignedNets(v.Body)) {
					if ni := sc.nets[name]; ni != nil {
						ni.drivers = append(ni.drivers, &driver{kind: dkAlways, always: v})
					} else if sc.mems[name] != nil {
						return nil, e.errf(sc, v.Line, "memory %q written outside a sequential always block", name)
					}
				}
			}
		case *verilog.Assign:
			for _, tgt := range lhsTargets(v.LHS) {
				if ni := sc.nets[tgt]; ni != nil {
					// One driver per assign, however many of its pieces the net takes.
					if n := len(ni.drivers); n == 0 || ni.drivers[n-1].assign != v {
						ni.drivers = append(ni.drivers, &driver{kind: dkAssign, assign: v})
					}
				} else if sc.mems[tgt] != nil {
					return nil, e.errf(sc, v.Line, "continuous assign to memory %q", tgt)
				} else {
					return nil, e.errf(sc, v.Line, "assign to undeclared net %q", tgt)
				}
			}
		case *verilog.Instance:
			if instNames[v.Name] {
				return nil, e.errf(sc, v.Line, "instance name %q used twice", v.Name)
			}
			instNames[v.Name] = true
			sc.insts = append(sc.insts, &instInfo{ast: v})
		case *verilog.Initial:
			sc.inits = append(sc.inits, v)
		}
	}
	// Input ports: resolved from parent connections (or as primary
	// inputs when top-level — handled in elabScope).
	for _, name := range sortedKeys(parentConns) {
		if ni := sc.nets[name]; ni != nil && sc.inputs[name] {
			ni.drivers = append(ni.drivers, parentConns[name])
		}
	}
	// Instance output drivers.
	for _, ii := range sc.insts {
		child := e.mods[ii.ast.ModName]
		if child == nil {
			return nil, e.errf(sc, ii.ast.Line, "unknown module %q", ii.ast.ModName)
		}
		conns, err := nameConnections(child, ii.ast)
		if err != nil {
			return nil, e.errf(sc, ii.ast.Line, "%v", err)
		}
		for _, port := range sortedKeys(conns) {
			ex := conns[port]
			if ex == nil {
				continue
			}
			if isOutputPort(child, port) {
				id, ok := ex.(*verilog.Ident)
				if !ok {
					return nil, e.errf(sc, ii.ast.Line, "output port .%s must connect to a simple net", port)
				}
				ni := sc.nets[id.Name]
				if ni == nil {
					return nil, e.errf(sc, ii.ast.Line, "output port .%s connects to undeclared %q", port, id.Name)
				}
				ni.drivers = append(ni.drivers, &driver{kind: dkInstOut, inst: ii, port: port})
			}
		}
	}
	return sc, nil
}

// isSequential reports whether an always block is edge triggered.
func isSequential(a *verilog.Always) bool {
	for _, s := range a.Sens {
		if s.Edge == verilog.EdgePos || s.Edge == verilog.EdgeNeg {
			return true
		}
	}
	return false
}

// assignedNets collects the base names assigned anywhere in a statement.
func assignedNets(s verilog.Stmt) map[string]bool {
	out := map[string]bool{}
	var walk func(verilog.Stmt)
	walk = func(s verilog.Stmt) {
		switch v := s.(type) {
		case *verilog.Block:
			for _, st := range v.Stmts {
				walk(st)
			}
		case *verilog.If:
			walk(v.Then)
			if v.Else != nil {
				walk(v.Else)
			}
		case *verilog.Case:
			for _, it := range v.Items {
				walk(it.Body)
			}
		case *verilog.For:
			walk(v.Body)
		case *verilog.AssignStmt:
			for _, t := range lhsTargets(v.LHS) {
				out[t] = true
			}
		}
	}
	if s != nil {
		walk(s)
	}
	return out
}

// lhsTargets returns the base net names of an lvalue.
func lhsTargets(e verilog.Expr) []string {
	switch v := e.(type) {
	case *verilog.Ident:
		return []string{v.Name}
	case *verilog.Index:
		return lhsTargets(v.Base)
	case *verilog.RangeSel:
		return lhsTargets(v.Base)
	case *verilog.ConcatExpr:
		var out []string
		for _, p := range v.Parts {
			out = append(out, lhsTargets(p)...)
		}
		return out
	}
	return nil
}

// nameConnections maps child port names to the parent expressions,
// resolving positional connections against the child's port order.
func nameConnections(child *verilog.Module, inst *verilog.Instance) (map[string]verilog.Expr, error) {
	out := map[string]verilog.Expr{}
	positional := false
	for _, c := range inst.Conns {
		if c.Name == "" {
			positional = true
		}
	}
	if positional {
		if len(inst.Conns) > len(child.Ports) {
			return nil, fmt.Errorf("instance %s: %d connections for %d ports", inst.Name, len(inst.Conns), len(child.Ports))
		}
		for i, c := range inst.Conns {
			out[child.Ports[i]] = c.Expr
		}
		return out, nil
	}
	for _, c := range inst.Conns {
		found := false
		for _, p := range child.Ports {
			if p == c.Name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("instance %s: no port %q on %s", inst.Name, c.Name, child.Name)
		}
		out[c.Name] = c.Expr
	}
	return out, nil
}

func isOutputPort(m *verilog.Module, port string) bool {
	for _, it := range m.Items {
		if d, ok := it.(*verilog.Decl); ok && d.Dir == verilog.DirOutput {
			for _, n := range d.Names {
				if n == port {
					return true
				}
			}
		}
	}
	return false
}

func isInputPort(m *verilog.Module, port string) bool {
	for _, it := range m.Items {
		if d, ok := it.(*verilog.Decl); ok && d.Dir == verilog.DirInput {
			for _, n := range d.Names {
				if n == port {
					return true
				}
			}
		}
	}
	return false
}

// elabScope drives the full elaboration of one module instance.
func (e *elaborator) elabScope(sc *scope, isTop bool) error {
	// 1. Primary inputs (top only; submodule inputs resolve through
	// their parent-expression drivers).
	if isTop {
		for _, port := range sc.mod.Ports {
			if sc.inputs[port] {
				ni := sc.nets[port]
				ni.sig = e.nl.AddInput(ni.full, ni.width)
				ni.state = nsResolved
			}
		}
	}
	// 2. Sequential registers: create flip-flop placeholders so reads
	// resolve without cycles. Memories expand to per-word registers,
	// each a net named "mem[i]".
	seqRegs := map[string]bool{}
	for _, a := range sc.seqAlways {
		for name := range assignedNets(a.Body) {
			if sc.mems[name] == nil {
				seqRegs[name] = true
			}
		}
	}
	var regs []*netInfo
	for _, name := range sortedKeys(seqRegs) {
		ni := sc.nets[name]
		if ni == nil {
			return e.errf(sc, sc.mod.Line, "sequential assignment to undeclared %q", name)
		}
		if sc.inputs[name] {
			return e.errf(sc, ni.line, "sequential assignment to input %q", name)
		}
		regs = append(regs, ni)
	}
	for _, name := range sortedKeys(sc.mems) {
		mi := sc.mems[name]
		for w := 0; w < mi.words; w++ {
			ni := &netInfo{name: fmt.Sprintf("%s[%d]", name, w), width: mi.width}
			ni.full = sc.prefix + ni.name
			sc.nets[ni.name] = ni
			mi.wordNets = append(mi.wordNets, ni)
			regs = append(regs, ni)
		}
	}
	inits, err := e.collectInits(sc)
	if err != nil {
		return err
	}
	for _, ni := range regs {
		init, ok := inits[ni.name]
		if !ok {
			init = bv.NewX(ni.width)
		}
		ni.sig = e.nl.DffPlaceholder(ni.width, init, ni.full)
		ni.state = nsResolved
	}
	// 3. Resolve every net (outputs first so POs exist even if unread).
	for _, port := range sc.mod.Ports {
		if sc.outputs[port] {
			sig, err := e.resolveNet(sc, port, sc.mod.Line)
			if err != nil {
				return err
			}
			if isTop {
				e.nl.MarkOutput(port, sig)
			}
		}
	}
	for _, name := range sortedKeys(sc.nets) {
		if _, err := e.resolveNet(sc, name, sc.nets[name].line); err != nil {
			return err
		}
	}
	// 4. Sequential always blocks: compute next-state and connect DFFs.
	// A register or memory word that no block assigns holds its value.
	for _, a := range sc.seqAlways {
		if err := e.elabSequential(sc, a); err != nil {
			return err
		}
	}
	for _, ni := range regs {
		if !e.dffConnected(ni.sig) {
			e.nl.ConnectDff(ni.sig, ni.sig)
		}
	}
	// 5. Make sure all instances are elaborated (an instance with no
	// consumed outputs still contributes logic and state).
	for _, ii := range sc.insts {
		if err := e.elabInstance(sc, ii); err != nil {
			return err
		}
	}
	return nil
}

// collectInits evaluates initial blocks into the initial values of
// registers and memory words, keyed by net name and by "mem[i]".
func (e *elaborator) collectInits(sc *scope) (map[string]bv.BV, error) {
	inits := map[string]bv.BV{}
	var walk func(s verilog.Stmt) error
	walk = func(s verilog.Stmt) error {
		switch v := s.(type) {
		case *verilog.Block:
			for _, st := range v.Stmts {
				if err := walk(st); err != nil {
					return err
				}
			}
		case *verilog.For:
			return e.unrollFor(sc, v, walk)
		case *verilog.AssignStmt:
			pieces, w, err := e.targets(sc, v.LHS, v.Line)
			if err != nil {
				return err
			}
			val, err := e.constEvalBV(sc, v.RHS, w)
			if err != nil {
				return e.errf(sc, v.Line, "initial value must be constant: %v", err)
			}
			for _, t := range pieces {
				w -= t.width()
				if t.ni == nil {
					return e.errf(sc, v.Line, "initial memory index must be constant")
				}
				cur, ok := inits[t.ni.name]
				if !ok {
					cur = bv.NewX(t.ni.width)
				}
				for i := 0; i < t.width(); i++ {
					cur = cur.WithBit(t.lsb+i, val.Bit(w+i))
				}
				inits[t.ni.name] = cur
			}
		case *verilog.If:
			return e.errf(sc, v.Line, "conditional initial blocks are not supported")
		}
		return nil
	}
	for _, ib := range sc.inits {
		if err := walk(ib.Body); err != nil {
			return nil, err
		}
	}
	return inits, nil
}

// resolveNet returns the signal carrying net name, elaborating its
// drivers on first use.
func (e *elaborator) resolveNet(sc *scope, name string, line int) (netlist.SignalID, error) {
	ni := sc.nets[name]
	if ni == nil {
		return 0, e.errf(sc, line, "undeclared net %q", name)
	}
	switch ni.state {
	case nsResolved:
		return ni.sig, nil
	case nsResolving:
		return 0, e.errf(sc, ni.line, "combinational cycle through %q", ni.full)
	}
	if e.depth++; e.depth > maxNetDepth {
		return 0, e.errf(sc, ni.line, "net %q resolves through more than %d nets", ni.full, maxNetDepth)
	}
	ni.state = nsResolving
	sig, err := e.buildNet(sc, ni)
	e.depth--
	if err != nil {
		return 0, err
	}
	ni.sig = sig
	ni.state = nsResolved
	return sig, nil
}

// buildNet elaborates all drivers of a net and assembles its value.
func (e *elaborator) buildNet(sc *scope, ni *netInfo) (netlist.SignalID, error) {
	if len(ni.drivers) == 0 {
		// Undriven: an all-x constant (models a floating net).
		return e.nl.Const(bv.NewX(ni.width)), nil
	}
	// pieces[bit] = signal providing that bit, with offset.
	type piece struct {
		sig    netlist.SignalID
		hi, lo int // bits of the net covered
	}
	var pieces []piece
	addPiece := func(sig netlist.SignalID, hi, lo int) error {
		for _, p := range pieces {
			if !(hi < p.lo || lo > p.hi) {
				return e.errf(sc, ni.line, "multiple drivers for %s[%d:%d]", ni.full, hi, lo)
			}
		}
		pieces = append(pieces, piece{sig, hi, lo})
		return nil
	}
	for _, d := range ni.drivers {
		switch d.kind {
		case dkAssign:
			if err := e.elabContinuousAssign(sc, d.assign, ni, addPiece); err != nil {
				return 0, err
			}
		case dkAlways:
			vals, err := e.elabCombAlways(sc, d.always)
			if err != nil {
				return 0, err
			}
			sig, ok := vals[ni.name]
			if !ok {
				return 0, e.errf(sc, ni.line, "always block does not assign %q", ni.name)
			}
			if err := addPiece(sig, ni.width-1, 0); err != nil {
				return 0, err
			}
		case dkInstOut:
			if err := e.elabInstance(sc, d.inst); err != nil {
				return 0, err
			}
			sig, err := e.resolveNet(d.inst.child, d.port, 0)
			if err != nil {
				return 0, err
			}
			if err := addPiece(e.coerce(sig, ni.width), ni.width-1, 0); err != nil {
				return 0, err
			}
		case dkParentExpr:
			sig, err := e.elabExpr(d.parent, d.expr, ni.width)
			if err != nil {
				return 0, err
			}
			if err := addPiece(e.coerce(sig, ni.width), ni.width-1, 0); err != nil {
				return 0, err
			}
		}
	}
	// Assemble pieces MSB-first.
	if len(pieces) == 1 && pieces[0].lo == 0 && pieces[0].hi == ni.width-1 {
		return e.alias(ni.full, pieces[0].sig), nil
	}
	// Sort by lo descending and fill gaps with x.
	covered := make([]netlist.SignalID, 0, len(pieces)+2)
	bit := ni.width - 1
	for bit >= 0 {
		var found *piece
		for i := range pieces {
			if pieces[i].hi == bit {
				found = &pieces[i]
				break
			}
		}
		if found == nil {
			// find next piece below
			nextHi := -1
			for i := range pieces {
				if pieces[i].hi < bit && pieces[i].hi > nextHi {
					nextHi = pieces[i].hi
				}
			}
			covered = append(covered, e.nl.Const(bv.NewX(bit-nextHi)))
			bit = nextHi
			continue
		}
		covered = append(covered, found.sig)
		bit = found.lo - 1
	}
	out := e.nl.Concat(covered...)
	return e.alias(ni.full, out), nil
}

// alias gives sig a stable hierarchical name via a named buffer (unless
// it is already so named).
func (e *elaborator) alias(name string, sig netlist.SignalID) netlist.SignalID {
	if e.nl.Signals[sig].Name == name {
		return sig
	}
	return e.nl.NamedBuf(name, sig)
}

// coerce zero-extends or truncates sig to width w.
func (e *elaborator) coerce(sig netlist.SignalID, w int) netlist.SignalID {
	if e.nl.Width(sig) == w {
		return sig
	}
	return e.nl.Zext(sig, w)
}

// elabContinuousAssign adds the pieces of net ni that one assign
// statement drives. The right-hand side is elaborated once at the
// width of the whole target and split over the target's pieces.
func (e *elaborator) elabContinuousAssign(sc *scope, a *verilog.Assign, ni *netInfo, addPiece func(netlist.SignalID, int, int) error) error {
	pieces, w, err := e.targets(sc, a.LHS, a.Line)
	if err != nil {
		return err
	}
	rhs, err := e.elabExpr(sc, a.RHS, w)
	if err != nil {
		return err
	}
	rhs = e.coerce(rhs, w)
	for _, t := range pieces {
		part := e.sliceOf(rhs, w-1, w-t.width())
		w -= t.width()
		if t.ni != ni {
			continue // another target of the same assign
		}
		if err := addPiece(part, t.msb, t.lsb); err != nil {
			return err
		}
	}
	return nil
}

// sliceOf returns sig[hi:lo], avoiding a gate for the identity slice.
func (e *elaborator) sliceOf(sig netlist.SignalID, hi, lo int) netlist.SignalID {
	if lo == 0 && hi == e.nl.Width(sig)-1 {
		return sig
	}
	return e.nl.Slice(sig, hi, lo)
}

// elabInstance elaborates a child module instance once.
func (e *elaborator) elabInstance(sc *scope, ii *instInfo) error {
	if ii.done {
		return nil
	}
	child := e.mods[ii.ast.ModName]
	for up := sc; up != nil; up = up.up {
		if up.mod == child {
			return e.errf(sc, ii.ast.Line, "module %q instantiates itself", child.Name)
		}
	}
	conns, err := nameConnections(child, ii.ast)
	if err != nil {
		return e.errf(sc, ii.ast.Line, "%v", err)
	}
	if ii.child == nil {
		if e.instances++; e.instances > maxInstances {
			return e.errf(sc, ii.ast.Line, "more than %d module instances", maxInstances)
		}
		// Parameter overrides.
		overrides := map[string]uint64{}
		if len(ii.ast.ParamOvr) > 0 {
			pos := 0
			for _, po := range ii.ast.ParamOvr {
				if po.Name == "" {
					if pos < len(child.Params) {
						v, err := e.constEval(sc, po.Expr)
						if err != nil {
							return e.errf(sc, ii.ast.Line, "parameter override: %v", err)
						}
						overrides[child.Params[pos].Name] = v
					}
					pos++
					continue
				}
				v, err := e.constEval(sc, po.Expr)
				if err != nil {
					return e.errf(sc, ii.ast.Line, "parameter override .%s: %v", po.Name, err)
				}
				overrides[po.Name] = v
			}
		}
		inputDrivers := map[string]*driver{}
		for port, ex := range conns {
			if ex != nil && isInputPort(child, port) {
				inputDrivers[port] = &driver{kind: dkParentExpr, parent: sc, expr: ex}
			}
		}
		cs, err := e.newScope(child, sc.prefix+ii.ast.Name+".", overrides, inputDrivers)
		if err != nil {
			return err
		}
		cs.up = sc
		ii.child = cs
	}
	ii.done = true
	return e.elabScope(ii.child, false)
}
