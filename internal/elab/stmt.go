package elab

import (
	"fmt"

	"repro/internal/bv"
	"repro/internal/netlist"
	"repro/internal/verilog"
)

// procEnv carries the symbolic values assigned so far while executing a
// procedural block. Keys are net names (or "mem[i]" for memory words).
type procEnv struct {
	vals map[string]netlist.SignalID
}

func newProcEnv() *procEnv {
	return &procEnv{vals: map[string]netlist.SignalID{}}
}

func (p *procEnv) clone() *procEnv {
	c := newProcEnv()
	for k, v := range p.vals {
		c.vals[k] = v
	}
	return c
}

// combAlwaysCache memoizes elaborated combinational blocks per scope.
type combAlwaysResult struct {
	vals map[string]netlist.SignalID
	busy bool
}

// elabCombAlways symbolically executes an @(*) block once, returning
// the final value of each assigned net. Reads of nets assigned later in
// the same block see an all-x constant (write-before-read style is
// required, which the default-assignment idiom satisfies).
func (e *elaborator) elabCombAlways(sc *scope, a *verilog.Always) (map[string]netlist.SignalID, error) {
	if sc.combCache == nil {
		sc.combCache = map[*verilog.Always]*combAlwaysResult{}
	}
	if r, ok := sc.combCache[a]; ok {
		if r.busy {
			return nil, e.errf(sc, a.Line, "combinational cycle through always block")
		}
		return r.vals, nil
	}
	r := &combAlwaysResult{busy: true}
	sc.combCache[a] = r
	env := newProcEnv()
	if err := e.execStmt(sc, env, a.Body); err != nil {
		return nil, err
	}
	r.vals = env.vals
	r.busy = false
	return r.vals, nil
}

// execStmt symbolically executes one statement, updating env.
func (e *elaborator) execStmt(sc *scope, env *procEnv, s verilog.Stmt) error {
	switch v := s.(type) {
	case *verilog.Block:
		for _, st := range v.Stmts {
			if err := e.execStmt(sc, env, st); err != nil {
				return err
			}
		}
		return nil
	case *verilog.AssignStmt:
		return e.execAssign(sc, env, v)
	case *verilog.If:
		cond, err := e.elabExprEnv(sc, env, v.Cond, 0)
		if err != nil {
			return err
		}
		cond = e.boolify(cond)
		thenEnv := env.clone()
		if err := e.execStmt(sc, thenEnv, v.Then); err != nil {
			return err
		}
		elseEnv := env.clone()
		if v.Else != nil {
			if err := e.execStmt(sc, elseEnv, v.Else); err != nil {
				return err
			}
		}
		e.mergeEnvs(sc, env, cond, thenEnv, elseEnv)
		return nil
	case *verilog.Case:
		return e.execCase(sc, env, v)
	case *verilog.For:
		return e.unrollFor(sc, v, func(body verilog.Stmt) error {
			return e.execStmt(sc, env, body)
		})
	}
	return fmt.Errorf("elab: unsupported statement")
}

// mergeEnvs writes Mux(cond, elseVal, thenVal) into env for every net
// assigned in either branch.
func (e *elaborator) mergeEnvs(sc *scope, env *procEnv, cond netlist.SignalID, thenEnv, elseEnv *procEnv) {
	keys := map[string]bool{}
	for k := range thenEnv.vals {
		keys[k] = true
	}
	for k := range elseEnv.vals {
		keys[k] = true
	}
	// Deterministic order keeps netlists reproducible run to run.
	for _, k := range sortedKeys(keys) {
		tv, tok := thenEnv.vals[k]
		ev, eok := elseEnv.vals[k]
		base, baseOK := env.vals[k]
		if !tok {
			if baseOK {
				tv = base
			} else {
				tv = e.fallback(sc, k)
			}
		}
		if !eok {
			if baseOK {
				ev = base
			} else {
				ev = e.fallback(sc, k)
			}
		}
		if tv == ev {
			env.vals[k] = tv
			continue
		}
		env.vals[k] = e.nl.Mux(cond, ev, tv)
	}
}

// fallback is the value a net holds when a branch does not assign it:
// its value outside the block (the register's output, or a net driven
// elsewhere), or, for a net this combinational block drives, an all-x
// constant (incomplete assignment — a would-be latch).
func (e *elaborator) fallback(sc *scope, key string) netlist.SignalID {
	ni := sc.nets[key]
	if ni.state == nsResolved {
		return ni.sig
	}
	return e.nl.Const(bv.NewX(ni.width))
}

func (e *elaborator) execCase(sc *scope, env *procEnv, v *verilog.Case) error {
	wSubj, err := e.natWidth(sc, v.Subject)
	if err != nil {
		return err
	}
	if wSubj == 0 {
		wSubj = 32
	}
	subj, err := e.elabExprEnv(sc, env, v.Subject, wSubj)
	if err != nil {
		return err
	}
	subj = e.coerce(subj, wSubj)
	// Priority if-else chain, last default as the final else.
	type arm struct {
		cond netlist.SignalID // None for default
		body verilog.Stmt
	}
	var arms []arm
	for _, item := range v.Items {
		if item.Labels == nil {
			arms = append(arms, arm{cond: netlist.None, body: item.Body})
			continue
		}
		var cond netlist.SignalID = netlist.None
		for _, lab := range item.Labels {
			var c netlist.SignalID
			labBV, err := e.constEvalBV(sc, lab, wSubj)
			if err == nil && (!labBV.IsFullyKnown() || v.Casez) {
				// casez / x-bits: masked equality.
				mask := bv.NewX(wSubj)
				val := bv.NewX(wSubj)
				for i := 0; i < wSubj; i++ {
					if labBV.Bit(i) == bv.X {
						mask = mask.WithBit(i, bv.Zero)
						val = val.WithBit(i, bv.Zero)
					} else {
						mask = mask.WithBit(i, bv.One)
						val = val.WithBit(i, labBV.Bit(i))
					}
				}
				masked := e.nl.Binary(netlist.KAnd, subj, e.nl.Const(mask))
				c = e.nl.Binary(netlist.KEq, masked, e.nl.Const(val))
			} else {
				labSig, err := e.elabExprEnv(sc, env, lab, wSubj)
				if err != nil {
					return err
				}
				c = e.nl.Binary(netlist.KEq, subj, e.coerce(labSig, wSubj))
			}
			if cond == netlist.None {
				cond = c
			} else {
				cond = e.nl.Binary(netlist.KOr, cond, c)
			}
		}
		arms = append(arms, arm{cond: cond, body: item.Body})
	}
	// Execute from the last arm backwards, folding into if-else.
	var exec func(i int, env *procEnv) error
	exec = func(i int, env *procEnv) error {
		if i >= len(arms) {
			return nil
		}
		a := arms[i]
		if a.cond == netlist.None { // default
			return e.execStmt(sc, env, a.body)
		}
		thenEnv := env.clone()
		if err := e.execStmt(sc, thenEnv, a.body); err != nil {
			return err
		}
		elseEnv := env.clone()
		if err := exec(i+1, elseEnv); err != nil {
			return err
		}
		e.mergeEnvs(sc, env, a.cond, thenEnv, elseEnv)
		return nil
	}
	return exec(0, env)
}

// target is one piece of an assignment target: bits [msb:lsb] of net
// ni, or the word of memory mem that the non-constant index addr
// selects. A memory word at a constant index is the word's own net.
type target struct {
	ni       *netInfo
	msb, lsb int
	mem      *memInfo
	addr     verilog.Expr
}

func (t target) width() int {
	if t.mem != nil {
		return t.mem.width
	}
	return t.msb - t.lsb + 1
}

// targets splits an assignment target into its pieces, most
// significant first, and returns their total width. A target is a net,
// a constant select of a net, a memory word, or a concatenation of
// these.
func (e *elaborator) targets(sc *scope, lv verilog.Expr, line int) ([]target, int, error) {
	var pieces []target
	total := 0
	var walk func(lv verilog.Expr) error
	walk = func(lv verilog.Expr) error {
		var id *verilog.Ident // the net or memory
		switch v := lv.(type) {
		case *verilog.ConcatExpr:
			for _, p := range v.Parts {
				if err := walk(p); err != nil {
					return err
				}
			}
			return nil
		case *verilog.Ident:
			id = v
		case *verilog.Index:
			id, _ = v.Base.(*verilog.Ident)
		case *verilog.RangeSel:
			id, _ = v.Base.(*verilog.Ident)
		}
		if id == nil {
			return e.errf(sc, line, "unsupported assignment target")
		}
		t := target{ni: sc.nets[id.Name]}
		mi := sc.mems[id.Name]
		ix, isIndex := lv.(*verilog.Index)
		_, whole := lv.(*verilog.Ident)
		var err error
		switch {
		case mi != nil && isIndex:
			if _, cerr := e.constEval(sc, ix.Idx); cerr != nil {
				t.mem, t.addr = mi, ix.Idx
				break
			}
			var word int
			if word, _, err = e.selectBits(sc, ix, mi.words); err == nil {
				t.ni, t.msb = mi.wordNets[word], mi.width-1
			}
		case t.ni == nil:
			err = e.errf(sc, line, "assignment to %q, which is not a net or a memory word", id.Name)
		case whole:
			t.msb = t.ni.width - 1
		default:
			t.msb, t.lsb, err = e.selectBits(sc, lv, t.ni.width)
		}
		if err != nil {
			return err
		}
		pieces, total = append(pieces, t), total+t.width()
		return nil
	}
	if err := walk(lv); err != nil {
		return nil, 0, err
	}
	return pieces, total, e.fitWidth(sc, line, total)
}

// execAssign executes a procedural assignment: the right-hand side,
// sized to the whole target, is split over the target's pieces.
func (e *elaborator) execAssign(sc *scope, env *procEnv, v *verilog.AssignStmt) error {
	if id, ok := v.LHS.(*verilog.Ident); ok && sc.nets[id.Name] == nil {
		if _, isConst := sc.consts[id.Name]; isConst {
			return nil // loop variable reassignment inside body: ignore
		}
	}
	pieces, w, err := e.targets(sc, v.LHS, v.Line)
	if err != nil {
		return err
	}
	rhs, err := e.elabExprEnv(sc, env, v.RHS, w)
	if err != nil {
		return err
	}
	rhs = e.coerce(rhs, w)
	for _, t := range pieces {
		part := e.sliceOf(rhs, w-1, w-t.width())
		w -= t.width()
		if t.mem == nil {
			e.mergeBits(sc, env, t.ni, t.msb, t.lsb, part)
		} else if err := e.execMemWrite(sc, env, t, part); err != nil {
			return err
		}
	}
	return nil
}

// mergeBits performs a read-modify-write of bits [msb:lsb] of a net's
// current procedural value; a part covering the whole net replaces it.
func (e *elaborator) mergeBits(sc *scope, env *procEnv, ni *netInfo, msb, lsb int, part netlist.SignalID) {
	if msb == ni.width-1 && lsb == 0 {
		env.vals[ni.name] = part
		return
	}
	cur, ok := env.vals[ni.name]
	if !ok {
		cur = e.fallback(sc, ni.name)
	}
	var pieces []netlist.SignalID
	if msb < ni.width-1 {
		pieces = append(pieces, e.nl.Slice(cur, ni.width-1, msb+1))
	}
	pieces = append(pieces, part)
	if lsb > 0 {
		pieces = append(pieces, e.nl.Slice(cur, lsb-1, 0))
	}
	env.vals[ni.name] = e.nl.Concat(pieces...)
}

// execMemWrite writes data to the memory word that a non-constant
// index selects: one conditional update per word the index can reach.
func (e *elaborator) execMemWrite(sc *scope, env *procEnv, t target, data netlist.SignalID) error {
	addr, err := e.elabExprEnv(sc, env, t.addr, 0)
	if err != nil {
		return err
	}
	for w, wn := range t.mem.wordNets {
		if uint64(w)>>e.nl.Width(addr) != 0 {
			break
		}
		hit := e.nl.Binary(netlist.KEq, addr, e.nl.ConstUint(e.nl.Width(addr), uint64(w)))
		env.vals[wn.name] = e.nl.Mux(hit, e.memWord(env, t.mem, w), data)
	}
	return nil
}

// unrollFor evaluates a constant-bound for loop, calling body for each
// iteration with the loop variable bound in sc.consts.
func (e *elaborator) unrollFor(sc *scope, f *verilog.For, body func(verilog.Stmt) error) error {
	init, err := e.constEval(sc, f.Init)
	if err != nil {
		return e.errf(sc, f.Line, "for-loop init must be constant: %v", err)
	}
	step, err := e.constEval(sc, f.Step)
	if err != nil {
		return e.errf(sc, f.Line, "for-loop step must be constant: %v", err)
	}
	// Widths may depend on the loop variable: clear them at each binding.
	saved, had := sc.consts[f.Var]
	defer func() {
		if had {
			sc.consts[f.Var] = saved
		} else {
			delete(sc.consts, f.Var)
		}
		clear(sc.widths)
	}()
	i := init
	for iter := 0; ; iter++ {
		if iter > 4096 {
			return e.errf(sc, f.Line, "for loop exceeds 4096 iterations")
		}
		sc.consts[f.Var] = i
		clear(sc.widths)
		cond, err := e.constEval(sc, f.Cond)
		if err != nil {
			return e.errf(sc, f.Line, "for-loop condition must be constant: %v", err)
		}
		if cond == 0 {
			return nil
		}
		if err := body(f.Body); err != nil {
			return err
		}
		if f.StepOp == "+" {
			i += step
		} else {
			i -= step
		}
	}
}

// elabSequential elaborates an edge-triggered always block: next-state
// logic plus flip-flop connection, with the async-reset idiom mapped to
// a reset multiplexor.
func (e *elaborator) elabSequential(sc *scope, a *verilog.Always) error {
	// Identify an async reset: a second edge-sensitive signal tested by
	// a top-level if.
	body := a.Body
	if blk, ok := body.(*verilog.Block); ok && len(blk.Stmts) == 1 {
		body = blk.Stmts[0]
	}
	var resetSig string
	var resetActive bool // true: if(rst), false: if(!rst)
	var resetBody, normalBody verilog.Stmt
	normalBody = a.Body
	if len(a.Sens) > 1 {
		if ifs, ok := body.(*verilog.If); ok {
			name, active := resetCondSignal(ifs.Cond)
			if name != "" {
				for _, s := range a.Sens[1:] {
					if s.Signal == name {
						resetSig, resetActive = name, active
						resetBody = ifs.Then
						normalBody = ifs.Else
						break
					}
				}
			}
		}
		if resetSig == "" {
			return e.errf(sc, a.Line, "multiple-edge always must use the async-reset if idiom")
		}
	}
	envN := newProcEnv()
	if normalBody != nil {
		if err := e.execStmt(sc, envN, normalBody); err != nil {
			return err
		}
	}
	var envR *procEnv
	if resetSig != "" {
		envR = newProcEnv()
		if err := e.execStmt(sc, envR, resetBody); err != nil {
			return err
		}
	}
	// Connect each assigned register.
	keys := map[string]bool{}
	for k := range envN.vals {
		keys[k] = true
	}
	if envR != nil {
		for k := range envR.vals {
			keys[k] = true
		}
	}
	for _, k := range sortedKeys(keys) {
		q := sc.nets[k].sig
		if e.dffConnected(q) {
			return e.errf(sc, a.Line, "multiple drivers for %s", sc.nets[k].full)
		}
		next, ok := envN.vals[k]
		if !ok {
			next = q // hold
		}
		if envR != nil {
			rst, err := e.resolveNet(sc, resetSig, a.Line)
			if err != nil {
				return err
			}
			rst = e.boolify(rst)
			if !resetActive {
				rst = e.nl.Unary(netlist.KNot, rst)
			}
			rval, ok := envR.vals[k]
			if !ok {
				rval = q
			}
			// rst==1 selects the reset value.
			next = e.nl.Mux(rst, next, rval)
		}
		e.nl.ConnectDff(q, next)
	}
	return nil
}

// dffConnected reports whether the flip-flop with output q has its
// data input.
func (e *elaborator) dffConnected(q netlist.SignalID) bool {
	return len(e.nl.Gates[e.nl.Signals[q].Driver].In) > 0
}

// resetCondSignal matches "rst" or "!rst" / "~rst" conditions.
func resetCondSignal(cond verilog.Expr) (name string, active bool) {
	switch v := cond.(type) {
	case *verilog.Ident:
		return v.Name, true
	case *verilog.Unary:
		if v.Op == "!" || v.Op == "~" {
			if id, ok := v.X.(*verilog.Ident); ok {
				return id.Name, false
			}
		}
	}
	return "", false
}
