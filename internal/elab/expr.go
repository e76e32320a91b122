package elab

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bv"
	"repro/internal/netlist"
	"repro/internal/verilog"
)

// maxWidth caps every width: a declared range spans at most maxWidth
// bits, and a wider literal, concatenation, replication or assignment
// target is an error.
const maxWidth = 513

// fitWidth checks a width against maxWidth.
func (e *elaborator) fitWidth(sc *scope, line, w int) error {
	if w > maxWidth {
		return e.errf(sc, line, "expression wider than %d bits", maxWidth)
	}
	return nil
}

// literal parses a number, refusing a sized literal wider than
// maxWidth before its value is allocated.
func (e *elaborator) literal(sc *scope, v *verilog.Num) (bv.BV, error) {
	width, _, sized := strings.Cut(v.Text, "'")
	if w, err := strconv.Atoi(width); sized && err == nil && w > maxWidth {
		return bv.BV{}, e.fitWidth(sc, v.Line, w)
	}
	return bv.ParseVerilog(v.Text)
}

// replCount evaluates a replication's count, 1 to 512.
func (e *elaborator) replCount(sc *scope, v *verilog.Repl) (int, error) {
	cnt, err := e.constEval(sc, v.Count)
	if err != nil {
		return 0, err
	}
	if cnt == 0 || cnt > 512 {
		return 0, fmt.Errorf("elab: bad replication count %d", cnt)
	}
	return int(cnt), nil
}

// constEval evaluates a constant expression (parameters, loop
// variables, literals and operators over them) to a uint64.
func (e *elaborator) constEval(sc *scope, ex verilog.Expr) (uint64, error) {
	switch v := ex.(type) {
	case *verilog.Num:
		b, err := e.literal(sc, v)
		if err != nil {
			return 0, err
		}
		if b.Width() > 64 {
			return 0, fmt.Errorf("constant wider than 64 bits")
		}
		val, ok := b.Uint64()
		if !ok {
			return 0, fmt.Errorf("constant %q has unknown bits", v.Text)
		}
		return val, nil
	case *verilog.Ident:
		if c, ok := sc.consts[v.Name]; ok {
			return c, nil
		}
		if p, ok := sc.params[v.Name]; ok {
			return p, nil
		}
		return 0, fmt.Errorf("%q is not a constant", v.Name)
	case *verilog.Unary:
		x, err := e.constEval(sc, v.X)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "-":
			return -x, nil
		case "~":
			return ^x, nil
		case "!":
			if x == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("unsupported constant unary %q", v.Op)
	case *verilog.Binary:
		a, err := e.constEval(sc, v.A)
		if err != nil {
			return 0, err
		}
		b, err := e.constEval(sc, v.B)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "/":
			if b == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return a / b, nil
		case "%":
			if b == 0 {
				return 0, fmt.Errorf("modulo by zero")
			}
			return a % b, nil
		case "<<":
			return a << (b & 63), nil
		case ">>":
			return a >> (b & 63), nil
		case "&":
			return a & b, nil
		case "|":
			return a | b, nil
		case "^":
			return a ^ b, nil
		case "==":
			return b2u(a == b), nil
		case "!=":
			return b2u(a != b), nil
		case "<":
			return b2u(a < b), nil
		case ">":
			return b2u(a > b), nil
		case "<=":
			return b2u(a <= b), nil
		case ">=":
			return b2u(a >= b), nil
		case "&&":
			return b2u(a != 0 && b != 0), nil
		case "||":
			return b2u(a != 0 || b != 0), nil
		}
		return 0, fmt.Errorf("unsupported constant binary %q", v.Op)
	case *verilog.Ternary:
		c, err := e.constEval(sc, v.Cond)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return e.constEval(sc, v.A)
		}
		return e.constEval(sc, v.B)
	}
	return 0, fmt.Errorf("not a constant expression")
}

// selectBits resolves the constant select x[i] (an *verilog.Index) or
// x[m:l] (a *verilog.RangeSel) on a w-bit operand to the bits it names:
// w > msb >= lsb >= 0.
func (e *elaborator) selectBits(sc *scope, sel verilog.Expr, w int) (msb, lsb int, err error) {
	var hi, lo verilog.Expr
	var line int
	switch v := sel.(type) {
	case *verilog.Index:
		hi, lo, line = v.Idx, v.Idx, v.Line
	case *verilog.RangeSel:
		hi, lo, line = v.Msb, v.Lsb, v.Line
	}
	m, err := e.constEval(sc, hi)
	if err != nil {
		return 0, 0, e.errf(sc, line, "select bounds must be constant: %v", err)
	}
	l, err := e.constEval(sc, lo)
	if err != nil {
		return 0, 0, e.errf(sc, line, "select bounds must be constant: %v", err)
	}
	if l > m || m >= uint64(w) {
		return 0, 0, e.errf(sc, line, "select [%d:%d] is outside [%d:0]", int64(m), int64(l), w-1)
	}
	return int(m), int(l), nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// constEvalBV evaluates a constant to a three-valued vector of the
// given width (x digits in sized literals are preserved — used for
// initial values and casez labels).
func (e *elaborator) constEvalBV(sc *scope, ex verilog.Expr, width int) (bv.BV, error) {
	if num, ok := ex.(*verilog.Num); ok {
		b, err := e.literal(sc, num)
		if err != nil {
			return bv.BV{}, err
		}
		if b.Width() == width {
			return b, nil
		}
		return b.Zext(width), nil
	}
	v, err := e.constEval(sc, ex)
	if err != nil {
		return bv.BV{}, err
	}
	if width > 64 {
		return bv.FromUint64(64, v).Zext(width), nil
	}
	return bv.FromUint64(width, v), nil
}

// natWidth computes the self-determined width of an expression; 0 means
// "flexible" (unsized literal or parameter), which adapts to context.
// Elaborating an operator asks for its operands' widths, so sc.widths
// keeps each width: an operator chain then elaborates in linear time.
func (e *elaborator) natWidth(sc *scope, ex verilog.Expr) (w int, err error) {
	if w, ok := sc.widths[ex]; ok {
		return w, nil
	}
	defer func() {
		if err == nil {
			sc.widths[ex] = w
		}
	}()
	switch v := ex.(type) {
	case *verilog.Num:
		b, err := e.literal(sc, v)
		if err != nil {
			return 0, err
		}
		if hasExplicitWidth(v.Text) {
			return b.Width(), nil
		}
		return 0, nil
	case *verilog.Ident:
		if _, ok := sc.consts[v.Name]; ok {
			return 0, nil
		}
		if _, ok := sc.params[v.Name]; ok {
			return 0, nil
		}
		if ni := sc.nets[v.Name]; ni != nil {
			return ni.width, nil
		}
		if mi := sc.mems[v.Name]; mi != nil {
			return mi.width, nil
		}
		return 0, fmt.Errorf("undeclared identifier %q", v.Name)
	case *verilog.Index:
		if base, ok := v.Base.(*verilog.Ident); ok {
			if mi := sc.mems[base.Name]; mi != nil {
				return mi.width, nil
			}
		}
		return 1, nil
	case *verilog.RangeSel:
		w, err := e.natWidth(sc, v.Base)
		if err != nil {
			return 0, err
		}
		if w == 0 {
			w = 32 // as elabExpr sizes a flexible base
		}
		msb, lsb, err := e.selectBits(sc, v, w)
		return msb - lsb + 1, err
	case *verilog.Unary:
		switch v.Op {
		case "~", "-":
			return e.natWidth(sc, v.X)
		default: // reductions and !
			return 1, nil
		}
	case *verilog.Binary:
		switch v.Op {
		case "==", "!=", "<", ">", "<=", ">=", "&&", "||", "===", "!==":
			return 1, nil
		case "<<", ">>", "<<<", ">>>":
			return e.natWidth(sc, v.A)
		default:
			wa, err := e.natWidth(sc, v.A)
			if err != nil {
				return 0, err
			}
			wb, err := e.natWidth(sc, v.B)
			if err != nil {
				return 0, err
			}
			return max(wa, wb), nil
		}
	case *verilog.Ternary:
		wa, err := e.natWidth(sc, v.A)
		if err != nil {
			return 0, err
		}
		wb, err := e.natWidth(sc, v.B)
		if err != nil {
			return 0, err
		}
		return max(wa, wb), nil
	case *verilog.ConcatExpr:
		w := 0
		for _, p := range v.Parts {
			pw, err := e.natWidth(sc, p)
			if err != nil {
				return 0, err
			}
			if pw == 0 {
				pw = 32 // unsized inside concat defaults to 32 bits
			}
			w += pw
		}
		return w, e.fitWidth(sc, v.Line, w)
	case *verilog.Repl:
		cnt, err := e.replCount(sc, v)
		if err != nil {
			return 0, err
		}
		xw, err := e.natWidth(sc, v.X)
		if err != nil {
			return 0, err
		}
		if xw == 0 {
			xw = 32
		}
		return cnt * xw, e.fitWidth(sc, v.Line, cnt*xw)
	}
	return 0, fmt.Errorf("unsupported expression")
}

func hasExplicitWidth(text string) bool { return strings.IndexByte(text, '\'') > 0 }

// elabExpr builds gates for an expression. ctxWidth (0 = none) is the
// context width pushed down into arithmetic/bitwise operands, matching
// Verilog's context-determined sizing closely enough for the subset.
// The env carries values of nets assigned earlier in the enclosing
// procedural block (nil outside always blocks).
func (e *elaborator) elabExpr(sc *scope, ex verilog.Expr, ctxWidth int) (netlist.SignalID, error) {
	return e.elabExprEnv(sc, nil, ex, ctxWidth)
}

func (e *elaborator) elabExprEnv(sc *scope, env *procEnv, ex verilog.Expr, ctxWidth int) (netlist.SignalID, error) {
	nl := e.nl
	switch v := ex.(type) {
	case *verilog.Num:
		b, err := e.literal(sc, v)
		if err != nil {
			return 0, err
		}
		if !hasExplicitWidth(v.Text) {
			w := ctxWidth
			if w == 0 {
				w = 32
			}
			if b.Width() != w {
				b = b.Zext(w)
			}
		}
		return nl.Const(b), nil
	case *verilog.Ident:
		if c, ok := sc.consts[v.Name]; ok {
			w := ctxWidth
			if w == 0 {
				w = 32
			}
			return nl.ConstUint(w, c), nil
		}
		if p, ok := sc.params[v.Name]; ok {
			w := ctxWidth
			if w == 0 {
				w = 32
			}
			return nl.ConstUint(w, p), nil
		}
		return e.readVar(sc, env, v.Name, v.Line)
	case *verilog.Index:
		if base, ok := v.Base.(*verilog.Ident); ok {
			if mi := sc.mems[base.Name]; mi != nil {
				return e.memRead(sc, env, mi, v)
			}
		}
		baseSig, err := e.elabExprEnv(sc, env, v.Base, 0)
		if err != nil {
			return 0, err
		}
		if _, err := e.constEval(sc, v.Idx); err == nil {
			bit, _, err := e.selectBits(sc, v, nl.Width(baseSig))
			if err != nil {
				return 0, err
			}
			return nl.Slice(baseSig, bit, bit), nil
		}
		// Dynamic bit select: (base >> idx)[0].
		idxSig, err := e.elabExprEnv(sc, env, v.Idx, 0)
		if err != nil {
			return 0, err
		}
		shifted := nl.Binary(netlist.KShr, baseSig, idxSig)
		if nl.Width(shifted) == 1 {
			return shifted, nil
		}
		return nl.Slice(shifted, 0, 0), nil
	case *verilog.RangeSel:
		baseSig, err := e.elabExprEnv(sc, env, v.Base, 0)
		if err != nil {
			return 0, err
		}
		msb, lsb, err := e.selectBits(sc, v, nl.Width(baseSig))
		if err != nil {
			return 0, err
		}
		return nl.Slice(baseSig, msb, lsb), nil
	case *verilog.Unary:
		switch v.Op {
		case "~":
			x, err := e.elabExprEnv(sc, env, v.X, ctxWidth)
			if err != nil {
				return 0, err
			}
			return nl.Unary(netlist.KNot, x), nil
		case "-":
			x, err := e.elabExprEnv(sc, env, v.X, ctxWidth)
			if err != nil {
				return 0, err
			}
			zero := nl.ConstUint(nl.Width(x), 0)
			return nl.Binary(netlist.KSub, zero, x), nil
		case "!":
			x, err := e.elabExprEnv(sc, env, v.X, 0)
			if err != nil {
				return 0, err
			}
			return nl.Unary(netlist.KNot, e.boolify(x)), nil
		case "&":
			x, err := e.elabExprEnv(sc, env, v.X, 0)
			if err != nil {
				return 0, err
			}
			return nl.Unary(netlist.KRedAnd, x), nil
		case "|":
			x, err := e.elabExprEnv(sc, env, v.X, 0)
			if err != nil {
				return 0, err
			}
			return nl.Unary(netlist.KRedOr, x), nil
		case "^":
			x, err := e.elabExprEnv(sc, env, v.X, 0)
			if err != nil {
				return 0, err
			}
			return nl.Unary(netlist.KRedXor, x), nil
		}
		return 0, fmt.Errorf("elab: unsupported unary %q", v.Op)
	case *verilog.Binary:
		return e.elabBinary(sc, env, v, ctxWidth)
	case *verilog.Ternary:
		cond, err := e.elabExprEnv(sc, env, v.Cond, 0)
		if err != nil {
			return 0, err
		}
		wa, err := e.natWidth(sc, v.A)
		if err != nil {
			return 0, err
		}
		wb, err := e.natWidth(sc, v.B)
		if err != nil {
			return 0, err
		}
		w := max(wa, wb, ctxWidth)
		if w == 0 {
			w = 32
		}
		a, err := e.elabExprEnv(sc, env, v.A, w)
		if err != nil {
			return 0, err
		}
		b, err := e.elabExprEnv(sc, env, v.B, w)
		if err != nil {
			return 0, err
		}
		// Mux data order: data[0] = else, data[1] = then.
		return nl.Mux(e.boolify(cond), e.coerce(b, w), e.coerce(a, w)), nil
	case *verilog.ConcatExpr:
		var parts []netlist.SignalID
		for _, p := range v.Parts {
			ps, err := e.elabExprEnv(sc, env, p, 0)
			if err != nil {
				return 0, err
			}
			parts = append(parts, ps)
		}
		sig := nl.Concat(parts...)
		return sig, e.fitWidth(sc, v.Line, nl.Width(sig))
	case *verilog.Repl:
		cnt, err := e.replCount(sc, v)
		if err != nil {
			return 0, err
		}
		x, err := e.elabExprEnv(sc, env, v.X, 0)
		if err != nil {
			return 0, err
		}
		parts := make([]netlist.SignalID, cnt)
		for i := range parts {
			parts[i] = x
		}
		sig := nl.Concat(parts...)
		return sig, e.fitWidth(sc, v.Line, nl.Width(sig))
	}
	return 0, fmt.Errorf("elab: unsupported expression")
}

func (e *elaborator) elabBinary(sc *scope, env *procEnv, v *verilog.Binary, ctxWidth int) (netlist.SignalID, error) {
	nl := e.nl
	switch v.Op {
	case "&&", "||":
		a, err := e.elabExprEnv(sc, env, v.A, 0)
		if err != nil {
			return 0, err
		}
		b, err := e.elabExprEnv(sc, env, v.B, 0)
		if err != nil {
			return 0, err
		}
		k := netlist.KAnd
		if v.Op == "||" {
			k = netlist.KOr
		}
		return nl.Binary(k, e.boolify(a), e.boolify(b)), nil
	case "==", "!=", "<", ">", "<=", ">=", "===", "!==":
		wa, err := e.natWidth(sc, v.A)
		if err != nil {
			return 0, err
		}
		wb, err := e.natWidth(sc, v.B)
		if err != nil {
			return 0, err
		}
		w := max(wa, wb)
		if w == 0 {
			w = 32
		}
		a, err := e.elabExprEnv(sc, env, v.A, w)
		if err != nil {
			return 0, err
		}
		b, err := e.elabExprEnv(sc, env, v.B, w)
		if err != nil {
			return 0, err
		}
		a, b = e.coerce(a, w), e.coerce(b, w)
		var k netlist.Kind
		switch v.Op {
		case "==", "===":
			k = netlist.KEq
		case "!=", "!==":
			k = netlist.KNe
		case "<":
			k = netlist.KLt
		case ">":
			k = netlist.KGt
		case "<=":
			k = netlist.KLe
		case ">=":
			k = netlist.KGe
		}
		return nl.Binary(k, a, b), nil
	case "<<", ">>", "<<<", ">>>":
		a, err := e.elabExprEnv(sc, env, v.A, ctxWidth)
		if err != nil {
			return 0, err
		}
		b, err := e.elabExprEnv(sc, env, v.B, 0)
		if err != nil {
			return 0, err
		}
		k := netlist.KShl
		if v.Op == ">>" || v.Op == ">>>" {
			k = netlist.KShr
		}
		return nl.Binary(k, a, b), nil
	case "+", "-", "*", "&", "|", "^":
		wa, err := e.natWidth(sc, v.A)
		if err != nil {
			return 0, err
		}
		wb, err := e.natWidth(sc, v.B)
		if err != nil {
			return 0, err
		}
		w := max(wa, wb, ctxWidth)
		if w == 0 {
			w = 32
		}
		a, err := e.elabExprEnv(sc, env, v.A, w)
		if err != nil {
			return 0, err
		}
		b, err := e.elabExprEnv(sc, env, v.B, w)
		if err != nil {
			return 0, err
		}
		a, b = e.coerce(a, w), e.coerce(b, w)
		var k netlist.Kind
		switch v.Op {
		case "+":
			k = netlist.KAdd
		case "-":
			k = netlist.KSub
		case "*":
			k = netlist.KMul
		case "&":
			k = netlist.KAnd
		case "|":
			k = netlist.KOr
		case "^":
			k = netlist.KXor
		}
		return nl.Binary(k, a, b), nil
	case "/", "%":
		// Division only with constant operands (strength-reduced).
		av, errA := e.constEval(sc, v.A)
		bvv, errB := e.constEval(sc, v.B)
		if errA == nil && errB == nil && bvv != 0 {
			w := ctxWidth
			if w == 0 {
				w = 32
			}
			if v.Op == "/" {
				return nl.ConstUint(w, av/bvv), nil
			}
			return nl.ConstUint(w, av%bvv), nil
		}
		return 0, fmt.Errorf("elab: non-constant %q is not supported", v.Op)
	}
	return 0, fmt.Errorf("elab: unsupported binary %q", v.Op)
}

// boolify reduces a multi-bit value to one control bit (non-zero test).
func (e *elaborator) boolify(sig netlist.SignalID) netlist.SignalID {
	if e.nl.Width(sig) == 1 {
		return sig
	}
	return e.nl.Unary(netlist.KRedOr, sig)
}

// readVar reads a net inside (env != nil) or outside a procedural
// block.
func (e *elaborator) readVar(sc *scope, env *procEnv, name string, line int) (netlist.SignalID, error) {
	if env != nil {
		if sig, ok := env.vals[name]; ok {
			return sig, nil
		}
	}
	if ni := sc.nets[name]; ni != nil {
		return e.resolveNet(sc, name, line)
	}
	return 0, fmt.Errorf("elab: undeclared identifier %q (line %d)", name, line)
}

// memRead builds the read mux tree for mem[addr].
func (e *elaborator) memRead(sc *scope, env *procEnv, mi *memInfo, ix *verilog.Index) (netlist.SignalID, error) {
	if _, err := e.constEval(sc, ix.Idx); err == nil {
		w, _, err := e.selectBits(sc, ix, mi.words)
		if err != nil {
			return 0, err
		}
		return e.memWord(env, mi, w), nil
	}
	addrSig, err := e.elabExprEnv(sc, env, ix.Idx, 0)
	if err != nil {
		return 0, err
	}
	data := make([]netlist.SignalID, mi.words)
	for w := range data {
		data[w] = e.memWord(env, mi, w)
	}
	return e.nl.Mux(addrSig, data...), nil
}

// memWord returns the current value of word w (env override or the
// register output).
func (e *elaborator) memWord(env *procEnv, mi *memInfo, w int) netlist.SignalID {
	wn := mi.wordNets[w]
	if env != nil {
		if sig, ok := env.vals[wn.name]; ok {
			return sig
		}
	}
	return wn.sig
}
