package verilog

import (
	"fmt"
)

// maxDepth bounds the depth of the tree Parse builds, and so every
// later walk over it. A statement in another (else-if chains nest) and
// each parenthesis, operator, ternary, concatenation, replication and
// select count a level; a flat a^a^…^a is as deep as it is long.
const maxDepth = 1000

// Parser is a recursive-descent parser that reads tokens from the
// lexer as it goes: it holds the one token it looks at, so no more of
// the source is lexed than has been parsed.
type Parser struct {
	lex *Lexer
	tok Token
	// lexErr is the lexer's error once the parser has reached it; tok
	// is then an end of input, and every error reports lexErr.
	lexErr error
	// pendingParams collects body-level parameter declarations for the
	// module currently being parsed.
	pendingParams []*Param
	// depth counts the levels open around the point being parsed, and
	// height is the height of the expression parsed last; see fits.
	depth, height int
}

// Parse parses a full source file.
func Parse(src string) (*Source, error) {
	p := &Parser{lex: NewLexer(src)}
	p.advance()
	out := &Source{}
	for !p.atEOF() {
		m, err := p.parseModule()
		if err != nil {
			return nil, err
		}
		out.Modules = append(out.Modules, m)
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return out, nil
}

// advance reads the next token into p.tok.
func (p *Parser) advance() {
	t, err := p.lex.Next()
	if err != nil {
		p.lexErr = err
		t = Token{Kind: TEOF, Line: p.lex.line}
	}
	p.tok = t
}

func (p *Parser) cur() Token  { return p.tok }
func (p *Parser) atEOF() bool { return p.tok.Kind == TEOF }

func (p *Parser) next() Token {
	t := p.tok
	if t.Kind != TEOF {
		p.advance()
	}
	return t
}

func (p *Parser) errf(format string, args ...interface{}) error {
	if p.lexErr != nil {
		return p.lexErr
	}
	t := p.cur()
	return fmt.Errorf("line %d: %s (at %q)", t.Line, fmt.Sprintf(format, args...), t.Text)
}

func (p *Parser) accept(text string) bool {
	if p.cur().Text == text && (p.cur().Kind == TPunct || p.cur().Kind == TKeyword) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %q", text)
	}
	return nil
}

// fits records h as the height of the expression being built and
// checks that the tree stays within maxDepth.
func (p *Parser) fits(h int) error {
	if p.height = h; p.depth+h > maxDepth {
		return p.errf("nesting deeper than %d levels", maxDepth)
	}
	return nil
}

// nested parses what sits one level below the point being parsed.
func nested[T any](p *Parser, parse func() (T, error)) (T, error) {
	p.depth++
	defer func() { p.depth-- }()
	if err := p.fits(1); err != nil {
		var none T
		return none, err
	}
	return parse()
}

func (p *Parser) expectIdent() (string, error) {
	if p.cur().Kind != TIdent {
		return "", p.errf("expected identifier")
	}
	return p.next().Text, nil
}

func (p *Parser) parseModule() (*Module, error) {
	if err := p.expect("module"); err != nil {
		return nil, err
	}
	m := &Module{Line: p.cur().Line}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	m.Name = name
	// Optional parameter header #(parameter N = 8, ...)
	if p.accept("#") {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		for {
			p.accept("parameter")
			line := p.cur().Line
			pname, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expect("="); err != nil {
				return nil, err
			}
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			m.Params = append(m.Params, &Param{Name: pname, Value: val, Line: line})
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	// Port list. Supports both plain names and ANSI declarations
	// (input [3:0] a, output reg b, ...).
	if p.accept("(") {
		if !p.accept(")") {
			for {
				if p.cur().Text == "input" || p.cur().Text == "output" || p.cur().Text == "inout" {
					decl, err := p.parseAnsiPort()
					if err != nil {
						return nil, err
					}
					m.Items = append(m.Items, decl)
					m.Ports = append(m.Ports, decl.Names...)
				} else {
					n, err := p.expectIdent()
					if err != nil {
						return nil, err
					}
					m.Ports = append(m.Ports, n)
				}
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	for !p.accept("endmodule") {
		if p.atEOF() {
			return nil, p.errf("missing endmodule for %q", m.Name)
		}
		items, err := p.parseItem()
		if err != nil {
			return nil, err
		}
		m.Items = append(m.Items, items...)
		m.Params = append(m.Params, p.pendingParams...)
		p.pendingParams = nil
	}
	return m, nil
}

// parseAnsiPort parses one ANSI-style port declaration inside the port
// list; it consumes exactly one name (multiple names in ANSI lists are
// separated by commas handled by the caller via repeated direction
// keywords or bare names continuing the previous declaration — for
// simplicity we require the direction keyword per port group).
func (p *Parser) parseAnsiPort() (*Decl, error) {
	d := &Decl{Line: p.cur().Line}
	switch p.next().Text {
	case "input":
		d.Dir = DirInput
	case "output":
		d.Dir = DirOutput
	case "inout":
		d.Dir = DirInout
	}
	if p.accept("reg") {
		d.Reg = true
	}
	p.accept("wire")
	if p.cur().Text == "[" {
		msb, lsb, err := p.parseRange()
		if err != nil {
			return nil, err
		}
		d.Msb, d.Lsb = msb, lsb
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d.Names = []string{name}
	return d, nil
}

func (p *Parser) parseRange() (msb, lsb Expr, err error) {
	if err := p.expect("["); err != nil {
		return nil, nil, err
	}
	msb, err = p.parseExpr()
	if err != nil {
		return nil, nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, nil, err
	}
	lsb, err = p.parseExpr()
	if err != nil {
		return nil, nil, err
	}
	if err := p.expect("]"); err != nil {
		return nil, nil, err
	}
	return msb, lsb, nil
}

func (p *Parser) parseItem() ([]Item, error) {
	t := p.cur()
	switch t.Text {
	case "input", "output", "inout", "wire", "reg", "integer":
		d, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		return []Item{d}, nil
	case "parameter", "localparam":
		return nil, p.parseParams()
	case "assign":
		p.next()
		var items []Item
		for {
			lhs, err := p.parseLValue()
			if err != nil {
				return nil, err
			}
			if err := p.expect("="); err != nil {
				return nil, err
			}
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			items = append(items, &Assign{LHS: lhs, RHS: rhs, Line: t.Line})
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return items, nil
	case "always":
		a, err := p.parseAlways()
		if err != nil {
			return nil, err
		}
		return []Item{a}, nil
	case "initial":
		p.next()
		body, err := nested(p, p.parseStmt)
		if err != nil {
			return nil, err
		}
		return []Item{&Initial{Body: body, Line: t.Line}}, nil
	default:
		if t.Kind == TIdent {
			inst, err := p.parseInstance()
			if err != nil {
				return nil, err
			}
			return []Item{inst}, nil
		}
		return nil, p.errf("unexpected module item")
	}
}

// parseParams handles "parameter N = 1, M = 2;". It adds no module
// item: the parameters go to pendingParams, which parseModule appends
// to the module's parameter list.
func (p *Parser) parseParams() error {
	local := p.cur().Text == "localparam"
	p.next()
	for {
		line := p.cur().Line
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expect("="); err != nil {
			return err
		}
		val, err := p.parseExpr()
		if err != nil {
			return err
		}
		p.pendingParams = append(p.pendingParams, &Param{Name: name, Value: val, Local: local, Line: line})
		if !p.accept(",") {
			break
		}
	}
	return p.expect(";")
}

func (p *Parser) parseDecl() (*Decl, error) {
	d := &Decl{Line: p.cur().Line}
	switch p.cur().Text {
	case "input":
		d.Dir = DirInput
		p.next()
	case "output":
		d.Dir = DirOutput
		p.next()
	case "inout":
		d.Dir = DirInout
		p.next()
	}
	if p.accept("reg") {
		d.Reg = true
	} else if p.accept("integer") {
		d.Reg = true
		d.Msb = &Num{Text: "31"}
		d.Lsb = &Num{Text: "0"}
	} else {
		p.accept("wire")
	}
	if p.cur().Text == "[" {
		msb, lsb, err := p.parseRange()
		if err != nil {
			return nil, err
		}
		d.Msb, d.Lsb = msb, lsb
	}
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		d.Names = append(d.Names, name)
		// Memory dimension?
		if p.cur().Text == "[" {
			hi, lo, err := p.parseRange()
			if err != nil {
				return nil, err
			}
			d.ArrayHi, d.ArrayLo = hi, lo
		}
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseAlways() (*Always, error) {
	a := &Always{Line: p.cur().Line}
	p.next() // always
	if err := p.expect("@"); err != nil {
		return nil, err
	}
	if p.accept("*") {
		a.Sens = []SensItem{{Edge: EdgeStar}}
	} else {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		if p.accept("*") {
			a.Sens = []SensItem{{Edge: EdgeStar}}
		} else {
			for {
				var it SensItem
				if p.accept("posedge") {
					it.Edge = EdgePos
				} else if p.accept("negedge") {
					it.Edge = EdgeNeg
				}
				name, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				it.Signal = name
				a.Sens = append(a.Sens, it)
				if !p.accept("or") && !p.accept(",") {
					break
				}
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	body, err := nested(p, p.parseStmt)
	if err != nil {
		return nil, err
	}
	a.Body = body
	return a, nil
}

func (p *Parser) parseInstance() (*Instance, error) {
	inst := &Instance{Line: p.cur().Line}
	inst.ModName = p.next().Text
	if p.accept("#") {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		conns, err := p.parseConnList()
		if err != nil {
			return nil, err
		}
		inst.ParamOvr = conns
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	inst.Name = name
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if !p.accept(")") {
		conns, err := p.parseConnList()
		if err != nil {
			return nil, err
		}
		inst.Conns = conns
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return inst, nil
}

func (p *Parser) parseConnList() ([]Conn, error) {
	var out []Conn
	for {
		var c Conn
		if p.accept(".") {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			c.Name = name
			if err := p.expect("("); err != nil {
				return nil, err
			}
			if !p.accept(")") {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				c.Expr = e
				if err := p.expect(")"); err != nil {
					return nil, err
				}
			}
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c.Expr = e
		}
		out = append(out, c)
		if !p.accept(",") {
			return out, nil
		}
	}
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch {
	case t.Text == "begin":
		p.next()
		// optional label
		if p.accept(":") {
			if _, err := p.expectIdent(); err != nil {
				return nil, err
			}
		}
		b := &Block{}
		for !p.accept("end") {
			if p.atEOF() {
				return nil, p.errf("missing end")
			}
			s, err := nested(p, p.parseStmt)
			if err != nil {
				return nil, err
			}
			b.Stmts = append(b.Stmts, s)
		}
		return b, nil
	case t.Text == "if":
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := nested(p, p.parseStmt)
		if err != nil {
			return nil, err
		}
		node := &If{Cond: cond, Then: then, Line: t.Line}
		if p.accept("else") {
			els, err := nested(p, p.parseStmt)
			if err != nil {
				return nil, err
			}
			node.Else = els
		}
		return node, nil
	case t.Text == "case" || t.Text == "casez":
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		subj, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		c := &Case{Subject: subj, Casez: t.Text == "casez", Line: t.Line}
		for !p.accept("endcase") {
			if p.atEOF() {
				return nil, p.errf("missing endcase")
			}
			var item CaseItem
			if p.accept("default") {
				p.accept(":")
			} else {
				for {
					lab, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					item.Labels = append(item.Labels, lab)
					if !p.accept(",") {
						break
					}
				}
				if err := p.expect(":"); err != nil {
					return nil, err
				}
			}
			body, err := nested(p, p.parseStmt)
			if err != nil {
				return nil, err
			}
			item.Body = body
			c.Items = append(c.Items, item)
		}
		return c, nil
	case t.Text == "for":
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		v, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		v2, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if v2 != v {
			return nil, p.errf("for-loop step must update %q", v)
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		stepExpr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		bin, ok := stepExpr.(*Binary)
		if !ok || (bin.Op != "+" && bin.Op != "-") {
			return nil, p.errf("for-loop step must be %s = %s ± const", v, v)
		}
		if id, ok := bin.A.(*Ident); !ok || id.Name != v {
			return nil, p.errf("for-loop step must be %s = %s ± const", v, v)
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := nested(p, p.parseStmt)
		if err != nil {
			return nil, err
		}
		return &For{Var: v, Init: init, Cond: cond, StepOp: bin.Op, Step: bin.B, Body: body, Line: t.Line}, nil
	case t.Text == ";":
		p.next()
		return &Block{}, nil
	default:
		// assignment: lvalue (=|<=) expr ;  The left side is parsed
		// with the dedicated lvalue grammar — using the full expression
		// parser would swallow the non-blocking "<=" as a comparison.
		lhs, err := p.parseLValue()
		if err != nil {
			return nil, err
		}
		nb := false
		if p.accept("<=") {
			nb = true
		} else if !p.accept("=") {
			return nil, p.errf("expected assignment")
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &AssignStmt{LHS: lhs, RHS: rhs, NonBlocking: nb, Line: t.Line}, nil
	}
}

// parseLValue parses an assignment target: an identifier with optional
// bit/part selects, or a concatenation of lvalues.
func (p *Parser) parseLValue() (Expr, error) {
	if p.cur().Text == "{" {
		t := p.next()
		c := &ConcatExpr{Line: t.Line}
		for {
			e, err := nested(p, p.parseLValue)
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, e)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect("}"); err != nil {
			return nil, err
		}
		return c, nil
	}
	t := p.cur()
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	p.height = 1
	return p.parseSelects(&Ident{Name: name, Line: t.Line})
}

// parseSelects parses the [i] and [m:l] selects that follow e, whose
// height is p.height.
func (p *Parser) parseSelects(e Expr) (Expr, error) {
	for p.cur().Text == "[" {
		h := p.height
		line := p.next().Line
		first, err := nested(p, p.parseExpr)
		if err != nil {
			return nil, err
		}
		h = max(h, p.height)
		if p.accept(":") {
			lsb, err := nested(p, p.parseExpr)
			if err != nil {
				return nil, err
			}
			h = max(h, p.height)
			e = &RangeSel{Base: e, Msb: first, Lsb: lsb, Line: line}
		} else {
			e = &Index{Base: e, Idx: first, Line: line}
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		if err := p.fits(h + 1); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Operator precedence (low to high); the parser uses precedence
// climbing over this table.
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6, "===": 6, "!==": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8, "<<<": 8, ">>>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *Parser) parseExpr() (Expr, error) {
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if !p.accept("?") {
		return cond, nil
	}
	h := p.height
	a, err := nested(p, p.parseExpr)
	if err != nil {
		return nil, err
	}
	h = max(h, p.height)
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	b, err := nested(p, p.parseExpr)
	if err != nil {
		return nil, err
	}
	return &Ternary{Cond: cond, A: a, B: b}, p.fits(max(h, p.height) + 1)
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TPunct {
			return lhs, nil
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		h := p.height
		op := p.next().Text
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		if err := p.fits(max(h, p.height) + 1); err != nil {
			return nil, err
		}
		lhs = &Binary{Op: op, A: lhs, B: rhs, Line: t.Line}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.Kind == TPunct {
		switch t.Text {
		case "!", "~", "-", "+", "&", "|", "^":
			p.next()
			x, err := nested(p, p.parseUnary)
			if err != nil {
				return nil, err
			}
			if t.Text == "+" {
				return x, p.fits(p.height + 1)
			}
			return &Unary{Op: t.Text, X: x, Line: t.Line}, p.fits(p.height + 1)
		}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	return p.parseSelects(e)
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TNumber:
		p.next()
		return &Num{Text: t.Text, Line: t.Line}, p.fits(1)
	case t.Kind == TIdent:
		p.next()
		return &Ident{Name: t.Text, Line: t.Line}, p.fits(1)
	case t.Text == "(":
		p.next()
		e, err := nested(p, p.parseExpr)
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, p.fits(p.height + 1)
	case t.Text == "{":
		p.next()
		first, err := nested(p, p.parseExpr)
		if err != nil {
			return nil, err
		}
		h := p.height
		// Replication {n{x}}?
		if p.cur().Text == "{" {
			p.next()
			x, err := nested(p, p.parseExpr)
			if err != nil {
				return nil, err
			}
			if err := p.expect("}"); err != nil {
				return nil, err
			}
			if err := p.expect("}"); err != nil {
				return nil, err
			}
			return &Repl{Count: first, X: x, Line: t.Line}, p.fits(max(h, p.height) + 1)
		}
		c := &ConcatExpr{Parts: []Expr{first}, Line: t.Line}
		for p.accept(",") {
			e, err := nested(p, p.parseExpr)
			if err != nil {
				return nil, err
			}
			h = max(h, p.height)
			c.Parts = append(c.Parts, e)
		}
		if err := p.expect("}"); err != nil {
			return nil, err
		}
		return c, p.fits(h + 1)
	default:
		return nil, p.errf("unexpected token in expression")
	}
}
