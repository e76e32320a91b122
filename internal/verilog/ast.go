package verilog

// AST node definitions for the Verilog subset.

// Source is a parsed file: a set of modules.
type Source struct {
	Modules []*Module
}

// FindModule looks a module up by name.
func (s *Source) FindModule(name string) *Module {
	for _, m := range s.Modules {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Module is one module declaration.
type Module struct {
	Name   string
	Ports  []string // port order from the header
	Params []*Param
	Items  []Item
	Line   int
}

// Param is a parameter or localparam with a constant default.
type Param struct {
	Name  string
	Value Expr
	Local bool
	Line  int
}

// Item is a module-level item.
type Item interface{ item() }

// Dir is a port direction.
type Dir uint8

// Port directions.
const (
	DirNone Dir = iota
	DirInput
	DirOutput
	DirInout
)

// Decl declares ports, wires or regs. Width is [Msb:Lsb] or nil for
// 1-bit. ArrayLen > 0 declares a memory (reg [..] name [0:ArrayLen-1]).
type Decl struct {
	Dir      Dir
	Reg      bool
	Msb, Lsb Expr // nil for scalar
	Names    []string
	ArrayHi  Expr // nil unless a memory
	ArrayLo  Expr
	Line     int
}

func (*Decl) item() {}

// Assign is a continuous assignment.
type Assign struct {
	LHS  Expr
	RHS  Expr
	Line int
}

func (*Assign) item() {}

// EdgeKind distinguishes sensitivity entries.
type EdgeKind uint8

// Sensitivity edge kinds.
const (
	EdgeNone EdgeKind = iota // plain signal (level)
	EdgePos
	EdgeNeg
	EdgeStar // @(*)
)

// SensItem is one entry of a sensitivity list.
type SensItem struct {
	Edge   EdgeKind
	Signal string
}

// Always is an always block.
type Always struct {
	Sens []SensItem
	Body Stmt
	Line int
}

func (*Always) item() {}

// Initial is an initial block (used for register initial values).
type Initial struct {
	Body Stmt
	Line int
}

func (*Initial) item() {}

// Instance is a module instantiation with named or positional
// connections.
type Instance struct {
	ModName  string
	Name     string
	ParamOvr []Conn // #(.N(8)) overrides; positional allowed
	Conns    []Conn
	Line     int
}

func (*Instance) item() {}

// Conn is one port or parameter connection.
type Conn struct {
	Name string // empty for positional
	Expr Expr   // nil for unconnected .port()
}

// Stmt is a procedural statement.
type Stmt interface{ stmt() }

// Block is begin ... end.
type Block struct {
	Stmts []Stmt
}

func (*Block) stmt() {}

// If is if/else.
type If struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
	Line int
}

func (*If) stmt() {}

// CaseItem is one arm of a case statement.
type CaseItem struct {
	Labels []Expr // nil for default
	Body   Stmt
}

// Case is case/casez ... endcase.
type Case struct {
	Subject Expr
	Items   []CaseItem
	Casez   bool
	Line    int
}

func (*Case) stmt() {}

// AssignStmt is a procedural assignment.
type AssignStmt struct {
	LHS         Expr
	RHS         Expr
	NonBlocking bool
	Line        int
}

func (*AssignStmt) stmt() {}

// For is a constant-bound for loop (unrolled during elaboration).
type For struct {
	Var    string
	Init   Expr
	Cond   Expr
	StepOp string // "+" or "-"
	Step   Expr
	Body   Stmt
	Line   int
}

func (*For) stmt() {}

// Expr is an expression node.
type Expr interface{ expr() }

// Num is a literal. Sized literals carry their width; unsized decimals
// have Width == 0 and adapt to context (32-bit default).
type Num struct {
	Text string // original literal text
	Line int
}

func (*Num) expr() {}

// Ident is a name reference.
type Ident struct {
	Name string
	Line int
}

func (*Ident) expr() {}

// Index is base[idx] — a bit select or memory word select.
type Index struct {
	Base Expr
	Idx  Expr
	Line int
}

func (*Index) expr() {}

// RangeSel is base[msb:lsb] with constant bounds.
type RangeSel struct {
	Base     Expr
	Msb, Lsb Expr
	Line     int
}

func (*RangeSel) expr() {}

// Unary is a prefix operator: ! ~ - + & | ^ ~& ~| ~^.
type Unary struct {
	Op   string
	X    Expr
	Line int
}

func (*Unary) expr() {}

// Binary is an infix operator.
type Binary struct {
	Op   string
	A, B Expr
	Line int
}

func (*Binary) expr() {}

// Ternary is cond ? a : b.
type Ternary struct {
	Cond, A, B Expr
	Line       int
}

func (*Ternary) expr() {}

// ConcatExpr is {a, b, ...}.
type ConcatExpr struct {
	Parts []Expr
	Line  int
}

func (*ConcatExpr) expr() {}

// Repl is {n{x}}.
type Repl struct {
	Count Expr
	X     Expr
	Line  int
}

func (*Repl) expr() {}
