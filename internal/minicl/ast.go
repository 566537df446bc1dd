package minicl

// Node is the interface implemented by all AST nodes.
type Node interface {
	// NodePos returns the source position of the node.
	NodePos() Pos
}

// Program is a parsed MiniCL translation unit: one or more kernel or helper
// functions.
type Program struct {
	Funcs []*FuncDecl
}

// Param is a function parameter declaration.
type Param struct {
	Name string
	Type Type
	Pos  Pos
}

// FuncDecl is a function definition; kernels have IsKernel set.
type FuncDecl struct {
	Name     string
	IsKernel bool
	Params   []*Param
	Ret      Type
	Body     *BlockStmt
	Pos      Pos
}

// NodePos implements Node.
func (f *FuncDecl) NodePos() Pos { return f.Pos }

// --- Statements ---

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// BlockStmt is a brace-delimited statement list.
type BlockStmt struct {
	Stmts []Stmt
	Pos   Pos
}

// DeclStmt declares a scalar local variable with an optional initializer.
type DeclStmt struct {
	Name string
	Type Type
	Init Expr // may be nil
	Pos  Pos
}

// AssignStmt stores to a variable or buffer element. Op is Assign or one of
// the compound-assignment kinds (PlusAssign etc.).
type AssignStmt struct {
	Target Expr // *Ident or *Index
	Op     Kind
	Value  Expr
	Pos    Pos
}

// IncDecStmt is i++ / i-- used as a statement.
type IncDecStmt struct {
	Target Expr
	Dec    bool
	Pos    Pos
}

// IfStmt is a conditional with optional else branch.
type IfStmt struct {
	Cond Expr
	Then *BlockStmt
	Else Stmt // *BlockStmt, *IfStmt or nil
	Pos  Pos
}

// ForStmt is the canonical three-clause counted loop.
type ForStmt struct {
	Init Stmt // *DeclStmt or *AssignStmt, may be nil
	Cond Expr // may be nil (treated as true)
	Post Stmt // *AssignStmt or *IncDecStmt, may be nil
	Body *BlockStmt
	Pos  Pos
}

// WhileStmt is a condition-controlled loop.
type WhileStmt struct {
	Cond Expr
	Body *BlockStmt
	Pos  Pos
}

// ReturnStmt exits the function; kernels return void so Value is usually nil.
type ReturnStmt struct {
	Value Expr // may be nil
	Pos   Pos
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Pos Pos }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Pos Pos }

// ExprStmt evaluates an expression for its side effects (builtin calls such
// as barrier()).
type ExprStmt struct {
	X   Expr
	Pos Pos
}

// NodePos implementations.
func (s *BlockStmt) NodePos() Pos    { return s.Pos }
func (s *DeclStmt) NodePos() Pos     { return s.Pos }
func (s *AssignStmt) NodePos() Pos   { return s.Pos }
func (s *IncDecStmt) NodePos() Pos   { return s.Pos }
func (s *IfStmt) NodePos() Pos       { return s.Pos }
func (s *ForStmt) NodePos() Pos      { return s.Pos }
func (s *WhileStmt) NodePos() Pos    { return s.Pos }
func (s *ReturnStmt) NodePos() Pos   { return s.Pos }
func (s *BreakStmt) NodePos() Pos    { return s.Pos }
func (s *ContinueStmt) NodePos() Pos { return s.Pos }
func (s *ExprStmt) NodePos() Pos     { return s.Pos }

func (*BlockStmt) stmtNode()    {}
func (*DeclStmt) stmtNode()     {}
func (*AssignStmt) stmtNode()   {}
func (*IncDecStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*ForStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ExprStmt) stmtNode()     {}

// --- Expressions ---

// Expr is implemented by all expression nodes. After type checking, Type()
// reports the expression's MiniCL type.
type Expr interface {
	Node
	exprNode()
	// Type returns the checked type (zero Type before sema).
	Type() Type
}

// typed carries the sema-assigned type; embedded in all expression nodes.
type typed struct{ typ Type }

// Type returns the checked type of the expression.
func (t *typed) Type() Type { return t.typ }

func (t *typed) setType(ty Type) { t.typ = ty }

// Ident is a reference to a parameter or local variable.
type Ident struct {
	typed
	Name string
	Pos  Pos
}

// IntLit is an integer literal.
type IntLit struct {
	typed
	Value int64
	Pos   Pos
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	typed
	Value float64
	Pos   Pos
}

// BoolLit is true or false.
type BoolLit struct {
	typed
	Value bool
	Pos   Pos
}

// BinaryExpr is a binary operation; Op is one of the operator token kinds.
type BinaryExpr struct {
	typed
	Op   Kind
	L, R Expr
	Pos  Pos
}

// UnaryExpr is -x or !x.
type UnaryExpr struct {
	typed
	Op  Kind
	X   Expr
	Pos Pos
}

// CondExpr is the ternary c ? a : b.
type CondExpr struct {
	typed
	Cond, Then, Else Expr
	Pos              Pos
}

// Index is a buffer element access buf[i].
type Index struct {
	typed
	Base  Expr // pointer-typed
	Index Expr // integer-typed
	Pos   Pos
}

// CallExpr is a call to a builtin or helper function.
type CallExpr struct {
	typed
	Name string
	Args []Expr
	Pos  Pos
}

// CastExpr is an explicit conversion (float)x or (int)x.
type CastExpr struct {
	typed
	To  Type
	X   Expr
	Pos Pos
}

// NodePos implementations.
func (e *Ident) NodePos() Pos      { return e.Pos }
func (e *IntLit) NodePos() Pos     { return e.Pos }
func (e *FloatLit) NodePos() Pos   { return e.Pos }
func (e *BoolLit) NodePos() Pos    { return e.Pos }
func (e *BinaryExpr) NodePos() Pos { return e.Pos }
func (e *UnaryExpr) NodePos() Pos  { return e.Pos }
func (e *CondExpr) NodePos() Pos   { return e.Pos }
func (e *Index) NodePos() Pos      { return e.Pos }
func (e *CallExpr) NodePos() Pos   { return e.Pos }
func (e *CastExpr) NodePos() Pos   { return e.Pos }

func (*Ident) exprNode()      {}
func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*BoolLit) exprNode()    {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}
func (*CondExpr) exprNode()   {}
func (*Index) exprNode()      {}
func (*CallExpr) exprNode()   {}
func (*CastExpr) exprNode()   {}
