// Package inspire defines the intermediate representation the framework
// analyses and executes. It plays the role of the Insieme Parallel
// Intermediate Representation (INSPIRE) in the paper: MiniCL kernels are
// lowered into this IR, static program features are extracted from it, the
// multi-device backend derives partition plans from it, and the interpreter
// and timing simulator execute it.
//
// The IR is a typed tree. Types are shared with the front-end
// (internal/minicl.Type) since MiniCL's type lattice is exactly the subset
// the rest of the pipeline needs.
package inspire

import (
	"fmt"

	"repro/internal/minicl"
)

// Op enumerates IR binary and unary operators.
type Op int

// Operators.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd // bitwise
	OpOr
	OpXor
	OpShl
	OpShr
	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe
	OpLAnd // logical
	OpLOr
	OpNeg // unary
	OpLNot
)

var opNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpAnd: "&", OpOr: "|", OpXor: "^", OpShl: "<<", OpShr: ">>",
	OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=", OpEq: "==", OpNe: "!=",
	OpLAnd: "&&", OpLOr: "||", OpNeg: "neg", OpLNot: "!",
}

// String returns the operator's source spelling.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// IsCompare reports whether the operator yields a bool from two numerics.
func (o Op) IsCompare() bool { return o >= OpLt && o <= OpNe }

// IsLogical reports whether the operator is && or ||.
func (o Op) IsLogical() bool { return o == OpLAnd || o == OpLOr }

// WIQuery enumerates work-item index space queries: a work-item
// builtin's minicl.Builtin.Query.
type WIQuery int

// Work-item query kinds, mirroring the OpenCL builtins.
const (
	GlobalID WIQuery = iota
	LocalID
	GroupID
	GlobalSize
	LocalSize
	NumGroups
)

// String returns the OpenCL builtin name of the query.
func (q WIQuery) String() string { return minicl.QueryBuiltin(int(q)).Name }

// Var is an IR variable: a kernel parameter or a declared local.
// Vars are compared by identity (pointer), IDs exist for printing and for
// dense interpreter frames.
type Var struct {
	ID    int
	Name  string
	Type  minicl.Type
	Param bool // true for kernel/function parameters
}

// String formats the variable as name%id.
func (v *Var) String() string { return fmt.Sprintf("%s%%%d", v.Name, v.ID) }

// Unit is a lowered program: all kernels plus callable helper functions.
type Unit struct {
	Name    string
	Kernels []*Function
	Helpers []*Function
}

// Kernel returns the kernel named name, or nil.
func (u *Unit) Kernel(name string) *Function {
	for _, k := range u.Kernels {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// Function is a lowered function body with its parameter variables.
// NumVars is the total number of variables (params + locals) so interpreter
// frames can be allocated densely.
type Function struct {
	Name    string
	Kernel  bool
	Params  []*Var
	Ret     minicl.Type
	Body    *Block
	NumVars int
}

// --- Statements ---

// Stmt is implemented by all IR statements.
type Stmt interface{ irStmt() }

// Block is a statement sequence.
type Block struct {
	Stmts []Stmt
}

// Decl declares (and optionally initializes) a local variable.
type Decl struct {
	Var  *Var
	Init Expr // may be nil → zero value
}

// StoreVar assigns a scalar variable.
type StoreVar struct {
	Var   *Var
	Value Expr
}

// StoreElem stores to a buffer element: Buf[Index] = Value.
type StoreElem struct {
	Buf   *Var
	Index Expr
	Value Expr
}

// If is a conditional.
type If struct {
	Cond Expr
	Then *Block
	Else *Block // may be nil
}

// For is a counted loop. Init and Post may be nil; Cond nil means forever.
type For struct {
	Init Stmt // *Decl or *StoreVar
	Cond Expr
	Post Stmt
	Body *Block
}

// While is a condition-controlled loop.
type While struct {
	Cond Expr
	Body *Block
}

// Return exits the function.
type Return struct {
	Value Expr // nil for void
}

// Break exits the innermost loop.
type Break struct{}

// Continue continues the innermost loop.
type Continue struct{}

// Barrier is a work-group barrier.
type Barrier struct{}

// Eval evaluates an expression for side effects (helper calls).
type Eval struct {
	X Expr
}

func (*Block) irStmt()     {}
func (*Decl) irStmt()      {}
func (*StoreVar) irStmt()  {}
func (*StoreElem) irStmt() {}
func (*If) irStmt()        {}
func (*For) irStmt()       {}
func (*While) irStmt()     {}
func (*Return) irStmt()    {}
func (*Break) irStmt()     {}
func (*Continue) irStmt()  {}
func (*Barrier) irStmt()   {}
func (*Eval) irStmt()      {}

// --- Expressions ---

// Expr is implemented by all IR expressions; all are typed.
type Expr interface {
	irExpr()
	// ExprType returns the static type of the expression.
	ExprType() minicl.Type
}

// ConstInt is an integer constant.
type ConstInt struct {
	Value int64
	Typ   minicl.Type
}

// ConstFloat is a floating-point constant.
type ConstFloat struct{ Value float64 }

// ConstBool is a boolean constant.
type ConstBool struct{ Value bool }

// VarRef reads a scalar variable (or references a buffer parameter when
// passed to helpers).
type VarRef struct{ Var *Var }

// Load reads a buffer element Buf[Index].
type Load struct {
	Buf   *Var
	Index Expr
}

// BinOp is a binary operation.
type BinOp struct {
	Op   Op
	L, R Expr
	Typ  minicl.Type
}

// UnOp is a unary operation (OpNeg, OpLNot).
type UnOp struct {
	Op  Op
	X   Expr
	Typ minicl.Type
}

// Select is the ternary operator.
type Select struct {
	Cond, Then, Else Expr
	Typ              minicl.Type
}

// Cast converts between scalar types.
type Cast struct {
	To minicl.Type
	X  Expr
}

// WorkItem queries the NDRange index space.
type WorkItem struct {
	Query WIQuery
	Dim   Expr
}

// CallBuiltin invokes a math builtin (sqrt, exp, min, ...): its registry
// entry, resolved once by lowering.
type CallBuiltin struct {
	Builtin *minicl.Builtin
	Args    []Expr
	Typ     minicl.Type
}

// CallFunc invokes a user helper function.
type CallFunc struct {
	Callee *Function
	Args   []Expr
}

func (*ConstInt) irExpr()    {}
func (*ConstFloat) irExpr()  {}
func (*ConstBool) irExpr()   {}
func (*VarRef) irExpr()      {}
func (*Load) irExpr()        {}
func (*BinOp) irExpr()       {}
func (*UnOp) irExpr()        {}
func (*Select) irExpr()      {}
func (*Cast) irExpr()        {}
func (*WorkItem) irExpr()    {}
func (*CallBuiltin) irExpr() {}
func (*CallFunc) irExpr()    {}

// ExprType implementations.
func (e *ConstInt) ExprType() minicl.Type    { return e.Typ }
func (e *ConstFloat) ExprType() minicl.Type  { return minicl.TypeFloat }
func (e *ConstBool) ExprType() minicl.Type   { return minicl.TypeBool }
func (e *VarRef) ExprType() minicl.Type      { return e.Var.Type }
func (e *Load) ExprType() minicl.Type        { return e.Buf.Type.Elem() }
func (e *BinOp) ExprType() minicl.Type       { return e.Typ }
func (e *UnOp) ExprType() minicl.Type        { return e.Typ }
func (e *Select) ExprType() minicl.Type      { return e.Typ }
func (e *Cast) ExprType() minicl.Type        { return e.To }
func (e *WorkItem) ExprType() minicl.Type    { return minicl.TypeInt }
func (e *CallBuiltin) ExprType() minicl.Type { return e.Typ }
func (e *CallFunc) ExprType() minicl.Type    { return e.Callee.Ret }
