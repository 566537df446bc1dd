// Package minicl implements the front-end for MiniCL, an OpenCL-C-like
// kernel language used as the input language of the partitioning framework.
//
// MiniCL covers the subset of OpenCL C exercised by the 23-program
// benchmark suite: scalar int/float arithmetic, global/local pointer
// parameters, work-item builtins (get_global_id and friends), structured
// control flow (if/for/while), and the common math builtins. The front-end
// produces a typed AST which internal/inspire lowers into the INSPIRE-like
// intermediate representation.
//
// The package also owns the builtin registry (builtins.go), the one place
// a builtin is declared: its signature, its cost class, its VM opcode
// mnemonic and its reference implementation. Sema, lowering, the static
// features, the closure oracle and the VM compiler all read it, so a new
// builtin is one registry entry (plus, for a math builtin, its VM opcodes
// and a row in the cross-tier builtin test).
package minicl

import "fmt"

// Kind enumerates lexical token kinds.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	IDENT
	INTLIT
	FLOATLIT

	// Keywords.
	KwKernel
	KwVoid
	KwInt
	KwUint
	KwFloat
	KwBool
	KwGlobal
	KwLocal
	KwConst
	KwIf
	KwElse
	KwFor
	KwWhile
	KwReturn
	KwTrue
	KwFalse
	KwBreak
	KwContinue

	// Punctuation and operators.
	LParen
	RParen
	LBrace
	RBrace
	LBracket
	RBracket
	Comma
	Semicolon
	Assign
	PlusAssign
	MinusAssign
	StarAssign
	SlashAssign
	Plus
	Minus
	Star
	Slash
	Percent
	Lt
	Gt
	Le
	Ge
	EqEq
	NotEq
	AndAnd
	OrOr
	Not
	Amp
	Pipe
	Caret
	Shl
	Shr
	Question
	Colon
	PlusPlus
	MinusMinus
)

var kindNames = map[Kind]string{
	EOF: "EOF", IDENT: "identifier", INTLIT: "int literal", FLOATLIT: "float literal",
	KwKernel: "kernel", KwVoid: "void", KwInt: "int", KwUint: "uint", KwFloat: "float",
	KwBool: "bool", KwGlobal: "global", KwLocal: "local", KwConst: "const",
	KwIf: "if", KwElse: "else", KwFor: "for", KwWhile: "while", KwReturn: "return",
	KwTrue: "true", KwFalse: "false", KwBreak: "break", KwContinue: "continue",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}", LBracket: "[", RBracket: "]",
	Comma: ",", Semicolon: ";", Assign: "=", PlusAssign: "+=", MinusAssign: "-=",
	StarAssign: "*=", SlashAssign: "/=", Plus: "+", Minus: "-", Star: "*", Slash: "/",
	Percent: "%", Lt: "<", Gt: ">", Le: "<=", Ge: ">=", EqEq: "==", NotEq: "!=",
	AndAnd: "&&", OrOr: "||", Not: "!", Amp: "&", Pipe: "|", Caret: "^",
	Shl: "<<", Shr: ">>", Question: "?", Colon: ":", PlusPlus: "++", MinusMinus: "--",
}

// String returns a human-readable name for the token kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var keywords = map[string]Kind{
	"kernel": KwKernel, "__kernel": KwKernel,
	"void": KwVoid, "int": KwInt, "uint": KwUint, "float": KwFloat, "bool": KwBool,
	"global": KwGlobal, "__global": KwGlobal,
	"local": KwLocal, "__local": KwLocal,
	"const": KwConst,
	"if":    KwIf, "else": KwElse, "for": KwFor, "while": KwWhile,
	"return": KwReturn, "true": KwTrue, "false": KwFalse,
	"break": KwBreak, "continue": KwContinue,
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

// String formats the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a single lexical token with its source text and position.
type Token struct {
	Kind Kind
	Text string
	Pos  Pos
}

// String renders the token for error messages.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INTLIT, FLOATLIT:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}
