package minicl

import "fmt"

// BasicKind enumerates the scalar types of MiniCL.
type BasicKind int

// Scalar type kinds.
const (
	Void BasicKind = iota
	Int
	Uint
	Float
	Bool
)

// AddrSpace is an OpenCL address space qualifier for pointer types.
type AddrSpace int

// Address spaces. Private is used for scalars and is the default.
const (
	Private AddrSpace = iota
	Global
	Local
)

// String returns the OpenCL spelling of the address space.
func (a AddrSpace) String() string {
	switch a {
	case Global:
		return "global"
	case Local:
		return "local"
	default:
		return "private"
	}
}

// Type is a MiniCL type: either a scalar or a pointer to a scalar in a
// specific address space.
type Type struct {
	Basic BasicKind
	// Ptr marks pointer-to-Basic types (buffer parameters).
	Ptr bool
	// Space is the address space for pointer types.
	Space AddrSpace
	// Const marks read-only pointer parameters.
	Const bool
}

// Convenient prototypes for common types.
var (
	TypeVoid  = Type{Basic: Void}
	TypeInt   = Type{Basic: Int}
	TypeFloat = Type{Basic: Float}
	TypeBool  = Type{Basic: Bool}
)

// IsNumeric reports whether the type is a scalar int, uint or float.
func (t Type) IsNumeric() bool {
	return !t.Ptr && (t.Basic == Int || t.Basic == Uint || t.Basic == Float)
}

// IsInteger reports whether the type is a scalar int or uint.
func (t Type) IsInteger() bool {
	return !t.Ptr && (t.Basic == Int || t.Basic == Uint)
}

// IsFloat reports whether the type is the scalar float type.
func (t Type) IsFloat() bool { return !t.Ptr && t.Basic == Float }

// IsBool reports whether the type is the scalar bool type.
func (t Type) IsBool() bool { return !t.Ptr && t.Basic == Bool }

// Elem returns the scalar type pointed to by a pointer type.
func (t Type) Elem() Type {
	if !t.Ptr {
		panic("minicl: Elem on non-pointer type")
	}
	return Type{Basic: t.Basic}
}

// String returns the OpenCL-style spelling of the type.
func (t Type) String() string {
	base := ""
	switch t.Basic {
	case Void:
		base = "void"
	case Int:
		base = "int"
	case Uint:
		base = "uint"
	case Float:
		base = "float"
	case Bool:
		base = "bool"
	default:
		base = fmt.Sprintf("basic(%d)", int(t.Basic))
	}
	if !t.Ptr {
		return base
	}
	s := ""
	if t.Space != Private {
		s = t.Space.String() + " "
	}
	if t.Const {
		s += "const "
	}
	return s + base + "*"
}

// Equal reports type identity ignoring constness (which only affects
// assignability of stores, not value category).
func (t Type) Equal(o Type) bool {
	return t.Basic == o.Basic && t.Ptr == o.Ptr && (!t.Ptr || t.Space == o.Space)
}
