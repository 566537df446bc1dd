package minicl

import "testing"

// Pointer types as buffer parameters declare them.
var (
	constFloatBuf = Type{Basic: Float, Ptr: true, Space: Global, Const: true}
	floatBuf      = Type{Basic: Float, Ptr: true, Space: Global}
	intBuf        = Type{Basic: Int, Ptr: true, Space: Global}
	localFloatBuf = Type{Basic: Float, Ptr: true, Space: Local}
	typeUint      = Type{Basic: Uint}
)

func TestTypeStrings(t *testing.T) {
	cases := []struct {
		ty   Type
		want string
	}{
		{TypeVoid, "void"},
		{TypeInt, "int"},
		{typeUint, "uint"},
		{TypeFloat, "float"},
		{TypeBool, "bool"},
		{constFloatBuf, "global const float*"},
		{intBuf, "global int*"},
		{localFloatBuf, "local float*"},
	}
	for _, c := range cases {
		if got := c.ty.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestTypePredicates(t *testing.T) {
	if !TypeInt.IsNumeric() || !TypeFloat.IsNumeric() || TypeBool.IsNumeric() {
		t.Error("IsNumeric wrong")
	}
	if !TypeInt.IsInteger() || !typeUint.IsInteger() || TypeFloat.IsInteger() {
		t.Error("IsInteger wrong")
	}
	if floatBuf.IsNumeric() {
		t.Error("pointer is not numeric")
	}
	if !TypeBool.IsBool() || TypeInt.IsBool() {
		t.Error("IsBool wrong")
	}
}

func TestTypeElemAndSize(t *testing.T) {
	el := constFloatBuf.Elem()
	if !el.IsFloat() || el.Ptr {
		t.Errorf("Elem = %s", el)
	}
	defer func() {
		if recover() == nil {
			t.Error("Elem on scalar should panic")
		}
	}()
	TypeInt.Elem()
}

func TestTypeEqualIgnoresConst(t *testing.T) {
	if !constFloatBuf.Equal(floatBuf) {
		t.Error("const should not affect type identity")
	}
	if constFloatBuf.Equal(localFloatBuf) {
		t.Error("address spaces must distinguish pointer types")
	}
	if TypeInt.Equal(TypeFloat) {
		t.Error("int == float")
	}
}

func TestAddrSpaceString(t *testing.T) {
	if Global.String() != "global" || Local.String() != "local" || Private.String() != "private" {
		t.Error("AddrSpace.String wrong")
	}
}

func TestPosString(t *testing.T) {
	if (Pos{Line: 3, Col: 7}).String() != "3:7" {
		t.Error("Pos.String wrong")
	}
}

func TestTokenString(t *testing.T) {
	tok := Token{Kind: IDENT, Text: "foo"}
	if got := tok.String(); got != `identifier "foo"` {
		t.Errorf("Token.String = %q", got)
	}
	if got := (Token{Kind: LParen}).String(); got != "(" {
		t.Errorf("punct token String = %q", got)
	}
}
