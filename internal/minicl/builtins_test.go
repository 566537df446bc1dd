package minicl

import (
	"math"
	"strings"
	"testing"
)

// TestRegisterRejects: a duplicate name, and a math builtin whose
// implementations do not take one argument per parameter, panic at
// registration and leave the registry as it was.
func TestRegisterRejects(t *testing.T) {
	n := len(Builtins)
	for _, tc := range []struct {
		name string
		b    Builtin
		want string
	}{
		{"duplicate", Builtin{Name: "sqrt", Args: []Type{TypeFloat}, Mnemonic: "sqrt", Float: math.Sqrt}, "already registered"},
		{"arity", Builtin{Name: "sqrt2", Args: []Type{TypeFloat, TypeFloat}, Mnemonic: "sqrt", Float: math.Sqrt}, "do not match"},
		{"no float", Builtin{Name: "imin", Args: []Type{{}, {}}, Poly: true, Mnemonic: "min",
			Int: func(x, y int64) int64 { return min(x, y) }}, "do not match"},
		{"int on non-poly", Builtin{Name: "fneg", Args: []Type{TypeFloat}, Mnemonic: "neg",
			Float: func(x float64) float64 { return -x }, Int: func(x int64) int64 { return -x }}, "do not match"},
		{"no mnemonic", Builtin{Name: "ident", Args: []Type{TypeFloat}, Float: func(x float64) float64 { return x }}, "do not match"},
	} {
		func() {
			defer func() {
				r := recover()
				if s, _ := r.(string); !strings.Contains(s, tc.want) {
					t.Errorf("%s: register panicked with %v, want %q", tc.name, r, tc.want)
				}
			}()
			register(tc.b)
		}()
	}
	if len(Builtins) != n {
		t.Errorf("registry grew from %d to %d entries", n, len(Builtins))
	}
}

// TestRegistryIndexes: IDs index Builtins, names look entries up, and
// every work-item query index has its builtin.
func TestRegistryIndexes(t *testing.T) {
	for i, b := range Builtins {
		if b.ID != i {
			t.Errorf("%s: ID %d at index %d", b.Name, b.ID, i)
		}
		if got, ok := LookupBuiltin(b.Name); !ok || got != b {
			t.Errorf("LookupBuiltin(%q) = %v, %v", b.Name, got, ok)
		}
		if b.Kind == BuiltinWorkItem && QueryBuiltin(b.Query) != b {
			t.Errorf("QueryBuiltin(%d) = %s, want %s", b.Query, QueryBuiltin(b.Query).Name, b.Name)
		}
	}
	if _, ok := LookupBuiltin("printf"); ok {
		t.Error("LookupBuiltin found an unregistered name")
	}
}
