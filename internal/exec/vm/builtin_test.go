package vm

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/minicl"
)

// TestBindBuiltinsPanics: a registered math builtin whose mnemonic names
// no opcode, or one that takes other operands than it has arguments, or
// one that already runs a builtin of another cost class, stops the
// package at init.
func TestBindBuiltinsPanics(t *testing.T) {
	saved := minicl.Builtins
	defer func() {
		minicl.Builtins = saved
		bindBuiltins()
	}()
	f1 := []minicl.Type{minicl.TypeFloat}
	for _, tc := range []struct {
		b    minicl.Builtin
		want string
	}{
		{minicl.Builtin{Name: "erf", Args: f1, Mnemonic: "erf", Float: math.Erf}, "no opcode erf.f"},
		{minicl.Builtin{Name: "hypot", Args: []minicl.Type{minicl.TypeFloat, minicl.TypeFloat}, Mnemonic: "sqrt",
			Float: math.Hypot}, "does not take 2 operands"},
		{minicl.Builtin{Name: "cbrt", Args: f1, Cost: minicl.CostTranscendental, Mnemonic: "abs",
			Float: math.Cbrt}, "of two cost classes"},
	} {
		b := tc.b
		b.ID = len(saved)
		minicl.Builtins = append(slices.Clip(saved), &b)
		func() {
			defer func() {
				if s, _ := recover().(string); !strings.Contains(s, tc.want) {
					t.Errorf("%s: bindBuiltins panicked with %q, want %q", b.Name, s, tc.want)
				}
			}()
			bindBuiltins()
		}()
	}
}
