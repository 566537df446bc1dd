package minicl

import (
	"fmt"
	"math"
)

// BuiltinKind says what a call to a builtin is.
type BuiltinKind uint8

// Builtin kinds.
const (
	// BuiltinMath is a pure function of its arguments: Float computes it
	// (and Int, for a Poly builtin called on integers).
	BuiltinMath BuiltinKind = iota
	// BuiltinWorkItem queries the NDRange index space; Query says which.
	BuiltinWorkItem
	// BuiltinBarrier is the work-group barrier.
	BuiltinBarrier
)

// CostClass is the profile counter one call of a math builtin bumps:
// the static features' TranscendentalOps or OtherBuiltins, and the
// dynamic profile's TransOps or OtherBuiltins, which pricing reads.
type CostClass uint8

// Cost classes.
const (
	CostOther CostClass = iota
	CostTranscendental
)

// Builtin is one registered builtin function: everything the pipeline
// knows about it. Sema checks calls against the signature, lowering
// resolves a call to its entry once (inspire.CallBuiltin carries it
// from then on), static analysis and both execution tiers count it by
// Cost, the closure oracle runs Float / Int, and the VM compiler emits
// the opcode named Mnemonic+".f" or Mnemonic+".i".
type Builtin struct {
	Name string
	// ID is the entry's index in Builtins, for tables indexed by builtin.
	ID int
	// Args lists parameter types; for Poly builtins the types are patterns
	// resolved against the first numeric argument.
	Args []Type
	Ret  Type
	// Poly marks numeric-polymorphic builtins (min/max/clamp/abs): all
	// numeric arguments and the result take the type of the first argument.
	Poly bool
	Kind BuiltinKind
	// Query is a work-item builtin's query index (inspire.WIQuery).
	Query int
	Cost  CostClass
	// Mnemonic is the stem of the VM opcodes of a math builtin: "abs" for
	// fabs, "fma" for mad.
	Mnemonic string
	// Float is a math builtin's reference implementation, one float64
	// argument per parameter: func(float64) float64,
	// func(float64, float64) float64 or func(float64, float64, float64)
	// float64. Int is its int64 counterpart, set only for Poly builtins.
	Float, Int any
}

// Builtins is the registry of functions callable from MiniCL kernels, in
// registration order. To add a builtin, add one entry to the table in
// this file's init; a math builtin also needs its VM opcodes (see
// internal/exec/vm/op.go), whose absence panics at init, and a row in the
// cross-tier builtin test (internal/exec/vmdiff_test.go), whose absence
// fails it.
var Builtins []*Builtin

var (
	builtinByName = map[string]*Builtin{}
	queries       []*Builtin // work-item builtins by Query
)

// LookupBuiltin returns the builtin registered under name.
func LookupBuiltin(name string) (*Builtin, bool) {
	b, ok := builtinByName[name]
	return b, ok
}

// QueryBuiltin returns the work-item builtin registered with query index q.
func QueryBuiltin(q int) *Builtin { return queries[q] }

// register adds b to the registry. A duplicate name panics, as does a
// math builtin whose implementations do not take one argument per
// parameter.
func register(b Builtin) {
	if _, dup := builtinByName[b.Name]; dup {
		panic(fmt.Sprintf("minicl: builtin %q already registered", b.Name))
	}
	if b.Kind == BuiltinMath {
		nf, isF := implArity(b.Float)
		ni, intIsF := implArity(b.Int)
		intOK := b.Int == nil
		if b.Poly {
			intOK = !intIsF && ni == len(b.Args)
		}
		if !isF || nf != len(b.Args) || !intOK || b.Mnemonic == "" {
			panic(fmt.Sprintf("minicl: builtin %q: implementations do not match its %d parameters", b.Name, len(b.Args)))
		}
	}
	b.ID = len(Builtins)
	e := &b
	Builtins = append(Builtins, e)
	builtinByName[b.Name] = e
	if b.Kind == BuiltinWorkItem {
		for len(queries) <= b.Query {
			queries = append(queries, nil)
		}
		queries[b.Query] = e
	}
}

// implArity returns the number of arguments of a reference
// implementation and whether it is a float one; n is -1 for anything
// else, nil included.
func implArity(impl any) (n int, isFloat bool) {
	switch impl.(type) {
	case func(float64) float64:
		return 1, true
	case func(float64, float64) float64:
		return 2, true
	case func(float64, float64, float64) float64:
		return 3, true
	case func(int64) int64:
		return 1, false
	case func(int64, int64) int64:
		return 2, false
	case func(int64, int64, int64) int64:
		return 3, false
	}
	return -1, false
}

func init() {
	f1 := []Type{TypeFloat}
	f2 := []Type{TypeFloat, TypeFloat}
	f3 := []Type{TypeFloat, TypeFloat, TypeFloat}
	const trans = CostTranscendental
	// Multiply, then add: two roundings, as OpenCL's mad permits.
	madF := func(x, y, z float64) float64 { return x*y + z }
	for _, b := range []Builtin{
		{Name: "get_global_id", Args: []Type{TypeInt}, Ret: TypeInt, Kind: BuiltinWorkItem, Query: 0},
		{Name: "get_local_id", Args: []Type{TypeInt}, Ret: TypeInt, Kind: BuiltinWorkItem, Query: 1},
		{Name: "get_group_id", Args: []Type{TypeInt}, Ret: TypeInt, Kind: BuiltinWorkItem, Query: 2},
		{Name: "get_global_size", Args: []Type{TypeInt}, Ret: TypeInt, Kind: BuiltinWorkItem, Query: 3},
		{Name: "get_local_size", Args: []Type{TypeInt}, Ret: TypeInt, Kind: BuiltinWorkItem, Query: 4},
		{Name: "get_num_groups", Args: []Type{TypeInt}, Ret: TypeInt, Kind: BuiltinWorkItem, Query: 5},
		{Name: "barrier", Ret: TypeVoid, Kind: BuiltinBarrier},

		{Name: "sqrt", Args: f1, Ret: TypeFloat, Cost: trans, Mnemonic: "sqrt", Float: math.Sqrt},
		{Name: "rsqrt", Args: f1, Ret: TypeFloat, Cost: trans, Mnemonic: "rsqrt",
			Float: func(x float64) float64 { return 1 / math.Sqrt(x) }},
		{Name: "fabs", Args: f1, Ret: TypeFloat, Mnemonic: "abs", Float: math.Abs},
		{Name: "exp", Args: f1, Ret: TypeFloat, Cost: trans, Mnemonic: "exp", Float: math.Exp},
		{Name: "log", Args: f1, Ret: TypeFloat, Cost: trans, Mnemonic: "log", Float: math.Log},
		{Name: "log2", Args: f1, Ret: TypeFloat, Cost: trans, Mnemonic: "log2", Float: math.Log2},
		{Name: "sin", Args: f1, Ret: TypeFloat, Cost: trans, Mnemonic: "sin", Float: math.Sin},
		{Name: "cos", Args: f1, Ret: TypeFloat, Cost: trans, Mnemonic: "cos", Float: math.Cos},
		{Name: "tan", Args: f1, Ret: TypeFloat, Cost: trans, Mnemonic: "tan", Float: math.Tan},
		{Name: "pow", Args: f2, Ret: TypeFloat, Cost: trans, Mnemonic: "pow", Float: math.Pow},
		{Name: "fmin", Args: f2, Ret: TypeFloat, Mnemonic: "min", Float: math.Min},
		{Name: "fmax", Args: f2, Ret: TypeFloat, Mnemonic: "max", Float: math.Max},
		{Name: "fma", Args: f3, Ret: TypeFloat, Mnemonic: "fma", Float: madF},
		{Name: "mad", Args: f3, Ret: TypeFloat, Mnemonic: "fma", Float: madF},
		{Name: "floor", Args: f1, Ret: TypeFloat, Mnemonic: "floor", Float: math.Floor},
		{Name: "ceil", Args: f1, Ret: TypeFloat, Mnemonic: "ceil", Float: math.Ceil},

		{Name: "min", Args: []Type{{}, {}}, Poly: true, Mnemonic: "min", Float: math.Min,
			Int: func(x, y int64) int64 { return min(x, y) }},
		{Name: "max", Args: []Type{{}, {}}, Poly: true, Mnemonic: "max", Float: math.Max,
			Int: func(x, y int64) int64 { return max(x, y) }},
		{Name: "abs", Args: []Type{{}}, Poly: true, Mnemonic: "abs", Float: math.Abs,
			Int: func(x int64) int64 {
				if x < 0 {
					return -x
				}
				return x
			}},
		{Name: "clamp", Args: []Type{{}, {}, {}}, Poly: true, Mnemonic: "clamp",
			Float: func(x, lo, hi float64) float64 { return math.Max(lo, math.Min(x, hi)) },
			Int:   func(x, lo, hi int64) int64 { return max(lo, min(x, hi)) }},
	} {
		register(b)
	}
}
