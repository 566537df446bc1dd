package inspire

import "repro/internal/minicl"

// AccessPattern classifies how a global-memory access indexes the buffer as
// a function of the work-item ID. The classes correspond to the memory
// coalescing behaviour that separates GPU-friendly from GPU-hostile kernels.
type AccessPattern int

// Access patterns, from most to least GPU-friendly.
const (
	// AccessUniform does not depend on the work-item ID (broadcast).
	AccessUniform AccessPattern = iota
	// AccessCoalesced is affine in get_global_id(0) with unit coefficient.
	AccessCoalesced
	// AccessStrided is affine in get_global_id(0) with non-unit coefficient.
	AccessStrided
	// AccessIndirect goes through a loaded value (gather/scatter).
	AccessIndirect
	// AccessUnknown could not be classified (non-affine in the ID).
	AccessUnknown
)

var accessNames = [...]string{"uniform", "coalesced", "strided", "indirect", "unknown"}

// String names the pattern.
func (a AccessPattern) String() string { return accessNames[a] }

// StaticCounts aggregates the static operation mix of a kernel: the "static
// program features" of the paper's §2, extracted from the IR at compile
// time. Raw counts ignore control flow; Weighted counts multiply statements
// inside loops by a nominal trip factor per nesting level, approximating
// dynamic importance without knowing problem sizes.
type StaticCounts struct {
	IntOps            int
	FloatOps          int
	TranscendentalOps int // calls to exp/log/sin/cos/tan/pow/sqrt/rsqrt
	OtherBuiltins     int // min/max/fabs/floor/... (cheap builtins)
	GlobalLoads       int
	GlobalStores      int
	LocalLoads        int
	LocalStores       int
	Branches          int // if statements + selects
	Loops             int
	Barriers          int
	Casts             int
	HelperCalls       int

	// Weighted variants (loop statements count LoopWeight^depth times).
	WeightedIntOps      float64
	WeightedFloatOps    float64
	WeightedTransOps    float64
	WeightedGlobalLoads float64
	WeightedGlobalStore float64
	WeightedBranches    float64

	MaxLoopDepth int

	// Access pattern histogram over global loads+stores.
	Accesses map[AccessPattern]int
}

// LoopWeight is the nominal per-loop trip multiplier used for weighted
// static counts.
const LoopWeight = 16.0

// Analyze computes static counts for a kernel function. Helper function
// bodies are folded into the caller's counts once per call site.
func Analyze(fn *Function) *StaticCounts {
	c := &StaticCounts{Accesses: map[AccessPattern]int{}}
	an := &analyzer{counts: c, seen: map[*Function]bool{}, env: buildAffineEnv(fn)}
	an.block(fn.Body, 0)
	return c
}

type analyzer struct {
	counts *StaticCounts
	seen   map[*Function]bool // cycle guard for helper recursion
	env    affineEnv
}

func (an *analyzer) weight(depth int) float64 {
	w := 1.0
	for i := 0; i < depth; i++ {
		w *= LoopWeight
	}
	return w
}

func (an *analyzer) block(b *Block, depth int) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		an.stmt(s, depth)
	}
}

func (an *analyzer) stmt(s Stmt, depth int) {
	c := an.counts
	if depth > c.MaxLoopDepth {
		c.MaxLoopDepth = depth
	}
	switch st := s.(type) {
	case *Block:
		an.block(st, depth)
	case *Decl:
		an.expr(st.Init, depth)
	case *StoreVar:
		an.expr(st.Value, depth)
	case *StoreElem:
		an.expr(st.Index, depth)
		an.expr(st.Value, depth)
		switch st.Buf.Type.Space {
		case minicl.Global:
			c.GlobalStores++
			c.WeightedGlobalStore += an.weight(depth)
			c.Accesses[classifyWithEnv(st.Index, an.env)]++
		case minicl.Local:
			c.LocalStores++
		}
	case *If:
		c.Branches++
		c.WeightedBranches += an.weight(depth)
		an.expr(st.Cond, depth)
		an.block(st.Then, depth)
		an.block(st.Else, depth)
	case *For:
		c.Loops++
		an.stmt(st.Init, depth)
		an.expr(st.Cond, depth+1)
		an.stmt(st.Post, depth+1)
		an.block(st.Body, depth+1)
	case *While:
		c.Loops++
		an.expr(st.Cond, depth+1)
		an.block(st.Body, depth+1)
	case *Return:
		an.expr(st.Value, depth)
	case *Barrier:
		c.Barriers++
	case *Eval:
		an.expr(st.X, depth)
	}
}

func (an *analyzer) expr(e Expr, depth int) {
	if e == nil {
		return
	}
	c := an.counts
	w := an.weight(depth)
	switch ex := e.(type) {
	case *Load:
		an.expr(ex.Index, depth)
		switch ex.Buf.Type.Space {
		case minicl.Global:
			c.GlobalLoads++
			c.WeightedGlobalLoads += w
			c.Accesses[classifyWithEnv(ex.Index, an.env)]++
		case minicl.Local:
			c.LocalLoads++
		}
	case *BinOp:
		an.expr(ex.L, depth)
		an.expr(ex.R, depth)
		if ex.L.ExprType().IsFloat() || ex.Typ.IsFloat() {
			c.FloatOps++
			c.WeightedFloatOps += w
		} else {
			c.IntOps++
			c.WeightedIntOps += w
		}
	case *UnOp:
		an.expr(ex.X, depth)
		if ex.Typ.IsFloat() {
			c.FloatOps++
			c.WeightedFloatOps += w
		} else {
			c.IntOps++
			c.WeightedIntOps += w
		}
	case *Select:
		c.Branches++
		c.WeightedBranches += w
		an.expr(ex.Cond, depth)
		an.expr(ex.Then, depth)
		an.expr(ex.Else, depth)
	case *Cast:
		c.Casts++
		an.expr(ex.X, depth)
	case *WorkItem:
		c.IntOps++ // an index-space query costs about one int op
		an.expr(ex.Dim, depth)
	case *CallBuiltin:
		for _, a := range ex.Args {
			an.expr(a, depth)
		}
		if ex.Builtin.Cost == minicl.CostTranscendental {
			c.TranscendentalOps++
			c.WeightedTransOps += w
		} else {
			c.OtherBuiltins++
		}
	case *CallFunc:
		c.HelperCalls++
		for _, a := range ex.Args {
			an.expr(a, depth)
		}
		// Inline the helper's counts at the call site unless recursive.
		if !an.seen[ex.Callee] {
			an.seen[ex.Callee] = true
			an.block(ex.Callee.Body, depth)
			an.seen[ex.Callee] = false
		}
	}
}

// AffineEnv maps local variables to the abstract affine value of their
// definition, letting the classifier see through
// "int i = get_global_id(0); ... a[i]". Build one with BuildAffineEnv.
type AffineEnv = affineEnv

// BuildAffineEnv exposes the variable-definition analysis for clients
// (the backend) that classify individual accesses.
func BuildAffineEnv(fn *Function) AffineEnv { return buildAffineEnv(fn) }

// ClassifyIndexEnv classifies a buffer index expression by its dependence
// on get_global_id(0), seeing through the locals env defines. The
// classification is a conservative symbolic pass: unresolved variables
// are treated as unknown-but-uniform terms, so gid*stride+var is still
// recognized as strided.
func ClassifyIndexEnv(idx Expr, env AffineEnv) AccessPattern {
	return classifyWithEnv(idx, env)
}

// affineEnv maps local variables to the affine value of their definition,
// letting the classifier see through "int i = get_global_id(0); ... a[i]".
type affineEnv map[*Var]affine

// buildAffineEnv performs one forward pass over the function body, joining
// the affine values of all assignments to each variable. Variables assigned
// conflicting gid dependences are marked non-affine; loop counters (assigned
// init + increment, both gid-independent) stay uniform.
func buildAffineEnv(fn *Function) affineEnv {
	env := affineEnv{}
	record := func(v *Var, e Expr) {
		if e == nil {
			return
		}
		val := affineWith(e, env)
		// After a self-referential update (i = i + 1), constants are stale
		// but the gid coefficient of the join is what matters.
		if old, seen := env[v]; seen {
			if old.gidCoeff != val.gidCoeff || old.hasLoad != val.hasLoad {
				val = affine{nonAffine: old.gidCoeff != val.gidCoeff, hasLoad: old.hasLoad || val.hasLoad}
			}
			val.isConst = false
		}
		env[v] = val
	}
	WalkStmts(fn.Body, func(s Stmt) bool {
		switch st := s.(type) {
		case *Decl:
			record(st.Var, st.Init)
		case *StoreVar:
			record(st.Var, st.Value)
		}
		return true
	})
	return env
}

func classifyWithEnv(idx Expr, env affineEnv) AccessPattern {
	a := affineWith(idx, env)
	switch {
	case a.hasLoad:
		return AccessIndirect
	case a.nonAffine:
		return AccessUnknown
	case a.gidCoeff == 0:
		return AccessUniform
	case a.gidCoeff == 1 || a.gidCoeff == -1:
		return AccessCoalesced
	default:
		return AccessStrided
	}
}

// affine is the abstract value of the symbolic index analysis:
// gidCoeff*gid + (other terms). Unknown coefficients mark nonAffine.
type affine struct {
	gidCoeff  int64 // coefficient of get_global_id(0); 0 = independent
	constVal  int64 // known constant contribution (only meaningful if isConst)
	isConst   bool  // expression is a compile-time constant
	hasLoad   bool  // contains a memory load (indirect)
	nonAffine bool  // gid enters non-affinely (e.g. gid*gid, gid%k)
}

func affineWith(e Expr, env affineEnv) affine {
	switch ex := e.(type) {
	case *ConstInt:
		return affine{constVal: ex.Value, isConst: true}
	case *ConstFloat:
		return affine{isConst: true}
	case *VarRef:
		if env != nil {
			if a, ok := env[ex.Var]; ok {
				return a
			}
		}
		return affine{} // uniform unknown
	case *WorkItem:
		if ex.Query == GlobalID {
			if d, ok := ex.Dim.(*ConstInt); ok && d.Value == 0 {
				return affine{gidCoeff: 1}
			}
			// Higher dimensions are uniform along the partition axis
			// (we always partition dimension 0).
			return affine{}
		}
		if ex.Query == LocalID {
			// local id varies like gid modulo group size: same coalescing.
			return affine{gidCoeff: 1}
		}
		return affine{}
	case *Load:
		return affine{hasLoad: true}
	case *Cast:
		return affineWith(ex.X, env)
	case *UnOp:
		a := affineWith(ex.X, env)
		if ex.Op == OpNeg {
			a.gidCoeff = -a.gidCoeff
			a.constVal = -a.constVal
		}
		return a
	case *BinOp:
		l, r := affineWith(ex.L, env), affineWith(ex.R, env)
		out := affine{
			hasLoad:   l.hasLoad || r.hasLoad,
			nonAffine: l.nonAffine || r.nonAffine,
		}
		switch ex.Op {
		case OpAdd:
			out.gidCoeff = l.gidCoeff + r.gidCoeff
			out.isConst = l.isConst && r.isConst
			out.constVal = l.constVal + r.constVal
		case OpSub:
			out.gidCoeff = l.gidCoeff - r.gidCoeff
			out.isConst = l.isConst && r.isConst
			out.constVal = l.constVal - r.constVal
		case OpMul:
			switch {
			case l.gidCoeff != 0 && r.gidCoeff != 0:
				out.nonAffine = true
			case l.gidCoeff != 0:
				if r.isConst {
					out.gidCoeff = l.gidCoeff * r.constVal
				} else {
					// gid * unknown-uniform: strided with unknown stride.
					out.gidCoeff = 2
				}
			case r.gidCoeff != 0:
				if l.isConst {
					out.gidCoeff = r.gidCoeff * l.constVal
				} else {
					out.gidCoeff = 2
				}
			default:
				out.isConst = l.isConst && r.isConst
				out.constVal = l.constVal * r.constVal
			}
		case OpDiv, OpMod, OpShr, OpShl, OpAnd, OpOr, OpXor:
			if l.gidCoeff != 0 || r.gidCoeff != 0 {
				out.nonAffine = true
			}
		default:
			if l.gidCoeff != 0 || r.gidCoeff != 0 {
				out.nonAffine = true
			}
		}
		return out
	case *Select:
		c, t, f := affineWith(ex.Cond, env), affineWith(ex.Then, env), affineWith(ex.Else, env)
		return affine{
			hasLoad:   c.hasLoad || t.hasLoad || f.hasLoad,
			nonAffine: true, // data-dependent index selection
		}
	case *CallBuiltin:
		out := affine{}
		for _, a := range ex.Args {
			aa := affineWith(a, env)
			out.hasLoad = out.hasLoad || aa.hasLoad
			if aa.gidCoeff != 0 || aa.nonAffine {
				out.nonAffine = true
			}
		}
		return out
	case *CallFunc:
		return affine{nonAffine: true}
	}
	return affine{nonAffine: true}
}
