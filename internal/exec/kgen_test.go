package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/inspire"
	"repro/internal/minicl"
)

// Generative differential test for the vector tier's re-convergence: a
// seeded, bounded MiniCL generator whose kernels are well-typed,
// terminating and race-free by construction, compared on the closure
// oracle, the scalar VM and TierAuto. The hand-written suites cover a
// few dozen kernels; this covers the lane code they cannot — `if`,
// `if/else` and nested `if` (past the depth-3 split cap) under varying
// conditions inside one or two uniform-trip loops, with global and local
// stores in the divergent region, barriers after the join, would-fault
// lanes in late iterations, and step budgets that run out mid-group;
// loops the vector tier runs under a loop mask — trip counts that vary
// from item to item (a per-item bound or start, as in spmv), `while`
// loops with a compound `&&` exit test, and `break` / `continue` under
// varying guards in every loop without a barrier — at the top level and
// nested in uniform loops, with lanes that fault in an iteration k > 0
// while others are still looping;
// and, after the loops, the divergent regions outside any loop that may
// write uniform registers: short-circuit guards with uniform
// subexpressions computed inside them, uniform temporaries declared in a
// region and used by risky indices and divisors there, uniform-trip
// loops under a ragged `if (i < n - k)` guard, and group-cell stores
// through a uniform index — one-sided (re-forms) and, in kernels
// without barriers, the if/else twin (both sides store: full bail).
//
// Every generated kernel has the same signature:
//
//	a     float[n+pad]  read-only inputs in [-2, 2)
//	sel   int[n]        read-only inputs in 0..3
//	outf  float[2n+pad] [0,n) final results, [n,2n) stores from inside
//	                    regions, [2n,2n+pad) only reachable by the
//	                    deliberately risky index
//	outi  int[n]
//	grp   float[groups] one cell per work group
//	tmp   local float[local size]
//	n, t1, t2           extent and the two uniform trip counts
//
// Work items only ever store to cells they own (outf[i], outf[n+i],
// outf[2n+i], outi[i], tmp[l]); another item's tmp cell is only read in
// the phase of a loop body that a barrier separates from every tmp
// store. The group's cell grp[get_group_id(0)] is written by one static
// store per side of one branch, so canonical item order decides it; with
// barriers (the oracle then runs a group's items concurrently) a single
// item writes it. Out-of-bounds accesses and zero divisors appear only
// in "faulty" kernels, through indices and divisors that depend on the
// loop counter so that they trip in an iteration k > 0, or on a uniform
// temporary written inside the divergent region.

type kgen struct {
	r      *rand.Rand
	b      strings.Builder
	indent int

	barriers bool     // loop bodies are split into phases by barriers
	faulty   bool     // emit risky indices and divisors
	tmpAny   bool     // current phase may read other lanes' tmp cells
	tmpStore bool     // current phase may store tmp[l]
	loops    []string // in-scope loop counters, innermost last
	exits    bool     // the innermost loop holds no barrier: break and continue may leave it
	nvar     int      // varying loops emitted so far, which names their counters
}

const (
	kgenFloats   = 3 // private float variables f0..f2
	kgenInts     = 2 // private int variables v0..v1
	kgenMaxDepth = 5 // nested-if depth: two past the split cap
)

func (g *kgen) line(format string, args ...any) {
	g.b.WriteString(strings.Repeat("\t", g.indent))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *kgen) pick(options ...string) string { return options[g.r.Intn(len(options))] }

// counter returns an in-scope loop counter, or outside every loop a trip
// count: in the same range, 0..max(t1, t2), and uniform unless it counts
// a varying loop.
func (g *kgen) counter() string {
	if len(g.loops) == 0 {
		return g.pick("t1", "t2")
	}
	return g.loops[g.r.Intn(len(g.loops))]
}

func (g *kgen) fvar() string { return fmt.Sprintf("f%d", g.r.Intn(kgenFloats)) }
func (g *kgen) ivar() string { return fmt.Sprintf("v%d", g.r.Intn(kgenInts)) }

// fexpr returns a float expression of bounded depth.
func (g *kgen) fexpr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(8) {
		case 0:
			return g.pick("0.25f", "1.5f", "-0.75f", "2.0f", "0.0f")
		case 1:
			return "a[i]"
		case 2:
			return fmt.Sprintf("a[(i + %d) %% n]", 1+g.r.Intn(7))
		case 3:
			// In bounds for every kernel that is not faulty: sel < 4 and
			// the pad covers 3 * the largest counter value.
			return fmt.Sprintf("a[i + sel[i] * %s]", g.counter())
		case 4:
			if g.tmpAny {
				return fmt.Sprintf("tmp[(l + %d) %% lsz]", 1+g.r.Intn(5))
			}
			return "tmp[l]"
		case 5:
			return fmt.Sprintf("(float)%s", g.iexpr(0))
		default:
			return g.fvar()
		}
	}
	x, y := g.fexpr(depth-1), g.fexpr(depth-1)
	switch g.r.Intn(8) {
	case 0:
		return fmt.Sprintf("(%s + %s)", x, y)
	case 1:
		return fmt.Sprintf("(%s - %s)", x, y)
	case 2:
		return fmt.Sprintf("(%s * 0.5f + %s)", x, y)
	case 3, 4, 5, 6:
		// NaN and ±Inf come out of some operands (sqrt or log of a
		// negative, pow, exp): comparisons on them must still agree.
		return g.call(kgenMath, x, y, func() string { return g.fexpr(depth - 1) })
	default:
		return fmt.Sprintf("(%s > 0.0f ? %s : %s)", x, y, g.fexpr(0))
	}
}

// iexpr returns an int expression of bounded depth.
func (g *kgen) iexpr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(7) {
		case 0:
			return fmt.Sprint(g.r.Intn(9) - 2)
		case 1:
			return g.counter()
		case 2:
			return g.pick("l", "i")
		case 3:
			return "sel[i]"
		case 4:
			return fmt.Sprintf("sel[(i + %s) %% n]", g.counter())
		default:
			return g.ivar()
		}
	}
	x, y := g.iexpr(depth-1), g.iexpr(depth-1)
	switch g.r.Intn(7) {
	case 0:
		return fmt.Sprintf("(%s + %s)", x, y)
	case 1:
		return fmt.Sprintf("(%s - %s)", x, y)
	case 2:
		return fmt.Sprintf("(%s * %d)", x, 2+g.r.Intn(3))
	case 3:
		return fmt.Sprintf("(%s %% %d)", x, 2+g.r.Intn(5))
	case 4:
		return fmt.Sprintf("(%s & %d)", x, 1+g.r.Intn(7))
	case 5:
		if g.faulty {
			// Zero for the items whose sel matches the counter.
			return fmt.Sprintf("(%s / (sel[i] - %s))", x, g.counter())
		}
		return fmt.Sprintf("(%s / %d)", x, 2+g.r.Intn(3))
	default:
		return g.call(kgenPoly, x, y, func() string { return g.iexpr(depth - 1) })
	}
}

// The builtins the generator calls, drawn from the registry: every math
// builtin for float expressions, the Poly ones (on int operands, their
// int variant) for int expressions.
var kgenMath, kgenPoly = func() (all, poly []*minicl.Builtin) {
	for _, b := range minicl.Builtins {
		if b.Kind == minicl.BuiltinMath {
			all = append(all, b)
			if b.Poly {
				poly = append(poly, b)
			}
		}
	}
	return all, poly
}()

// call returns a call of a builtin drawn from bs, whatever its arity:
// x and y are its first two operands, more come from arg.
func (g *kgen) call(bs []*minicl.Builtin, x, y string, arg func() string) string {
	b := bs[g.r.Intn(len(bs))]
	args := []string{x, y}
	for len(args) < len(b.Args) {
		args = append(args, arg())
	}
	return fmt.Sprintf("%s(%s)", b.Name, strings.Join(args[:len(b.Args)], ", "))
}

// cond returns a branch condition: mostly lane-varying, sometimes
// uniform (the loop counters), sometimes compound.
func (g *kgen) cond() string {
	switch g.r.Intn(8) {
	case 0:
		return fmt.Sprintf("%s %% 2 == %d", g.counter(), g.r.Intn(2))
	case 1:
		return fmt.Sprintf("l < (lsz >> %s)", g.counter())
	case 2:
		return fmt.Sprintf("(%s + %s) %% 3 == %d", g.iexpr(1), g.counter(), g.r.Intn(3))
	case 3:
		return fmt.Sprintf("%s %s %s", g.iexpr(1), g.pick("<", "<=", "==", "!=", ">", ">="), g.iexpr(1))
	case 4:
		return fmt.Sprintf("%s && %s", g.cond(), g.cond())
	default:
		return fmt.Sprintf("%s %s %s", g.fexpr(1), g.pick("<", "<=", ">", ">=", "==", "!="), g.fexpr(1))
	}
}

// stmt emits one statement at nested-if depth depth.
func (g *kgen) stmt(depth int) {
	k := g.r.Intn(12)
	if depth >= kgenMaxDepth && k >= 6 {
		k = g.r.Intn(6)
	}
	if k == 10 && !g.exits || k == 11 && len(g.loops) >= 3 {
		k = 6
	}
	switch k {
	case 0:
		g.line("%s = %s;", g.fvar(), g.fexpr(2))
	case 1:
		g.line("%s += %s;", g.fvar(), g.fexpr(1))
	case 2:
		g.line("%s = %s;", g.ivar(), g.iexpr(2))
	case 3:
		g.line("%s++;", g.ivar())
	case 4:
		switch {
		case g.faulty && g.r.Intn(2) == 0:
			// 2n+i is past the end for the items the pad does not cover.
			g.line("outf[n + i + n * (%s & 1)] = %s;", g.iexpr(1), g.fexpr(1))
		case g.r.Intn(2) == 0:
			g.line("outf[n + i] = %s;", g.fexpr(1))
		default:
			g.line("outi[i] = %s;", g.iexpr(1))
		}
	case 5:
		if g.tmpStore {
			g.line("tmp[l] = %s;", g.fexpr(1))
		} else {
			g.line("%s = %s;", g.fvar(), g.fexpr(1))
		}
	case 10:
		g.escape()
	case 11:
		g.vloop(depth)
	default:
		g.line("if (%s) {", g.cond())
		g.block(depth+1, 1+g.r.Intn(3))
		if g.r.Intn(2) == 0 {
			g.line("} else {")
			g.block(depth+1, 1+g.r.Intn(2))
		}
		g.line("}")
	}
}

// escape leaves the innermost loop under a varying guard: a break,
// sometimes after a statement the leaving lanes run on their way out,
// or a continue.
func (g *kgen) escape() {
	g.line("if (%s) {", g.cond())
	g.indent++
	if g.r.Intn(2) == 0 {
		g.stmt(kgenMaxDepth)
	}
	g.line("%s;", g.pick("break", "continue"))
	g.indent--
	g.line("}")
}

// vloop emits a loop whose trip count varies from item to item: a
// per-item bound (spmv's row length), a per-item start, or a `while`
// loop with a compound `&&` exit test that steps its counter first, so
// a continue cannot skip the step. Each is bounded by a trip count, so
// its counter stays in counter()'s range. It holds no barrier: lanes
// leave it at different iterations. In a faulty kernel its body may
// start with a load past the short pad for the items whose sel is
// large, in an iteration k > 0, while the others still loop.
func (g *kgen) vloop(depth int) {
	c, t := fmt.Sprintf("w%d", g.nvar), g.pick("t1", "t2")
	g.nvar++
	switch g.r.Intn(3) {
	case 0:
		g.line("for (int %s = 0; %s < (sel[i] + %d) %% (%s + 1); %s++) {", c, c, g.r.Intn(4), t, c)
	case 1:
		g.line("for (int %s = sel[(i + %d) %% n] %% 2; %s < %s; %s++) {", c, 1+g.r.Intn(5), c, t, c)
	default:
		g.line("int %s = 0;", c)
		g.line("while (%s < %s && %s) {", c, t, g.cond())
		g.indent++
		g.line("%s++;", c)
		g.indent--
	}
	exits := g.exits
	g.loops, g.exits = append(g.loops, c), true
	if g.faulty && g.r.Intn(2) == 0 {
		g.indent++
		g.line("%s += a[i + sel[i] * %s];", g.fvar(), c)
		g.indent--
	}
	g.block(depth+1, 1+g.r.Intn(3))
	g.loops, g.exits = g.loops[:len(g.loops)-1], exits
	g.line("}")
}

func (g *kgen) block(depth, n int) {
	g.indent++
	for ; n > 0; n-- {
		g.stmt(depth)
	}
	g.indent--
}

// loop emits a uniform-trip loop over counter/bound whose body is a read
// phase and a store phase — separated by barriers at the loop's top
// level, after every join, when the kernel uses them — and, for the
// outer loop, sometimes a nested second loop.
func (g *kgen) loop(counter, bound string, nest bool) {
	g.line("for (int %s = 0; %s < %s; %s++) {", counter, counter, bound, counter)
	g.loops, g.exits = append(g.loops, counter), !g.barriers
	g.tmpAny, g.tmpStore = g.barriers, !g.barriers
	g.block(0, 1+g.r.Intn(3))
	if g.barriers {
		g.indent++
		g.line("barrier(1);")
		g.indent--
	}
	g.tmpAny, g.tmpStore = false, true
	g.block(0, 1+g.r.Intn(2))
	if g.barriers {
		g.indent++
		g.line("barrier(1);")
		g.indent--
	}
	if nest {
		g.indent++
		g.loop("r", "t2", false)
		g.indent--
	}
	g.loops = g.loops[:len(g.loops)-1]
	g.exits = false
	g.line("}")
}

// guard emits an `if` outside every loop under a short-circuit condition
// that computes a uniform subexpression in its second term. The uniform
// temporary u is set before the branch, overwritten on the taken side
// and read on both, so each side must see its own value; in faulty
// kernels it feeds an index or a divisor that trips for some lanes only.
// Sometimes u is read after the join too, which leaves the branch
// without one.
func (g *kgen) guard() {
	g.line("int u = n - %d;", 1+g.r.Intn(3))
	g.line("if (%s) {", g.pick(
		fmt.Sprintf("i > %d && i < n - %d", g.r.Intn(3), 1+g.r.Intn(4)),
		"l > 0 && l < lsz - 1",
		fmt.Sprintf("a[i] > -1.0f && sel[i] < t1 + %d", g.r.Intn(3)),
		fmt.Sprintf("l == 0 || i >= n - %d", 1+g.r.Intn(6))))
	g.indent++
	g.line("u = u / 2 + %d;", g.r.Intn(4))
	g.line("%s = a[(i + u) %% n] + (float)(u - n);", g.fvar())
	if g.faulty {
		switch g.r.Intn(3) {
		case 0:
			// Past the end for the upper items whose sel is 3.
			g.line("%s += a[i + (sel[i] / 3) * u];", g.fvar())
		case 1:
			// Zero for the items whose sel is 2.
			g.line("%s = u / (sel[i] - 2);", g.ivar())
		}
	}
	g.indent--
	g.block(1, 1+g.r.Intn(3))
	if g.r.Intn(3) > 0 {
		g.line("} else {")
		g.indent++
		g.line("%s += a[(i + u) %% n];", g.fvar())
		g.indent--
		g.block(1, 1+g.r.Intn(2))
	}
	g.line("}")
	if g.r.Intn(4) == 0 {
		g.line("v1 += u;")
	}
}

// raggedLoop emits a uniform-trip loop under a bound that is not a
// multiple of the local size, so the last group runs it at partial
// width. No barriers inside: the guard is varying.
func (g *kgen) raggedLoop() {
	g.line("if (i < n - %d) {", 1+g.r.Intn(7))
	g.indent++
	g.line("for (int q = 0; q < %s; q++) {", g.pick("t1", "t2"))
	g.loops, g.exits = append(g.loops, "q"), true
	g.block(0, 1+g.r.Intn(3))
	g.loops, g.exits = g.loops[:len(g.loops)-1], false
	g.line("}")
	g.indent--
	g.line("}")
}

// groupStore emits the group-cell epilogue: one static store through a
// uniform index under a one-sided varying `if`, or — without barriers —
// its if/else twin that stores on both sides.
func (g *kgen) groupStore() {
	cond := fmt.Sprintf("l == %d", g.r.Intn(8))
	if !g.barriers {
		cond = g.pick(cond, fmt.Sprintf("l < %d", 1+g.r.Intn(5)), "f0 > 0.25f", "sel[i] == 1 && l > 1")
	}
	g.line("if (%s) {", cond)
	g.indent++
	g.line("grp[get_group_id(0)] = %s;", g.fexpr(1))
	g.indent--
	if !g.barriers && g.r.Intn(3) == 0 {
		g.line("} else {")
		g.indent++
		g.line("grp[get_group_id(0)] = %s;", g.fexpr(1))
		g.indent--
	}
	g.line("}")
}

// genKernel returns the source of the kernel for seed.
func genKernel(seed int64, faulty bool) string {
	g := &kgen{r: rand.New(rand.NewSource(seed)), faulty: faulty}
	g.barriers = g.r.Intn(2) == 0
	g.line("kernel void k(global const float* a, global const int* sel, global float* outf,")
	g.line("              global int* outi, global float* grp, local float* tmp, int n, int t1, int t2) {")
	g.indent++
	g.line("int i = get_global_id(0);")
	g.line("int l = get_local_id(0);")
	g.line("int lsz = get_local_size(0);")
	g.line("float f0 = a[i];")
	g.line("float f1 = 0.5f;")
	g.line("float f2 = (float)l;")
	g.line("int v0 = sel[i];")
	g.line("int v1 = 0;")
	g.line("tmp[l] = f0;")
	if g.barriers {
		g.line("barrier(1);")
	}
	nested := g.r.Intn(2) == 0
	g.loop("s", "t1", nested)
	if !nested && g.r.Intn(2) == 0 {
		g.loop("r", "t2", false)
	}
	// Outside the loops only a work item's own tmp cell is in reach.
	g.tmpAny, g.tmpStore = false, true
	for _, emit := range []func(){g.guard, g.raggedLoop, func() { g.vloop(0) }, g.groupStore} {
		if g.r.Intn(3) > 0 {
			emit()
		}
	}
	g.line("outf[i] = f0 + f1 * f2 + tmp[l];")
	g.line("outi[i] = outi[i] + v0 * 3 + v1;")
	g.indent--
	g.line("}")
	return g.b.String()
}

// kgenLaunch is one generated kernel's launch: geometry, trip counts,
// and how far the buffers extend past what a fault-free kernel needs.
type kgenLaunch struct {
	n, local, t1, t2 int
	pad              int
	seed             int64
}

func (l kgenLaunch) args() []Arg {
	r := rand.New(rand.NewSource(l.seed ^ 0x5eed))
	a, sel := NewFloatBuffer(l.n+l.pad), NewIntBuffer(l.n)
	for i := range a.F {
		a.F[i] = r.Float32()*4 - 2
	}
	for i := range sel.I {
		sel.I[i] = int32(r.Intn(4))
	}
	return []Arg{BufArg(a), BufArg(sel), BufArg(NewFloatBuffer(2*l.n + l.pad)), BufArg(NewIntBuffer(l.n)),
		BufArg(NewFloatBuffer(l.n / l.local)), LocalArg(l.local), IntArg(l.n), IntArg(l.t1), IntArg(l.t2)}
}

func (l kgenLaunch) nd() NDRange {
	return NDRange{Global: [3]int{l.n, 1, 1}, Local: [3]int{l.local, 1, 1}}
}

// kgenOutcome is what one tier made of a launch.
type kgenOutcome struct {
	args []Arg
	prof *Profile
	err  error
}

func kgenRun(c *Compiled, l kgenLaunch, steps int64) kgenOutcome {
	args := l.args()
	// One worker: which faulting group reports first is only
	// deterministic when groups run in order.
	opts := RunOptions{Workers: 1}
	if steps > 0 {
		opts.Budget = NewBudget(context.Background(), steps, 0)
	}
	prof, err := c.Run(args, l.nd(), opts)
	return kgenOutcome{args, prof, err}
}

// kgenSame requires two completed runs to agree on every buffer bit and
// every profile bucket.
func kgenSame(t *testing.T, ctx string, want, got kgenOutcome) {
	t.Helper()
	for ai := range want.args {
		wb, gb := want.args[ai].Buf, got.args[ai].Buf
		if wb == nil {
			continue
		}
		for j := range wb.F {
			// Which NaN an operation on two NaNs returns depends on operand
			// order, which the tiers do not promise; any NaN equals any NaN.
			w, g := float64(wb.F[j]), float64(gb.F[j])
			if math.Float32bits(wb.F[j]) != math.Float32bits(gb.F[j]) && !(math.IsNaN(w) && math.IsNaN(g)) {
				t.Fatalf("%s: arg %d float[%d]: %v vs %v", ctx, ai, j, wb.F[j], gb.F[j])
			}
		}
		for j := range wb.I {
			if wb.I[j] != gb.I[j] {
				t.Fatalf("%s: arg %d int[%d]: %d vs %d", ctx, ai, j, wb.I[j], gb.I[j])
			}
		}
	}
	for b := range want.prof.Buckets {
		if want.prof.Buckets[b] != got.prof.Buckets[b] {
			t.Fatalf("%s: bucket %d:\n  want %+v\n  got  %+v", ctx, b, want.prof.Buckets[b], got.prof.Buckets[b])
		}
	}
}

// kgenCheck compiles src on the three tiers and compares them on the
// launch: unbudgeted (buffers, per-bucket profiles, or the fault text),
// then under each step budget (a run either completes with the
// unbudgeted result or aborts with exactly spent = limit = the budget).
func kgenCheck(t *testing.T, src string, l kgenLaunch, budgets []int64) {
	t.Helper()
	u, err := inspire.LowerSource("kgen", src)
	if err != nil {
		t.Fatalf("generated kernel does not lower: %v\n%s", err, src)
	}
	inspire.Optimize(u)
	k := u.Kernel("k")
	tiers := []Tier{TierClosure, TierVM, TierAuto}
	comp := make([]*Compiled, len(tiers))
	for ti, tier := range tiers {
		if comp[ti], err = CompileTier(k, tier); err != nil {
			t.Fatalf("%v compile: %v\n%s", tier, err, src)
		}
	}
	// Every construct the generator emits is one the vector tier admits.
	if verr := comp[2].VecError(); verr != nil {
		t.Fatalf("generated kernel is not on the vector tier: %v\n%s", verr, src)
	}
	hasBarrier := comp[0].hasBarrier

	var ref [3]kgenOutcome
	for ti := range tiers {
		ref[ti] = kgenRun(comp[ti], l, 0)
	}
	oracle := ref[0]
	for ti := 1; ti < len(tiers); ti++ {
		got := ref[ti]
		ctx := fmt.Sprintf("%v vs closure", tiers[ti])
		switch {
		case (oracle.err == nil) != (got.err == nil):
			t.Fatalf("%s: err %v vs %v\n%s", ctx, got.err, oracle.err, src)
		case oracle.err == nil:
			kgenSame(t, ctx, oracle, got)
		case hasBarrier:
			// The oracle's item pool runs a barrier group's items
			// concurrently, so which of several faulting items it
			// reports is not canonical; the VM's is.
			if got.err.Error() != ref[1].err.Error() {
				t.Fatalf("%s: fault text %q, scalar VM %q\n%s", ctx, got.err, ref[1].err, src)
			}
		case got.err.Error() != oracle.err.Error():
			t.Fatalf("%s: fault text %q vs %q\n%s", ctx, got.err, oracle.err, src)
		}
	}
	if oracle.err != nil {
		return
	}
	for _, steps := range budgets {
		for ti, tier := range tiers {
			got := kgenRun(comp[ti], l, steps)
			ctx := fmt.Sprintf("%v under %d steps", tier, steps)
			if got.err == nil {
				kgenSame(t, ctx, oracle, got)
				continue
			}
			var be *BudgetError
			if !errors.As(got.err, &be) || be.Kind != BudgetSteps || be.Spent != steps || be.Limit != steps {
				t.Fatalf("%s: err = %v, want a steps abort with spent = limit = %d\n%s", ctx, got.err, steps, src)
			}
		}
	}
}

// kgenSeed derives a whole case — kernel, launch and budgets — from one
// seed, so a failure reproduces from the seed alone.
func kgenSeed(seed int64) (src string, l kgenLaunch, faulty bool, budgets []int64) {
	r := rand.New(rand.NewSource(seed))
	l = kgenLaunch{
		local: []int{8, 16, 32}[r.Intn(3)],
		t1:    1 + r.Intn(5),
		t2:    1 + r.Intn(3),
		seed:  seed,
	}
	l.n = l.local * (2 + r.Intn(3))
	// A third of the kernels are faulty: risky stores past 2n, zero
	// divisors, and a pad too short for the a[i + sel[i]*s] loads.
	faulty = r.Intn(3) == 0
	l.pad = 3 * max(l.t1, l.t2)
	if faulty {
		l.pad = r.Intn(l.pad)
	}
	// Tight budgets: a few leases (vmStepLease, budget_test.go), so the
	// pool drains mid-group in some iteration of some tier and at
	// different points on different tiers; and one no kernel here can
	// exhaust.
	budgets = []int64{int64(1 + r.Intn(3*int(vmStepLease))), 1 << 40}
	return genKernel(seed, faulty), l, faulty, budgets
}

func kgenCase(t *testing.T, seed int64) {
	src, l, _, budgets := kgenSeed(seed)
	kgenCheck(t, src, l, budgets)
}

// TestGeneratedLoopDivergence runs the generator over a fixed seed range.
func TestGeneratedLoopDivergence(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 100
	}
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { kgenCase(t, seed) })
	}
}

// FuzzGeneratedLoopDivergence explores seeds beyond the fixed range
// (go test -fuzz FuzzGeneratedLoopDivergence ./internal/exec); a plain
// go test only replays the seeds added here.
func FuzzGeneratedLoopDivergence(f *testing.F) {
	f.Add(int64(1 << 20))
	f.Fuzz(func(t *testing.T, seed int64) { kgenCase(t, seed) })
}
