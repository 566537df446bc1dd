package vm

import (
	"fmt"
	"math/bits"
)

// SIMT vector execution tier. Vectorize analyzes a compiled Func for
// register uniformity at the bytecode level and, when the kernel's loop
// trip counts are group-uniform, produces a VecFunc that executes W work
// items per instruction dispatch: varying registers become W-wide lane
// arrays, straight-line arms loop over lanes inside one switch arm, and
// branches take one comparison per group (statically uniform
// conditions) or one lane-agreement scan (varying forward conditions).
//
// Uniform scalarization: registers proven group-uniform live in a
// single scalar slot (VecFrame.SI/SF) instead of W lanes, and every
// instruction whose destination is uniform executes exactly once per
// dispatch (scal[pc]); uniform operands feeding a varying instruction
// are broadcast into scratch lanes on demand (srcU[pc] marks them).
// Loads with uniform indices are uniform too — the lanes run in
// instruction-level lockstep against the same memory state, so a load
// from the same address yields lane-equal values. The lane storage of
// a uniform register is never written and holds garbage: all readers —
// dispatch arms, divergence sub-frames, the bail-out scatter — must
// consult the uniformity classification.
//
// Divergence re-convergence: the tier is optimistic about statically
// varying forward branches, and the group runs full-width as long as
// every lane agrees at runtime (the common `if (gid < n)` guard
// converges for every aligned group). On disagreement the group splits:
// each side of the branch runs as a compacted sub-group (width = its
// lane count) through the same dispatch loop up to the join point
// recorded at vectorize time (the branch's immediate post-dominator),
// then the group re-forms and resumes full-width. A varying branch
// inside a loop body is expected to disagree, so it is admitted only
// when its region is loop-free — the group re-forms every iteration —
// and every register the region writes is classified varying (control
// dependence; see Vectorize). Only irreducible
// divergence — no safe join point, nested splits beyond the depth cap,
// or a would-fault lane inside a split — falls back to the full bail:
// Run returns Diverged and the caller completes each lane on the scalar
// VM from its per-lane PC. Scalar completion walks items in canonical
// order, so it reproduces the canonical item-order fault message and
// per-item counts exactly, and buffer/profile/fault parity with the
// scalar VM and closure tiers is preserved byte-for-byte.
//
// Counter and budget accounting: under convergent execution every lane
// retires the same instruction sequence, so the packed profile
// accumulators (counts.go) are charged once per dispatch — they hold
// per-item counts, which the caller replicates into each item's bucket
// — and scalarized instructions charge the same per-item constants
// (executing once per dispatch is exactly the per-item cost). Budget
// fuel is charged W per taken jump (W items each spent one step); a
// scalarized jump still charges W. After a split the sides accumulate
// per-lane count deltas (VecFrame.laneCnt) on top of the shared
// counts, so per-item totals stay exact. The spill-room cadence is
// identical to the scalar VM.

// VecFunc is the vectorized view of a compiled kernel: the same
// bytecode, plus the uniformity classification that drives
// scalarization and branch handling.
type VecFunc struct {
	*Func

	// condUniform[pc] is true when the conditional jump at pc has a
	// statically group-uniform condition: one test decides the whole
	// group. Varying conditions get a runtime agreement scan.
	condUniform []bool

	// uniI/uniF record the register classification (true = proven
	// group-uniform) for the disassembler, the bail-out scatter, and
	// the split fill/scatter.
	uniI, uniF []bool

	// scal[pc] is true when the instruction at pc executes once per
	// dispatch on the scalar slots: its destination register (and
	// therefore every operand) is uniform, or it is a store of a
	// uniform value to a uniform index, or a conditional jump with a
	// uniform condition.
	scal []bool

	// srcU[pc] marks which register operands of a non-scalarized
	// instruction are uniform and must be read from the scalar slots
	// (broadcast on demand) instead of their garbage lane storage.
	srcU []uint8

	// joinPC[pc] is the re-convergence point of the varying
	// conditional jump at pc — its immediate post-dominator — or -1
	// when the divergent region is ineligible (contains a barrier,
	// writes a uniform register, or stores through a uniform index)
	// and disagreement must take the full scalar bail. A varying
	// branch inside a loop always has one: Vectorize refuses the
	// kernel otherwise.
	joinPC []int

	// regions[pc] (non-nil only where joinPC[pc] >= 0) lists the
	// registers a split at pc copies into and out of its side frames.
	regions []*splitRegion
}

// srcU operand bits. B and C follow the instruction's register fields;
// X is the third register operand (packed in Imm for FmtFabcImm /
// FmtIabcImm, r/r3 for the index-fused loads), X2 is macidx.f's r2.
const (
	srcUB uint8 = 1 << iota
	srcUC
	srcUX
	srcUX2
)

// UniformConds reports how many of the kernel's conditional jumps have
// statically uniform conditions, and the total number of conditional
// jumps.
func (p *VecFunc) UniformConds() (uniform, total int) {
	for pc := range p.Code {
		if _, ok := condJumpTarget(&p.Code[pc], pc); ok {
			total++
			if p.condUniform[pc] {
				uniform++
			}
		}
	}
	return uniform, total
}

// ScalarizedOps reports how many instructions execute once per dispatch
// on the scalar slots.
func (p *VecFunc) ScalarizedOps() int {
	n := 0
	for _, s := range p.scal {
		if s {
			n++
		}
	}
	return n
}

// ceilPow2 rounds n up to the next power of two (minimum 1), so
// register indices can be masked instead of bounds-checked.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// jumpTarget returns the target of any jump instruction (conditional or
// not) and whether in jumps at all.
func jumpTarget(in *Instr, pc int) (int, bool) {
	switch in.Op {
	case OpJmp, OpJZBr, OpJZLog, OpJNZLog, OpJCmpI, OpJCmpF:
		return int(in.Imm), true
	case OpJCmpIImm:
		return int(in.C), true
	case OpIncJCmpI:
		_, t := unpackCcTarget(in.Imm)
		return int(t), true
	}
	return 0, false
}

// condJumpTarget returns the target of a conditional jump, or ok=false
// for every other instruction (including OpJmp).
func condJumpTarget(in *Instr, pc int) (int, bool) {
	if in.Op == OpJmp {
		return 0, false
	}
	return jumpTarget(in, pc)
}

// Vectorize classifies every register of p as group-uniform or varying
// and decides whether the kernel's loop structure admits SIMT
// execution. It fails when a loop back-edge condition is varying (the
// lanes would iterate different trip counts) or a varying conditional
// jump inside a loop body guards a region the group cannot re-form
// after within the same iteration (the region reaches a back-edge — a
// nested loop or a break — or is ineligible for masked execution; see
// computeJoin). Every other varying forward branch is admitted, checked
// for agreement at runtime, and annotated with its re-convergence point
// when the divergent region is safe to run masked.
func Vectorize(p *Func) (*VecFunc, error) {
	nI, nF := max(p.NumI, 1), max(p.NumF, 1)
	varI := make([]bool, nI)
	varF := make([]bool, nF)
	markI := func(r int32, v bool, changed *bool) {
		if v && !varI[r] {
			varI[r] = true
			*changed = true
		}
	}
	markF := func(r int32, v bool, changed *bool) {
		if v && !varF[r] {
			varF[r] = true
			*changed = true
		}
	}

	// Data dependence, flow-insensitive: a register is varying if any
	// write to it anywhere is varying. This is sound because every
	// control path the vector loop actually follows is convergent
	// (uniform branches by induction, varying branches outside loops by
	// the runtime agreement check, their divergent regions by the
	// no-uniform-write eligibility rule, and varying branches inside
	// loops by the control-dependence pass below), so a "uniform"
	// register always holds lane-equal values whenever it is read.
	// Loads are uniform when every index component is uniform: the
	// lanes read the same address against the same memory state.
	propagate := func() error {
		for changed := true; changed; {
			changed = false
			for i := range p.Code {
				in := &p.Code[i]
				info, ok := LookupOp(in.Op)
				if !ok {
					return fmt.Errorf("exec: vec: illegal opcode %d at pc %d", in.Op, i)
				}
				switch info.Fmt {
				case FmtNone, FmtJmp, FmtJCond, FmtJCmpI, FmtJCmpIImm, FmtJCmpF,
					FmtBar, FmtStoreF, FmtStoreI:
					// No register result.
				case FmtIab:
					markI(in.A, varI[in.B], &changed)
				case FmtIabc:
					markI(in.A, varI[in.B] || varI[in.C], &changed)
				case FmtIabImm:
					markI(in.A, varI[in.B], &changed)
				case FmtIaImm:
					// Constant: uniform.
				case FmtFabc:
					markF(in.A, varF[in.B] || varF[in.C], &changed)
				case FmtFab:
					markF(in.A, varF[in.B], &changed)
				case FmtFaPool:
					// Constant: uniform.
				case FmtFaIb:
					markF(in.A, varI[in.B], &changed)
				case FmtIaFb:
					markI(in.A, varF[in.B], &changed)
				case FmtIaFbc:
					markI(in.A, varF[in.B] || varF[in.C], &changed)
				case FmtFabcImm:
					markF(in.A, varF[in.B] || varF[in.C] || varF[int32(in.Imm)], &changed)
				case FmtIabcImm:
					markI(in.A, varI[in.B] || varI[in.C] || varI[int32(in.Imm)], &changed)
				case FmtMulImmAdd:
					markI(in.A, varI[in.B] || varI[in.C], &changed)
				case FmtWI:
					markI(in.A, in.B == WIGlobalID || in.B == WILocalID, &changed)
				case FmtWIDyn:
					markI(in.A, in.B == WIGlobalID || in.B == WILocalID || varI[in.C], &changed)
				case FmtLoadF:
					markF(in.A, varI[in.C], &changed)
				case FmtLoadI:
					markI(in.A, varI[in.C], &changed)
				case FmtFusedLdF:
					markF(in.A, varF[in.B] || varI[in.C], &changed)
				case FmtFusedMacF:
					markF(in.A, varF[in.B] || varI[in.C], &changed)
				case FmtLdIdxF:
					_, _, r3 := unpackMemIdx(in.Imm)
					markF(in.A, varI[in.B] || varI[in.C] || varI[r3], &changed)
				case FmtMacIdxF:
					_, _, r2, r3 := unpackMacIdx(in.Imm)
					markF(in.A, varF[in.B] || varI[in.C] || varI[r2] || varI[r3], &changed)
				case FmtIncJCmpI:
					markI(in.A, varI[in.A] || varI[in.B], &changed)
				default:
					return fmt.Errorf("exec: vec: unhandled operand format for %s at pc %d", in.Op, i)
				}
			}
		}
		return nil
	}
	if err := propagate(); err != nil {
		return nil, err
	}

	condU := make([]bool, len(p.Code))
	uniformCond := func(in *Instr) bool {
		switch in.Op {
		case OpJZBr, OpJZLog, OpJNZLog:
			return !varI[in.A]
		case OpJCmpI:
			return !varI[in.A] && !varI[in.B]
		case OpJCmpIImm:
			return !varI[in.A]
		case OpJCmpF:
			return !varF[in.A] && !varF[in.B]
		case OpIncJCmpI:
			return !varI[in.A] && !varI[in.B] && !varI[in.C]
		}
		return false
	}

	// Loop bodies are the union of all backward-jump spans [target, pc].
	inLoop := make([]bool, len(p.Code))
	for i := range p.Code {
		if t, ok := jumpTarget(&p.Code[i], i); ok && t <= i {
			for j := t; j <= i; j++ {
				inLoop[j] = true
			}
		}
	}

	// Control dependence (the divergence analysis of whole-function
	// vectorization): a value defined under varying control is varying.
	// A varying forward branch inside a loop cannot rely on the runtime
	// agreement check — it would bail every iteration — so when the
	// region up to its immediate post-dominator is loop-free (the group
	// re-forms within the same iteration) every register the region
	// writes is promoted to varying, and the data fixpoint reruns until
	// nothing moves. Branches outside loops keep the optimistic
	// agree-or-bail treatment: the `if (gid < n)` guard around a whole
	// kernel holds uniform loop counters that must stay uniform. The
	// post-dominator sets are built once, and only when some in-loop
	// branch is varying.
	var g *flowGraph
	for promoted := true; promoted; {
		promoted = false
		for i := range p.Code {
			in := &p.Code[i]
			if t, ok := condJumpTarget(in, i); !ok || t <= i || !inLoop[i] || uniformCond(in) {
				continue
			}
			if g == nil {
				g = newFlowGraph(p.Code)
			}
			region, loopFree := g.region(i)
			if !loopFree {
				continue
			}
			for _, v := range region {
				if isF, r, ok := destReg(&p.Code[v]); ok {
					file := varI
					if isF {
						file = varF
					}
					if !file[r] {
						file[r], promoted = true, true
					}
				}
			}
		}
		if promoted {
			if err := propagate(); err != nil {
				return nil, err
			}
		}
	}

	vf := &VecFunc{Func: p, condUniform: condU, uniI: notAll(varI), uniF: notAll(varF)}
	vf.scal = make([]bool, len(p.Code))
	vf.srcU = make([]uint8, len(p.Code))
	vf.joinPC = make([]int, len(p.Code))
	for i := range vf.joinPC {
		vf.joinPC[i] = -1
	}
	for i := range p.Code {
		in := &p.Code[i]
		t, ok := condJumpTarget(in, i)
		if !ok {
			continue
		}
		u := uniformCond(in)
		condU[i] = u
		if u {
			continue
		}
		if t <= i {
			return nil, fmt.Errorf("exec: vec: varying loop back-edge at pc %d (%s)", i, in.Op)
		}
		if in.Op == OpIncJCmpI {
			// addjcmp.i mutates its counter before testing; a divergence
			// bail-out could not restore pre-instruction state.
			return nil, fmt.Errorf("exec: vec: varying fused loop counter at pc %d", i)
		}
		if g == nil {
			g = newFlowGraph(p.Code)
		}
		vf.computeJoin(g, i, inLoop[i])
		if inLoop[i] && vf.joinPC[i] < 0 {
			return nil, fmt.Errorf("exec: vec: varying branch inside loop body at pc %d (%s)", i, in.Op)
		}
	}
	vf.computeScal(varI, varF)
	return vf, nil
}

func notAll(v []bool) []bool {
	u := make([]bool, len(v))
	for i, b := range v {
		u[i] = !b
	}
	return u
}

// computeScal fills scal (instructions that execute once per dispatch
// on the scalar slots) and srcU (uniform operands of vector
// instructions that must be broadcast from the scalar slots).
func (vf *VecFunc) computeScal(varI, varF []bool) {
	p := vf.Func
	uI := func(r int32) bool { return !varI[r] }
	uF := func(r int32) bool { return !varF[r] }
	for i := range p.Code {
		in := &p.Code[i]
		info, _ := LookupOp(in.Op)
		var s bool
		var u uint8
		setI := func(bit uint8, r int32) {
			if uI(r) {
				u |= bit
			}
		}
		setF := func(bit uint8, r int32) {
			if uF(r) {
				u |= bit
			}
		}
		switch info.Fmt {
		case FmtNone, FmtJmp, FmtBar:
			// Never scalarized, no register reads.
		case FmtIab, FmtIabImm:
			s = uI(in.A)
			if !s {
				setI(srcUB, in.B)
			}
		case FmtIabc:
			s = uI(in.A)
			if !s {
				setI(srcUB, in.B)
				setI(srcUC, in.C)
			}
		case FmtIaImm:
			s = uI(in.A)
		case FmtFab:
			s = uF(in.A)
			if !s {
				setF(srcUB, in.B)
			}
		case FmtFabc:
			s = uF(in.A)
			if !s {
				setF(srcUB, in.B)
				setF(srcUC, in.C)
			}
		case FmtFaPool:
			s = uF(in.A)
		case FmtFaIb:
			s = uF(in.A)
			if !s {
				setI(srcUB, in.B)
			}
		case FmtIaFb:
			s = uI(in.A)
			if !s {
				setF(srcUB, in.B)
			}
		case FmtIaFbc:
			s = uI(in.A)
			if !s {
				setF(srcUB, in.B)
				setF(srcUC, in.C)
			}
		case FmtFabcImm:
			s = uF(in.A)
			if !s {
				setF(srcUB, in.B)
				setF(srcUC, in.C)
				setF(srcUX, int32(in.Imm))
			}
		case FmtIabcImm:
			s = uI(in.A)
			if !s {
				setI(srcUB, in.B)
				setI(srcUC, in.C)
				setI(srcUX, int32(in.Imm))
			}
		case FmtMulImmAdd:
			s = uI(in.A)
			if !s {
				setI(srcUB, in.B)
				setI(srcUC, in.C)
			}
		case FmtWI:
			s = uI(in.A)
		case FmtWIDyn:
			s = uI(in.A)
			if !s {
				setI(srcUC, in.C)
			}
		case FmtLoadF:
			s = uF(in.A)
			if !s {
				setI(srcUC, in.C)
			}
		case FmtLoadI:
			s = uI(in.A)
			if !s {
				setI(srcUC, in.C)
			}
		case FmtStoreF:
			s = uF(in.A) && uI(in.C)
			if !s {
				setF(srcUB, in.A)
				setI(srcUC, in.C)
			}
		case FmtStoreI:
			s = uI(in.A) && uI(in.C)
			if !s {
				setI(srcUB, in.A)
				setI(srcUC, in.C)
			}
		case FmtFusedLdF, FmtFusedMacF:
			s = uF(in.A)
			if !s {
				setF(srcUB, in.B)
				setI(srcUC, in.C)
			}
		case FmtLdIdxF:
			s = uF(in.A)
			if !s {
				_, _, r3 := unpackMemIdx(in.Imm)
				setI(srcUB, in.B)
				setI(srcUC, in.C)
				setI(srcUX, r3)
			}
		case FmtMacIdxF:
			s = uF(in.A)
			if !s {
				_, _, r2, r3 := unpackMacIdx(in.Imm)
				setF(srcUB, in.B)
				setI(srcUC, in.C)
				setI(srcUX2, r2)
				setI(srcUX, r3)
			}
		case FmtJCond:
			// The only register operand of a varying jz/jnz condition
			// is by definition varying: no broadcast bits needed.
			s = vf.condUniform[i]
		case FmtJCmpI:
			s = vf.condUniform[i]
			if !s {
				setI(srcUB, in.A)
				setI(srcUC, in.B)
			}
		case FmtJCmpIImm:
			s = vf.condUniform[i]
		case FmtJCmpF:
			s = vf.condUniform[i]
			if !s {
				setF(srcUB, in.A)
				setF(srcUC, in.B)
			}
		case FmtIncJCmpI:
			// A varying addjcmp.i is rejected at admission, so this is
			// always the statically uniform loop counter.
			s = vf.condUniform[i]
		}
		vf.scal[i] = s
		vf.srcU[i] = u
	}
}

// flowGraph is a kernel's control-flow graph over nodes 0..n, where the
// virtual exit node n is reached by halt and by running off the end,
// with its post-dominator sets. Vectorize builds it at most once, and
// only for kernels that have a varying conditional jump.
type flowGraph struct {
	code  []Instr
	words int
	pd    []uint64 // (n+1) bitset rows: pd[v] = nodes post-dominating v
	ipd   []int    // immediate post-dominators, computed on demand (-2 = not yet)

	seen  []bool // region walk scratch
	stack []int
	nodes []int
}

// succs returns the successor nodes of pc (-1 = none).
func (g *flowGraph) succs(v int) (int, int) {
	n := len(g.code)
	in := &g.code[v]
	if in.Op == OpHalt {
		return n, -1
	}
	if in.Op == OpJmp {
		return int(in.Imm), -1
	}
	nx := v + 1
	if nx > n {
		nx = n
	}
	if t, ok := condJumpTarget(in, v); ok {
		return nx, t
	}
	return nx, -1
}

func (g *flowGraph) row(v int) []uint64 { return g.pd[v*g.words : (v+1)*g.words] }

// newFlowGraph solves the post-dominator dataflow: pdom[exit] = {exit},
// pdom[v] = {v} ∪ ∩ pdom[succ]. Kernels are a few hundred instructions
// at most, so the quadratic iteration is irrelevant at compile time.
func newFlowGraph(code []Instr) *flowGraph {
	n := len(code)
	words := (n + 1 + 63) / 64
	g := &flowGraph{
		code:  code,
		words: words,
		pd:    make([]uint64, (n+1)*words),
		ipd:   make([]int, n),
		seen:  make([]bool, n+1),
		stack: make([]int, 0, n),
		nodes: make([]int, 0, n),
	}
	for v := 0; v < n; v++ {
		g.ipd[v] = -2
		r := g.row(v)
		for w := range r {
			r[w] = ^uint64(0)
		}
	}
	g.row(n)[n/64] = 1 << (n % 64)
	tmp := make([]uint64, words)
	for changed := true; changed; {
		changed = false
		for v := n - 1; v >= 0; v-- {
			s1, s2 := g.succs(v)
			copy(tmp, g.row(s1))
			if s2 >= 0 {
				r2 := g.row(s2)
				for w := range tmp {
					tmp[w] &= r2[w]
				}
			}
			tmp[v/64] |= 1 << (v % 64)
			r := g.row(v)
			for w := range tmp {
				if r[w] != tmp[w] {
					copy(r, tmp)
					changed = true
					break
				}
			}
		}
	}
	return g
}

// ipdom returns the immediate post-dominator of v: the strict
// post-dominator with the largest pdom set (strict pdoms form a chain;
// the nearest one post-dominates into all the others), or -1.
func (g *flowGraph) ipdom(v int) int {
	if g.ipd[v] != -2 {
		return g.ipd[v]
	}
	card := func(b int) int {
		c := 0
		for _, w := range g.row(b) {
			c += bits.OnesCount64(w)
		}
		return c
	}
	best, bestCard := -1, -1
	for w, word := range g.row(v) {
		for word != 0 {
			b := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if b == v {
				continue
			}
			if c := card(b); c > bestCard {
				best, bestCard = b, c
			}
		}
	}
	g.ipd[v] = best
	return best
}

// region returns the divergent region of the conditional jump at pc —
// the instructions on some path from the branch to its immediate
// post-dominator, both excluded — and whether it is loop-free: no
// back-edge, so a group that splits at pc re-forms at the join without
// either side passing the branch again. The slice is scratch, valid
// until the next call; a branch with no post-dominator has no region.
func (g *flowGraph) region(pc int) (nodes []int, loopFree bool) {
	j := g.ipdom(pc)
	if j < 0 {
		return nil, false
	}
	n := len(g.code)
	clear(g.seen)
	g.stack, g.nodes = g.stack[:0], g.nodes[:0]
	push := func(v int) {
		if v >= 0 && v != j && !g.seen[v] {
			g.seen[v] = true
			if v < n {
				g.stack = append(g.stack, v)
			}
		}
	}
	s1, s2 := g.succs(pc)
	push(s1)
	push(s2)
	loopFree = true
	for len(g.stack) > 0 {
		v := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		g.nodes = append(g.nodes, v)
		if t, ok := jumpTarget(&g.code[v], v); ok && t <= v {
			loopFree = false
		}
		a, b := g.succs(v)
		push(a)
		push(b)
	}
	return g.nodes, loopFree
}

// splitRegion is what a divergence split at one varying branch copies:
// the split fill compacts the varying registers the region reads or
// writes (in) into a side frame — and the work-item rows when the region
// queries them (wi) — and the scatter returns the ones it writes (out).
// Registers outside these sets are skipped entirely, which is most of
// the cost of a divergence on register-heavy kernels.
type splitRegion struct {
	inI, inF   []int32
	outI, outF []int32
	wi         bool
}

// computeJoin records, for the varying conditional jump at pc, the
// point where a split group can re-form: the branch's immediate
// post-dominator, provided the divergent region between the branch and
// the join is safe to run one side at a time — no barriers (the sides
// would deadlock each other), no writes to uniform registers (the
// sides would disagree about a "uniform" value at the join), no
// stores through a uniform index (side order would replace the
// canonical item order for the conflicting writes), and, for a branch
// inside a loop, no back-edge (the group must re-form every iteration).
func (vf *VecFunc) computeJoin(g *flowGraph, pc int, inLoop bool) {
	p := vf.Func
	nodes, loopFree := g.region(pc)
	j := g.ipdom(pc)
	if j < 0 || inLoop && !loopFree {
		return
	}
	tI := make([]bool, len(vf.uniI))
	tF := make([]bool, len(vf.uniF))
	wI := make([]bool, len(vf.uniI))
	wF := make([]bool, len(vf.uniF))
	reg := &splitRegion{}
	for _, v := range nodes {
		in := &p.Code[v]
		if in.Op == OpBar {
			return
		}
		if isF, r, ok := destReg(in); ok {
			if isF && vf.uniF[r] || !isF && vf.uniI[r] {
				return
			}
			if isF {
				wF[r] = true
			} else {
				wI[r] = true
			}
		}
		info, _ := LookupOp(in.Op)
		if (info.Fmt == FmtStoreF || info.Fmt == FmtStoreI) && vf.uniI[in.C] {
			return
		}
		touchRegs(in, tI, tF, &reg.wi)
	}
	// Uniform registers are read from the aliased scalar slots.
	list := func(set, uni []bool) []int32 {
		var rs []int32
		for r, t := range set {
			if t && !uni[r] {
				rs = append(rs, int32(r))
			}
		}
		return rs
	}
	reg.inI, reg.inF = list(tI, vf.uniI), list(tF, vf.uniF)
	reg.outI, reg.outF = list(wI, vf.uniI), list(wF, vf.uniF)
	if vf.regions == nil {
		vf.regions = make([]*splitRegion, len(p.Code))
	}
	vf.joinPC[pc] = j
	vf.regions[pc] = reg
}

// touchRegs marks every register operand (sources and destination) of
// the instruction in tI/tF, and *wi when it queries a work-item row.
func touchRegs(in *Instr, tI, tF []bool, wi *bool) {
	info, _ := LookupOp(in.Op)
	mI := func(r int32) { tI[r] = true }
	mF := func(r int32) { tF[r] = true }
	switch info.Fmt {
	case FmtNone, FmtJmp, FmtBar:
	case FmtJCond:
		mI(in.A)
	case FmtJCmpI:
		mI(in.A)
		mI(in.B)
	case FmtJCmpIImm:
		mI(in.A)
	case FmtJCmpF:
		mF(in.A)
		mF(in.B)
	case FmtStoreF:
		mF(in.A)
		mI(in.C)
	case FmtStoreI:
		mI(in.A)
		mI(in.C)
	case FmtIab, FmtIabImm:
		mI(in.A)
		mI(in.B)
	case FmtIabc, FmtMulImmAdd, FmtIncJCmpI:
		mI(in.A)
		mI(in.B)
		mI(in.C)
	case FmtIaImm:
		mI(in.A)
	case FmtFab:
		mF(in.A)
		mF(in.B)
	case FmtFabc:
		mF(in.A)
		mF(in.B)
		mF(in.C)
	case FmtFaPool:
		mF(in.A)
	case FmtFaIb:
		mF(in.A)
		mI(in.B)
	case FmtIaFb:
		mI(in.A)
		mF(in.B)
	case FmtIaFbc:
		mI(in.A)
		mF(in.B)
		mF(in.C)
	case FmtFabcImm:
		mF(in.A)
		mF(in.B)
		mF(in.C)
		mF(int32(in.Imm))
	case FmtIabcImm:
		mI(in.A)
		mI(in.B)
		mI(in.C)
		mI(int32(in.Imm))
	case FmtWI:
		mI(in.A)
		*wi = true
	case FmtWIDyn:
		mI(in.A)
		mI(in.C)
		*wi = true
	case FmtLoadF:
		mF(in.A)
		mI(in.C)
	case FmtLoadI:
		mI(in.A)
		mI(in.C)
	case FmtFusedLdF, FmtFusedMacF:
		mF(in.A)
		mF(in.B)
		mI(in.C)
	case FmtLdIdxF:
		_, _, r3 := unpackMemIdx(in.Imm)
		mF(in.A)
		mI(in.B)
		mI(in.C)
		mI(r3)
	case FmtMacIdxF:
		_, _, r2, r3 := unpackMacIdx(in.Imm)
		mF(in.A)
		mF(in.B)
		mI(in.C)
		mI(r2)
		mI(r3)
	}
}

// VecFrame is the per-group SIMT execution state: W-wide lane arrays
// for the varying registers of both files (lane-major: register r
// occupies [r*W, r*W+W)), scalar slots for the uniform registers, the
// shared buffer tables, the work-item lane vectors, and the group's
// counts.
type VecFrame struct {
	W int

	I []int64   // ceilPow2(NumI) * W lanes (varying registers)
	F []float64 // ceilPow2(NumF) * W lanes

	// SI/SF are the scalar slots: one value per uniform register,
	// written by scalarized instructions and by SetI/SetF argument
	// binding. A uniform register's lane storage is garbage.
	SI []int64
	SF []float64

	Globals []Buf
	Locals  []Buf

	// WI holds the six work-item query rows as lane vectors indexed by
	// the same order as Frame.WI; gid and lid are per-lane ramps, the
	// rest are broadcast.
	WI [6][3][]int64

	// Cnt holds the counts shared by every lane: under convergent
	// execution one accumulation stands for each item. After a
	// divergence split the sides differ, and the per-lane deltas land
	// in laneCnt (Laned reports whether any exist), field-major so a
	// side's delta is one add per lane for each field it moved; an
	// item's total is Cnt plus its lane's delta (LaneCounts).
	Cnt     Counts
	Laned   bool
	laneCnt []int64 // nCountFields rows of len(idx) lanes

	PC int

	// PCLaned marks a full bail out of a divergence split: the lanes
	// stopped at different PCs (LanePC) and the caller must complete
	// each lane from its own program point. Otherwise every lane is at
	// PC.
	PCLaned bool
	LanePC  []int

	// Stop is the re-convergence join point when this frame executes
	// one side of a split (-1 otherwise): Run returns as soon as the
	// PC reaches it.
	Stop int

	// Divergences counts runtime lane disagreements at varying
	// branches; Reconverges counts the splits that re-formed at the
	// join. The difference escalated to a scalar bail.
	Divergences int64
	Reconverges int64

	// Fuel is the group's step allowance, charged W per taken jump and
	// refilled in leases from B exactly like Frame.Fuel.
	Fuel int64
	B    *Budget

	idx        []int64   // scratch lane indices for two-pass memory ops
	bcI        []int64   // broadcast scratch: 3 int operand slots
	bcF        []float64 // broadcast scratch: 3 float operand slots
	mi, mf     int32     // pow2 register-index masks
	depth      int       // split nesting depth (0 = full group)
	subs       [2]*VecFrame
	sel0, sel1 []int // split lane partitions (parent lane numbers)
}

// NewVecFrame allocates a W-lane frame for p. Buffer tables, scalar
// arguments, and WI rows are bound by the caller.
func (p *VecFunc) NewVecFrame(w int) *VecFrame {
	ni, nf := ceilPow2(p.NumI), ceilPow2(p.NumF)
	f := &VecFrame{
		W:    w,
		I:    make([]int64, ni*w),
		F:    make([]float64, nf*w),
		SI:   make([]int64, ni),
		SF:   make([]float64, nf),
		idx:  make([]int64, w),
		bcI:  make([]int64, 3*w),
		bcF:  make([]float64, 3*w),
		mi:   int32(ni - 1),
		mf:   int32(nf - 1),
		sel0: make([]int, 0, w),
		sel1: make([]int, 0, w),
		Stop: -1,
	}
	for q := range f.WI {
		for d := range f.WI[q] {
			f.WI[q][d] = make([]int64, w)
		}
	}
	return f
}

// lanesI returns register r's int lane slice. The register index is
// pow2-masked, so no encoding can index out of the file.
// lanesI and lanesF are written as a reslice chain rather than the
// obvious f.I[o:o+f.W]: that keeps their inline cost under the reduced
// budget the compiler applies to inlinees of a "big" function, so the
// VecFunc.Run dispatch loop gets them inlined instead of paying a call
// per operand read.
func (f *VecFrame) lanesI(r int32) []int64 {
	return f.I[int(r&f.mi)*f.W:][:f.W]
}

func (f *VecFrame) lanesF(r int32) []float64 {
	return f.F[int(r&f.mf)*f.W:][:f.W]
}

// splatI fills broadcast slot s with v and returns it as a lane slice.
func (f *VecFrame) splatI(s int, v int64) []int64 {
	a := f.bcI[s*f.W : s*f.W+f.W]
	for l := range a {
		a[l] = v
	}
	return a
}

func (f *VecFrame) splatF(s int, v float64) []float64 {
	a := f.bcF[s*f.W : s*f.W+f.W]
	for l := range a {
		a[l] = v
	}
	return a
}

// rdI returns register r as a lane slice for a vector arm: the real
// lanes when r is varying, or its scalar slot broadcast into scratch
// slot s when uniform (lane storage of uniform registers is garbage).
func (f *VecFrame) rdI(r int32, uniform bool, s int) []int64 {
	if uniform {
		return f.splatI(s, f.SI[r&f.mi])
	}
	return f.lanesI(r)
}

func (f *VecFrame) rdF(r int32, uniform bool, s int) []float64 {
	if uniform {
		return f.splatF(s, f.SF[r&f.mf])
	}
	return f.lanesF(r)
}

// SetI binds a scalar into int register r: every lane and the scalar
// slot, so the value is visible whichever storage the classification
// selects (argument binding).
func (f *VecFrame) SetI(r int32, v int64) {
	a := f.lanesI(r)
	for l := range a {
		a[l] = v
	}
	f.SI[r&f.mi] = v
}

// SetF binds a scalar into float register r.
func (f *VecFrame) SetF(r int32, v float64) {
	a := f.lanesF(r)
	for l := range a {
		a[l] = v
	}
	f.SF[r&f.mf] = v
}

// Reset rewinds the frame to the kernel entry and clears its counts
// and divergence state. Register lanes keep their values, mirroring
// Frame.Reset.
func (f *VecFrame) Reset() {
	f.PC = 0
	f.Cnt = Counts{}
	f.Stop = -1
	f.Laned = false
	f.PCLaned = false
	f.Divergences = 0
	f.Reconverges = 0
}

// spend burns w units of fuel (one per lane) at a taken jump, refilling
// the lease from the budget on underflow.
func (f *VecFrame) spend(w int64) error {
	f.Fuel -= w
	for f.Fuel < 0 {
		lease, err := f.B.TakeLease()
		if err != nil {
			return err
		}
		f.Fuel += lease
	}
	return nil
}

func (p *VecFunc) exitVec(f *VecFrame, a0, a1 uint64, pc int) {
	f.Cnt.addPacked(a0, a1)
	f.PC = pc
}

// nCountFields is how many Counts fields the dispatch arms accumulate
// (Items and MaxItemOps are derived by the caller per item).
const nCountFields = 9

// fields returns the accumulated fields in laneCnt row order.
func (c *Counts) fields() [nCountFields]int64 {
	return [nCountFields]int64{c.IntOps, c.FloatOps, c.TransOps, c.OtherBuiltins,
		c.GlobalLoads, c.GlobalStores, c.LocalOps, c.Branches, c.Barriers}
}

// LaneCounts returns lane li's accumulated per-item counts: the shared
// counts plus the lane's divergence delta, if any.
func (f *VecFrame) LaneCounts(li int) Counts {
	c := f.Cnt
	if f.Laned {
		d := f.laneCnt[li:]
		w := len(f.idx)
		c.IntOps += d[0]
		c.FloatOps += d[w]
		c.TransOps += d[2*w]
		c.OtherBuiltins += d[3*w]
		c.GlobalLoads += d[4*w]
		c.GlobalStores += d[5*w]
		c.LocalOps += d[6*w]
		c.Branches += d[7*w]
		c.Barriers += d[8*w]
	}
	return c
}

// ensureLaned activates the per-lane count deltas, zeroed.
func (f *VecFrame) ensureLaned() {
	if f.Laned {
		return
	}
	if f.laneCnt == nil {
		f.laneCnt = make([]int64, nCountFields*len(f.idx))
	}
	clear(f.laneCnt)
	f.Laned = true
}

// ensurePCLaned activates the per-lane PC array.
func (f *VecFrame) ensurePCLaned() {
	if f.LanePC == nil {
		f.LanePC = make([]int, len(f.idx))
	}
}

// ScatterLane copies lane li of the vector frame into a scalar Frame:
// registers (uniform registers come from the scalar slots), the lane's
// program point, and its accumulated counts. The exec layer uses it to
// hand a lane to the scalar VM on a divergence bail.
func (p *VecFunc) ScatterLane(f *VecFrame, li int, dst *Frame) {
	for r := 0; r < p.NumI; r++ {
		if p.uniI[r] {
			dst.I[r] = f.SI[r]
		} else {
			dst.I[r] = f.I[r*f.W+li]
		}
	}
	for r := 0; r < p.NumF; r++ {
		if p.uniF[r] {
			dst.F[r] = f.SF[r]
		} else {
			dst.F[r] = f.F[r*f.W+li]
		}
	}
	if f.PCLaned {
		dst.PC = f.LanePC[li]
	} else {
		dst.PC = f.PC
	}
	dst.Cnt = f.LaneCounts(li)
}

// subFrame returns the lazily allocated side frame i, dimensioned for
// this frame's full width.
func (p *VecFunc) subFrame(f *VecFrame, i int) *VecFrame {
	s := f.subs[i]
	if s == nil {
		s = p.NewVecFrame(len(f.idx))
		f.subs[i] = s
	}
	return s
}

// fillSub prepares side frame s to run the lanes sel of f from start
// to the join point stop for the divergent region of the branch at
// pc: the varying registers the region touches (and, when it queries
// them, the WI rows) are compacted into lanes 0..len(sel)-1, the
// scalar slots are aliased (the region cannot write a uniform
// register), and buffers and budget are shared.
func (p *VecFunc) fillSub(f, s *VecFrame, sel []int, start, stop, pc int) {
	k := len(sel)
	s.W = k
	s.Globals, s.Locals = f.Globals, f.Locals
	s.B = f.B
	s.SI, s.SF = f.SI, f.SF
	s.depth = f.depth + 1
	s.Stop = stop
	s.PC = start
	s.Cnt = Counts{}
	s.Laned = false
	s.PCLaned = false
	s.Divergences = 0
	s.Reconverges = 0
	reg := p.regions[pc]
	for _, r := range reg.inI {
		src := f.I[int(r)*f.W:]
		dst := s.I[int(r)*k:][:k]
		for i, l := range sel {
			dst[i] = src[l]
		}
	}
	for _, r := range reg.inF {
		src := f.F[int(r)*f.W:]
		dst := s.F[int(r)*k:][:k]
		for i, l := range sel {
			dst[i] = src[l]
		}
	}
	if reg.wi {
		for q := range f.WI {
			for d := range f.WI[q] {
				src := f.WI[q][d]
				dst := s.WI[q][d]
				for i, l := range sel {
					dst[i] = src[l]
				}
			}
		}
	}
}

// scatterSub merges a side back into f after it ran the region of the
// branch at pc: the varying registers the region writes return to
// their parent lanes, the side's counts become per-lane deltas on the
// parent, and (on a bail) each lane's stopping PC is recorded.
// Divergence statistics aggregate up. A nil s is the empty side of a
// one-sided branch: its lanes are already at the join with nothing to
// merge.
func (p *VecFunc) scatterSub(f, s *VecFrame, sel []int, withPC bool, pc int) {
	if s == nil {
		if withPC {
			f.ensurePCLaned()
			for _, l := range sel {
				f.LanePC[l] = p.joinPC[pc]
			}
		}
		return
	}
	k := len(sel)
	reg := p.regions[pc]
	for _, r := range reg.outI {
		src := s.I[int(r)*k:][:k]
		dst := f.I[int(r)*f.W:]
		for i, l := range sel {
			dst[l] = src[i]
		}
	}
	for _, r := range reg.outF {
		src := s.F[int(r)*k:][:k]
		dst := f.F[int(r)*f.W:]
		for i, l := range sel {
			dst[l] = src[i]
		}
	}
	f.ensureLaned()
	w := len(f.idx)
	for fi, d := range s.Cnt.fields() {
		dst := f.laneCnt[fi*w:]
		switch {
		case s.Laned:
			src := s.laneCnt[fi*w:]
			for i, l := range sel {
				dst[l] += d + src[i]
			}
		case d != 0:
			for _, l := range sel {
				dst[l] += d
			}
		}
	}
	if withPC {
		f.ensurePCLaned()
		for i, l := range sel {
			if s.PCLaned {
				f.LanePC[l] = s.LanePC[i]
			} else {
				f.LanePC[l] = s.PC
			}
		}
	}
	f.Divergences += s.Divergences
	f.Reconverges += s.Reconverges
}
