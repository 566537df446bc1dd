package vm

import (
	"fmt"
	"math/bits"
	"slices"
)

// SIMT vector execution tier. Vectorize analyzes a compiled Func for
// register uniformity at the bytecode level and produces a VecFunc that
// executes W work items per instruction dispatch: varying registers
// become W-wide lane arrays, straight-line arms loop over lanes inside
// one switch arm, and branches take one comparison per group
// (statically uniform conditions) or one lane-agreement scan (varying
// conditions).
//
// Uniform scalarization: registers proven group-uniform live in a
// single scalar slot instead of W lanes — the register files of the
// frame's uniform half, a plain Frame — and every instruction whose
// destination is uniform executes exactly once per dispatch (scal[pc]),
// on the scalar VM's own interpreter: Run hands each straight-line span
// of them (scalEnd) to Func.run over the uniform half, so an opcode's
// scalar meaning, counter lane and fault check are written once for
// both tiers. Uniform conditional jumps stay in the vector tier's jump
// arm, decided by one test on the scalar slots. A varying instruction
// reads a uniform operand (srcU[pc] marks them) from its scalar slot:
// the ALU helpers (vecalu.go) keep it in a register inside the lane
// loop, and only some memory arms still broadcast one into scratch
// lanes.
// Loads with uniform indices are uniform too — the lanes run in
// instruction-level lockstep against the same memory state, so a load
// from the same address yields lane-equal values. The lane storage of
// a uniform register is never written by a dispatch arm and holds
// garbage: all readers — dispatch arms, divergence sub-frames, the
// bail-out scatter — must consult the uniformity classification.
//
// Divergence re-convergence: the tier is optimistic about statically
// varying forward branches, and the group runs full-width as long as
// every lane agrees at runtime (the common `if (gid < n)` guard
// converges for every aligned group). On disagreement at a linear
// branch — short straight-line sides, see linearize — both sides run in
// place under the lane mask and the group never splits (veclinear.go).
// At any other branch the group splits:
// each side of the branch runs as a compacted sub-group (width = its
// lane count) through the same dispatch loop up to the join point
// recorded at vectorize time (the branch's immediate post-dominator),
// then the group re-forms and resumes full-width. Only values live
// across the join need both sides' results blended, and only varying
// registers can be (per lane): a uniform register the region writes is
// admitted when it is dead at the join — `w - 1` inside a stencil's
// short-circuit guard, the loop counters under `if (gid < n)` — and
// each side then computes it in its own private copy of the scalar
// slots, which is never copied back (register liveness, see
// computeJoin; the same liveness narrows what a split copies in and
// out). A varying branch inside a loop body is expected to disagree:
// when its region is loop-free the group re-forms every iteration, and
// every register the region writes is classified varying (control
// dependence; see Vectorize). When its region holds a loop — a varying
// back-edge or exit, a `break` under a varying guard — the join is the
// loop's exit join and the loop runs under a mask: lanes that leave
// park there while the rest loop on in a frame narrowed in place, and
// the group re-forms when the last lane is out (see diverge). Only
// irreducible divergence — no safe join point (a barrier in the region,
// a uniform register written there and read after the join, a store
// through a uniform index with both sides present or in a loop),
// nested splits beyond the depth cap, or a would-fault lane inside a
// split — falls back to the full bail: Run returns Diverged and the
// caller completes each lane on the scalar VM from its per-lane PC,
// with its own side's value of every register the region wrote. Scalar
// completion walks items in canonical order, so it reproduces the
// canonical item-order fault message and per-item counts exactly.
//
// The contract: buffers, profiles and fault messages are byte-identical
// with the scalar VM and the closure tier for kernels in which distinct
// work items do not write one element between barriers, other than
// through a single static store with a uniform index. Lockstep retires
// a store for every lane before the next instruction, canonical order
// retires every instruction of an item before the next item, and the
// two agree exactly when no element has two writers: `out[0] = x;
// out[i] = x;` ends with item 0's x here and the last item's on the
// scalar tiers. One static uniform-index store is the exception that
// holds: its lanes retire in ascending item order, so the last writer
// is the canonical one — in convergent code, and in a one-sided region
// (only one side stores; see computeJoin), which adds no new kind of
// deviation.
//
// Counter and budget accounting: under convergent execution every lane
// retires the same instruction sequence, so the packed profile
// accumulators (counts.go) are charged once per dispatch — they hold
// per-item counts, which the caller replicates into each item's bucket
// — and scalarized instructions charge the same per-item constants
// (executing once per dispatch is exactly the per-item cost). Budget
// fuel is charged W per taken jump (W items each spent one step); a
// scalarized jump still charges W. After a split, or the in-place sides
// of a linear branch, the lanes carry per-lane count deltas
// (VecFrame.laneCnt) on top of the shared counts, so per-item totals
// stay exact; under a loop mask the looping frame is only as wide as
// the lanes still in the loop, so its counts and its W per taken jump
// are theirs, and a lane that leaves takes its counts back to the
// group. The spill-room cadence is identical to the
// scalar VM.

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

	// scalEnd[pc] is where the straight-line span of scalarized
	// instructions starting at pc ends: the first index at or after pc
	// whose instruction is not scal or is a jump. scalEnd[pc] > pc
	// exactly when the scalar interpreter takes over at pc.
	scalEnd []int32

	// srcU[pc] marks which register operands of a non-scalarized
	// instruction are uniform and must be read from the scalar slots
	// (broadcast on demand) instead of their garbage lane storage: one
	// bit per operand slot (srcUB, srcUC, srcUX, srcUX2; see srcRegs).
	srcU []uint8

	// joinPC[pc] is the re-convergence point of the varying
	// conditional jump at pc — its immediate post-dominator — or -1
	// when the divergent region is ineligible (contains a barrier,
	// writes a uniform register that is live at the join, or stores
	// through a uniform index other than one-sidedly; see computeJoin)
	// and disagreement must take the full scalar bail. A varying
	// branch inside a loop always has one: Vectorize refuses the
	// kernel otherwise.
	joinPC []int

	// regions[pc] (non-nil only where joinPC[pc] >= 0) lists the
	// registers a split at pc copies into and out of its side frames.
	regions []*splitRegion

	// lin[pc] is non-nil when the varying branch at pc is linear: on
	// disagreement its sides run in place under the lane mask instead of
	// splitting the group (see linear).
	lin []*linearRegion
}

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

// BailBranches reports how many varying branches have no join: lane
// disagreement there sends the whole group to scalar completion. A
// varying loop exit or back-edge always has one (its loop's exit join)
// or the kernel is refused, so only a branch outside any loop counts.
func (p *VecFunc) BailBranches() int {
	n := 0
	for pc := range p.Code {
		if _, ok := condJumpTarget(&p.Code[pc], pc); ok && !p.condUniform[pc] && p.joinPC[pc] < 0 {
			n++
		}
	}
	return n
}

// sidePrivate returns the uniform registers some divergent region
// writes, ascending: each side of a split there computes them in its
// own scalar slots.
func (p *VecFunc) sidePrivate() (privI, privF []int32) {
	for _, reg := range p.regions {
		if reg != nil {
			privI = append(privI, reg.privI...)
			privF = append(privF, reg.privF...)
		}
	}
	slices.Sort(privI)
	slices.Sort(privF)
	return slices.Compact(privI), slices.Compact(privF)
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
// execution. It fails only when a varying conditional jump inside a
// loop — a varying back-edge, a varying exit, or a varying branch in the
// body — guards a region that is ineligible for masked execution (a
// barrier, or a store through a uniform index; see computeJoin): the
// group could neither re-form after it within the iteration nor run its
// loop under a mask. Every other varying branch is admitted, checked
// for agreement at runtime, and annotated with its re-convergence point
// when the divergent region is safe to run masked; for a loop region
// that point is the loop's exit join, where the lanes a loop mask parked
// meet the last ones out. The flow graph and the register liveness that
// decision needs are built at most once, and only for kernels that have
// a varying conditional jump.
func Vectorize(p *Func) (*VecFunc, error) {
	for i := range p.Code {
		if _, ok := LookupOp(p.Code[i].Op); !ok {
			return nil, fmt.Errorf("exec: vec: illegal opcode %d at pc %d", p.Code[i].Op, i)
		}
	}
	varI := make([]bool, max(p.NumI, 1))
	varF := make([]bool, max(p.NumF, 1))
	// v accumulates whether any source srcRegs reports is varying.
	var v bool
	readI := func(r int32, _ uint8) { v = v || varI[r] }
	readF := func(r int32, _ uint8) { v = v || varF[r] }

	// Data dependence, flow-insensitive: a register is varying if any
	// write to it anywhere is varying — an instruction whose sources
	// (op.go's srcRegs) include a varying register, or that queries the
	// work-item's global or local id. This is sound because every
	// control path the vector loop actually follows is convergent
	// (uniform branches by induction, varying branches outside loops by
	// the runtime agreement check, their divergent regions because a
	// uniform register written there is private to each side and dead at
	// the join — see computeJoin — and varying branches inside loops by
	// the control-dependence pass below), so a "uniform" register always
	// holds lane-equal values, among the lanes running together,
	// whenever it is read. Loads are uniform when every index component
	// is uniform: the lanes read the same address against the same
	// memory state.
	propagate := func() {
		for changed := true; changed; {
			changed = false
			for i := range p.Code {
				in := &p.Code[i]
				isF, r, ok := destReg(in)
				if !ok {
					continue
				}
				v = false
				if srcRegs(in, readI, readF) && (in.B == WIGlobalID || in.B == WILocalID) {
					v = true
				}
				file := varI
				if isF {
					file = varF
				}
				if v && !file[r] {
					file[r], changed = true, true
				}
			}
		}
	}
	propagate()

	condU := make([]bool, len(p.Code))
	// uniformCond: every source of the jump is uniform. addjcmp.i's
	// bound is a source too, and a varying bound makes the counter
	// varying as well (it is the instruction's destination).
	uniformCond := func(in *Instr) bool {
		v = false
		srcRegs(in, readI, readF)
		return !v
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
	// writes is promoted to varying. When the region is not loop-free —
	// a varying loop exit or back-edge, a `break` under a varying guard,
	// a nested loop under one — lanes leave it at different iterations
	// (the loop mask, see diverge), so a register it writes that is live
	// at the exit join is promoted: each lane leaves with its own value.
	// One that dies before the join stays uniform, lane-equal among the
	// lanes still looping and private to the side that runs them. The
	// data fixpoint reruns until nothing moves. Branches outside loops
	// keep the optimistic agree-or-bail treatment: the `if (gid < n)`
	// guard around a whole kernel holds uniform loop counters that must
	// stay uniform. The post-dominator sets (and, for loop regions,
	// register liveness) are built once, and only when some in-loop
	// branch is varying.
	var g *flowGraph
	for promoted := true; promoted; {
		promoted = false
		for i := range p.Code {
			in := &p.Code[i]
			if _, ok := condJumpTarget(in, i); !ok || !inLoop[i] || uniformCond(in) {
				continue
			}
			if g == nil {
				g = newFlowGraph(p.Code, len(varI), len(varF))
			}
			region, loopFree := g.region(i)
			var liveJoin regSet
			if !loopFree {
				if region == nil {
					continue
				}
				g.solveLiveness()
				liveJoin = g.liveIn(g.ipdom(i))
			}
			for _, v := range region {
				if isF, r, ok := destReg(&p.Code[v]); ok {
					file, b := varI, int(r)
					if isF {
						file, b = varF, g.numI+int(r)
					}
					if liveJoin != nil && !liveJoin.has(b) {
						continue
					}
					if !file[r] {
						file[r], promoted = true, true
					}
				}
			}
		}
		if promoted {
			propagate()
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
		if g == nil {
			g = newFlowGraph(p.Code, len(varI), len(varF))
		}
		vf.computeJoin(g, i, inLoop[i])
		switch {
		case vf.joinPC[i] >= 0 || !inLoop[i]:
		case t <= i:
			return nil, fmt.Errorf("exec: vec: varying loop back-edge at pc %d (%s)", i, in.Op)
		default:
			return nil, fmt.Errorf("exec: vec: varying branch inside loop body at pc %d (%s)", i, in.Op)
		}
	}
	vf.computeScal()
	vf.lin = make([]*linearRegion, len(p.Code))
	for i := range p.Code {
		if _, ok := condJumpTarget(&p.Code[i], i); ok && !condU[i] {
			vf.lin[i] = vf.linearize(i)
		}
	}
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
// on the scalar slots), scalEnd (the spans of them the scalar
// interpreter runs) and srcU (uniform operands of vector instructions
// that must be broadcast from the scalar slots), from what op.go says an
// instruction reads and writes: a conditional jump is scalarized when
// its condition is uniform, an instruction with a destination when the
// destination is (every source then is too), a store when every source
// is; nop, halt, jmp and barrier never.
func (vf *VecFunc) computeScal() {
	p := vf.Func
	var u uint8
	var allU bool
	note := func(uni []bool) func(r int32, slot uint8) {
		return func(r int32, slot uint8) {
			if uni[r] {
				u |= slot
			} else {
				allU = false
			}
		}
	}
	noteI, noteF := note(vf.uniI), note(vf.uniF)
	for i := range p.Code {
		in := &p.Code[i]
		u, allU = 0, true
		srcRegs(in, noteI, noteF)
		var s bool
		if _, jump := condJumpTarget(in, i); jump {
			s = vf.condUniform[i]
		} else if isF, r, ok := destReg(in); ok {
			s = isF && vf.uniF[r] || !isF && vf.uniI[r]
		} else {
			s = allU && isStore(in.Op)
		}
		vf.scal[i] = s
		if !s {
			vf.srcU[i] = u
		}
	}
	vf.scalEnd = make([]int32, len(p.Code))
	end := len(p.Code)
	for i := end - 1; i >= 0; i-- {
		if _, jump := jumpTarget(&p.Code[i], i); jump || !vf.scal[i] {
			end = i
		}
		vf.scalEnd[i] = int32(end)
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

	// live holds the live-in register sets (solveLiveness): (n+1) regSet
	// rows of lw words over numI int and numF float registers. Nil until
	// the first varying branch needs a join or a loop region's
	// promotion. uni is the set of uniform registers, set by the first
	// computeJoin once the classification is final.
	live       []uint64
	uni        regSet
	lw         int
	numI, numF int

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
func newFlowGraph(code []Instr, numI, numF int) *flowGraph {
	n := len(code)
	words := (n + 1 + 63) / 64
	g := &flowGraph{
		code:  code,
		numI:  numI,
		numF:  numF,
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

// solveLiveness runs backward may-liveness over the graph: a register
// is live into v when some path from v reads it before writing it.
// live-in[v] = use[v] ∪ (∪ live-in[succ] ∖ def[v]); nothing is live
// into the exit. Word-parallel rows, solved at most once per kernel.
// Liveness does not depend on the classification, so the promotion
// fixpoint and computeJoin share one solution.
func (g *flowGraph) solveLiveness() {
	if g.live != nil {
		return
	}
	n, numI := len(g.code), g.numI
	g.lw = (numI + g.numF + 63) / 64
	lw := g.lw
	g.live = make([]uint64, (n+1)*lw)
	use := make([]uint64, n*lw)
	def := make([]uint64, n*lw)
	for v := 0; v < n; v++ {
		u := regSet(use[v*lw : (v+1)*lw])
		in := &g.code[v]
		srcRegs(in, func(r int32, _ uint8) { u.add(int(r)) }, func(r int32, _ uint8) { u.add(numI + int(r)) })
		if isF, r, ok := destReg(in); ok {
			if isF {
				r += int32(numI)
			}
			regSet(def[v*lw : (v+1)*lw]).add(int(r))
		}
	}
	for changed := true; changed; {
		changed = false
		for v := n - 1; v >= 0; v-- {
			s1, s2 := g.succs(v)
			r, r1 := g.liveIn(v), g.liveIn(s1)
			for w := range r {
				out := r1[w]
				if s2 >= 0 {
					out |= g.live[s2*lw+w]
				}
				if x := use[v*lw+w] | out&^def[v*lw+w]; x != r[w] {
					r[w] = x
					changed = true
				}
			}
		}
	}
}

// liveIn returns the live-in row of node v (the exit's is empty).
func (g *flowGraph) liveIn(v int) regSet { return g.live[v*g.lw : (v+1)*g.lw] }

// regSet is a bitset over both register files in liveness row layout:
// int register r at bit r, float register r at bit numI+r.
type regSet []uint64

func (s regSet) add(b int) { s[b/64] |= 1 << (b % 64) }

func (s regSet) has(b int) bool { return s[b/64]&(1<<(b%64)) != 0 }

func (s regSet) or(o regSet) {
	for w, x := range o {
		s[w] |= x
	}
}

// regLists returns the int and the float registers of set, ascending.
func (g *flowGraph) regLists(set regSet) (ri, rf []int32) {
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			if b := w*64 + bits.TrailingZeros64(word); b < g.numI {
				ri = append(ri, int32(b))
			} else {
				rf = append(rf, int32(b-g.numI))
			}
		}
	}
	return ri, rf
}

// splitRegion is what a divergence split at one varying branch copies.
// The fill compacts into a side frame the varying registers the region
// touches that are live into either side's entry (in) — and the
// work-item rows when the region queries them (wi); the scatter at the
// join returns the varying registers the region writes that are live
// there (out). A side that stops short of the join instead hands back
// everything the region writes: the varying registers (wr) and, lane
// by lane, its own value of the uniform registers the region writes
// (priv), which live in each side's private scalar slots because they
// are dead at the join. Registers outside these sets are skipped
// entirely, which is most of the cost of a divergence on
// register-heavy kernels.
//
// A region with a loop in it (one a lane can leave at different
// iterations: a varying back-edge or exit, a `break` under a varying
// guard) also names its exit side: the side of the branch whose lanes
// reach the join without passing the branch again (-1 for a loop-free
// region, or when both sides loop). A side frame that stops at this
// join and meets the branch retires those lanes to its parent and runs
// on narrowed to the rest (see diverge); stay lists the varying
// registers live into the other side's entry, the ones the narrowing
// compacts. loop marks a loop mask proper: the branch is itself inside
// the loop.
type splitRegion struct {
	inI, inF     []int32
	outI, outF   []int32
	wrI, wrF     []int32
	privI, privF []int32
	stayI, stayF []int32
	wi           bool
	loop         bool
	exit         int8
}

// computeJoin records, for the varying conditional jump at pc, the
// point where a split group can re-form: the branch's immediate
// post-dominator, provided the divergent region between the branch and
// the join is safe to run one side at a time:
//   - no barrier (the sides would deadlock each other);
//   - a uniform register the region writes is not live into the join:
//     a value that dies before the join needs no blend, so each side
//     computes it in its own private scalar slots (inside a loop,
//     Vectorize promoted the ones that are live there to varying);
//   - a store through a uniform index only in a one-sided region (the
//     taken target is the join) of a branch outside any loop: one side
//     stores, and its lanes retire in ascending order exactly as the
//     convergent store arm retires them, so the element ends up with
//     the canonical last writer's value. With both sides present, side
//     order would replace item order, and under a loop mask the lane
//     that iterates longest would.
//
// The region may hold a loop: its sides then run under a loop mask
// until every lane has reached the join (see diverge), and the region
// records which side leaves the loop.
func (vf *VecFunc) computeJoin(g *flowGraph, pc int, inLoop bool) {
	p := vf.Func
	nodes, loopFree := g.region(pc)
	j := g.ipdom(pc)
	if j < 0 {
		return
	}
	g.solveLiveness()
	if g.uni == nil {
		g.uni = make(regSet, g.lw)
		for r, u := range vf.uniI {
			if u {
				g.uni.add(r)
			}
		}
		for r, u := range vf.uniF {
			if u {
				g.uni.add(g.numI + r)
			}
		}
	}
	target, _ := condJumpTarget(&p.Code[pc], pc)
	touched, written := make(regSet, g.lw), make(regSet, g.lw)
	touchI := func(r int32, _ uint8) { touched.add(int(r)) }
	touchF := func(r int32, _ uint8) { touched.add(g.numI + int(r)) }
	reg := &splitRegion{exit: -1, loop: inLoop && !loopFree}
	for _, v := range nodes {
		in := &p.Code[v]
		if in.Op == OpBar {
			return
		}
		if isStore(in.Op) && vf.uniI[in.C] && (inLoop || target != j) {
			return
		}
		if isF, r, ok := destReg(in); ok {
			if isF {
				r += int32(g.numI)
			}
			written.add(int(r))
			touched.add(int(r))
		}
		if srcRegs(in, touchI, touchF) {
			reg.wi = true
		}
	}
	// A side that starts at the join is empty and reads nothing.
	liveJoin, liveEntry := g.liveIn(j), make(regSet, g.lw)
	for _, e := range [2]int{pc + 1, target} {
		if e != j {
			liveEntry.or(g.liveIn(e))
		}
	}
	in, wr, out, priv := make(regSet, g.lw), make(regSet, g.lw), make(regSet, g.lw), make(regSet, g.lw)
	for w := range touched {
		priv[w] = written[w] & g.uni[w]
		if priv[w]&liveJoin[w] != 0 {
			return
		}
		in[w] = touched[w] &^ g.uni[w] & liveEntry[w]
		wr[w] = written[w] &^ g.uni[w]
		out[w] = wr[w] & liveJoin[w]
	}
	reg.inI, reg.inF = g.regLists(in)
	reg.wrI, reg.wrF = g.regLists(wr)
	reg.outI, reg.outF = g.regLists(out)
	reg.privI, reg.privF = g.regLists(priv)
	if !loopFree && j < len(p.Code) {
		// The exit side: an empty one, else the first that reaches the
		// join without coming back to the branch.
		starts := [2]int{pc + 1, target}
		for side, e := range starts {
			if e == j || reg.exit < 0 && !g.reaches(e, pc, j) {
				reg.exit = int8(side)
			}
		}
		if reg.exit >= 0 {
			stay := make(regSet, g.lw)
			for w, x := range g.liveIn(starts[1-reg.exit]) {
				stay[w] = x &^ g.uni[w]
			}
			reg.stayI, reg.stayF = g.regLists(stay)
		}
	}
	if vf.regions == nil {
		vf.regions = make([]*splitRegion, len(p.Code))
	}
	vf.joinPC[pc] = j
	vf.regions[pc] = reg
}

// reaches reports whether node to is reachable from node from on a path
// that does not pass through avoid.
func (g *flowGraph) reaches(from, to, avoid int) bool {
	n := len(g.code)
	clear(g.seen)
	g.stack = g.stack[:0]
	push := func(v int) {
		if v >= 0 && v != avoid && !g.seen[v] {
			g.seen[v] = true
			if v < n {
				g.stack = append(g.stack, v)
			}
		}
	}
	push(from)
	for len(g.stack) > 0 {
		v := g.stack[len(g.stack)-1]
		if v == to {
			return true
		}
		g.stack = g.stack[:len(g.stack)-1]
		a, b := g.succs(v)
		push(a)
		push(b)
	}
	return false
}

// VecFrame is the per-group SIMT execution state. Its uniform half is
// a Frame — the scalar slots of the uniform registers, the shared
// buffer tables, the work-item queries every item of a group answers
// alike, the counts shared by every lane, the PC, the fuel and the
// budget — and the scalar interpreter runs the scalarized instructions
// on it as it would a work item's. Beside it: W-wide lane arrays for
// the varying registers of both files (lane-major: register r occupies
// [r*W, r*W+W)), the two per-lane work-item queries, and the per-lane
// count deltas a divergence split leaves.
type VecFrame struct {
	// The uniform half (NewVecFrame marks it a span frame). I and F
	// there are one value per uniform register, written by scalarized
	// instructions and by SetI/SetF argument binding; a side frame runs
	// on its own copy (fillSub). Cnt holds the counts shared by every
	// lane: under convergent execution one accumulation stands for each
	// item. Fuel is the group's step allowance, charged W per taken
	// jump.
	//
	// Behind a pointer because the size of VecFrame is load-bearing:
	// when this layout was sized, an unused 400-byte Frame added here
	// by value, nothing else changed, read +7% blackscholes, +10%
	// kmeans, +9% dotprod on TierVec and about +5% cpu_ms_per_op on
	// execute-large.
	*Frame

	W int

	// I and F are the lanes of the varying registers; they shadow the
	// uniform half's files, which are Frame.I and Frame.F. A uniform
	// register's lane storage is garbage, except on a frame that
	// stopped inside a split (PCLaned), where it carries each lane's
	// value of the uniform registers the split's region writes.
	I []int64   // ceilPow2(NumI) * W lanes
	F []float64 // ceilPow2(NumF) * W lanes

	// LaneWI holds the two work-item queries that differ lane by lane,
	// indexed by WIGlobalID and WILocalID, as per-lane ramps. The other
	// four are scalars in Frame.WI, splatted where a varying register
	// takes one.
	LaneWI [2][3][]int64

	// After a divergence split the sides' counts differ from lane to
	// lane, and the per-lane deltas on top of Cnt land in laneCnt (Laned
	// reports whether any exist), field-major so a side's delta is one
	// add per lane for each field it moved; an item's total is Cnt plus
	// its lane's delta (LaneCounts).
	Laned   bool
	laneCnt []int64 // NCountFields rows of len(idx) lanes

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
	// branches that split the group; Reconverges counts the splits that
	// re-formed at the join (the difference escalated to a scalar bail).
	// Linearized counts the disagreements at linear branches that ran
	// their sides in place instead (see linear).
	Divergences int64
	Reconverges int64
	Linearized  int64

	idx        []int64   // scratch lane indices for two-pass memory ops; laneCond's mask
	bcI        []int64   // broadcast scratch: 3 int operand slots
	bcF        []float64 // broadcast scratch: 3 float operand slots
	mi, mf     int32     // pow2 register-index masks
	depth      int32     // split nesting depth (0 = full group)
	nTaken     int32     // laneCond's count of taken lanes
	subs       [2]*VecFrame
	sel0, sel1 []int  // split lane partitions (parent lane numbers)
	moved      uint16 // bit fi set: some split or linear side moved row fi of laneCnt
}

// NewVecFrame allocates a W-lane frame for p. Buffer tables, scalar
// arguments, and work-item queries are bound by the caller.
func (p *VecFunc) NewVecFrame(w int) *VecFrame {
	ni, nf := ceilPow2(p.NumI), ceilPow2(p.NumF)
	f := &VecFrame{
		Frame: p.NewFrame(),
		W:     w,
		I:     make([]int64, ni*w),
		F:     make([]float64, nf*w),
		idx:   make([]int64, w),
		bcI:   make([]int64, 3*w),
		bcF:   make([]float64, 3*w),
		mi:    int32(ni - 1),
		mf:    int32(nf - 1),
		sel0:  make([]int, 0, w),
		sel1:  make([]int, 0, w),
		Stop:  -1,
	}
	f.span = true
	for q := range f.LaneWI {
		for d := range f.LaneWI[q] {
			f.LaneWI[q][d] = make([]int64, w)
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
// per operand read however large it grows. rdI and rdF cost more than
// that budget and inline only while Run stays under the compiler's
// big-function threshold; CI greps the compiler's -m output for all
// four.
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
		return f.splatI(s, f.Frame.I[r&f.mi])
	}
	return f.lanesI(r)
}

func (f *VecFrame) rdF(r int32, uniform bool, s int) []float64 {
	if uniform {
		return f.splatF(s, f.Frame.F[r&f.mf])
	}
	return f.lanesF(r)
}

// wiRow returns work-item query q in dimension d as a lane slice: the
// per-lane ramp of gid and lid, or the group's one answer to any other
// query broadcast into scratch slot s.
func (f *VecFrame) wiRow(q int32, d int64, s int) []int64 {
	if q <= WILocalID {
		return f.LaneWI[q][d][:f.W]
	}
	return f.splatI(s, f.WI[q][d])
}

// SetI binds a scalar into int register r: every lane and the scalar
// slot, so the value is visible whichever storage the classification
// selects (argument binding).
func (f *VecFrame) SetI(r int32, v int64) {
	a := f.lanesI(r)
	for l := range a {
		a[l] = v
	}
	f.Frame.I[r&f.mi] = v
}

// SetF binds a scalar into float register r.
func (f *VecFrame) SetF(r int32, v float64) {
	a := f.lanesF(r)
	for l := range a {
		a[l] = v
	}
	f.Frame.F[r&f.mf] = v
}

// Reset rewinds the frame to the kernel entry and clears its counts
// and divergence state. Register lanes keep their values, as the
// scalar slots do.
func (f *VecFrame) Reset() {
	f.Frame.Reset()
	f.Stop = -1
	f.Laned = false
	f.PCLaned = false
	f.Divergences = 0
	f.Reconverges = 0
	f.Linearized = 0
}

// NCountFields is how many Counts fields the dispatch arms accumulate
// (Items and MaxItemOps are derived by the caller per item).
const NCountFields = 9

// fields returns the accumulated fields in laneCnt row order.
func (c *Counts) fields() [NCountFields]int64 {
	return [NCountFields]int64{c.IntOps, c.FloatOps, c.TransOps, c.OtherBuiltins,
		c.GlobalLoads, c.GlobalStores, c.LocalOps, c.Branches, c.Barriers}
}

// addFields adds d, in laneCnt row order, to the accumulated fields.
func (c *Counts) addFields(d *[NCountFields]int64) {
	c.IntOps += d[0]
	c.FloatOps += d[1]
	c.TransOps += d[2]
	c.OtherBuiltins += d[3]
	c.GlobalLoads += d[4]
	c.GlobalStores += d[5]
	c.LocalOps += d[6]
	c.Branches += d[7]
	c.Barriers += d[8]
}

// LaneCounts returns lane li's accumulated per-item counts: the shared
// counts plus the lane's divergence delta, if any.
func (f *VecFrame) LaneCounts(li int) Counts {
	c := f.Cnt
	if f.Laned {
		w := len(f.idx)
		var d [NCountFields]int64
		for fi := range d {
			d[fi] = f.laneCnt[fi*w+li]
		}
		c.addFields(&d)
	}
	return c
}

// FoldLanes reduces the per-item counts of lanes [a, b) without
// composing a Counts per lane: sum is the total over those lanes of
// every accumulated field, and maxOps the largest per-lane weighted
// total Σ weight[fi]·field fi (weight in laneCnt row order).
// Field-major: the shared counts scale by the lane count, and of the
// per-lane deltas only the rows some split moved are visited.
func (f *VecFrame) FoldLanes(weight *[NCountFields]int64, a, b int) (sum Counts, maxOps int64) {
	w := len(f.idx)
	var tot [NCountFields]int64
	ops := f.idx[a:b] // scratch once the dispatch is over
	clear(ops)
	for fi, c := range f.Cnt.fields() {
		tot[fi] = c * int64(b-a)
		maxOps += c * weight[fi]
		if !f.Laned || f.moved&(1<<fi) == 0 {
			continue
		}
		wt := weight[fi]
		for l, d := range f.laneCnt[fi*w+a : fi*w+b] {
			tot[fi] += d
			ops[l] += wt * d
		}
	}
	sum.addFields(&tot)
	return sum, maxOps + slices.Max(ops)
}

// ensureLaned activates the per-lane count deltas, zeroed.
func (f *VecFrame) ensureLaned() {
	if f.Laned {
		return
	}
	if f.laneCnt == nil {
		f.laneCnt = make([]int64, NCountFields*len(f.idx))
	}
	clear(f.laneCnt)
	f.moved = 0
	f.Laned = true
}

// ensurePCLaned activates the per-lane PC array.
func (f *VecFrame) ensurePCLaned() {
	if f.LanePC == nil {
		f.LanePC = make([]int, len(f.idx))
	}
}

// ScatterLane copies lane li of the vector frame into a scalar Frame:
// registers (uniform registers come from the scalar slots — except,
// after a split that stopped short of its join, the ones the region
// writes, which scatterSub left in the lane's own storage), the lane's
// program point, and its accumulated counts. The exec layer uses it to
// hand a lane to the scalar VM on a divergence bail.
func (p *VecFunc) ScatterLane(f *VecFrame, li int, dst *Frame) {
	for r := 0; r < p.NumI; r++ {
		if p.uniI[r] {
			dst.I[r] = f.Frame.I[r]
		} else {
			dst.I[r] = f.I[r*f.W+li]
		}
	}
	for r := 0; r < p.NumF; r++ {
		if p.uniF[r] {
			dst.F[r] = f.Frame.F[r]
		} else {
			dst.F[r] = f.F[r*f.W+li]
		}
	}
	dst.PC = f.PC
	if f.PCLaned {
		dst.PC = f.LanePC[li]
		reg := p.regions[f.PC]
		for _, r := range reg.privI {
			dst.I[r] = f.I[int(r)*f.W+li]
		}
		for _, r := range reg.privF {
			dst.F[r] = f.F[int(r)*f.W+li]
		}
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
// pc: the varying registers the region needs (and, when it queries
// them, the work-item ramps) are compacted into lanes 0..len(sel)-1,
// the scalar slots are copied — each side owns its uniform half, so a
// uniform temporary the region writes stays private to the side and is
// never copied back (computeJoin admits only ones that are dead at the
// join) — and buffers and budget are shared.
func (p *VecFunc) fillSub(f, s *VecFrame, sel []int, start, stop, pc int) {
	k := len(sel)
	s.W = k
	s.Globals, s.Locals = f.Globals, f.Locals
	s.B = f.B
	copy(s.Frame.I, f.Frame.I)
	copy(s.Frame.F, f.Frame.F)
	s.depth = f.depth + 1
	s.Reset()
	s.Stop = stop
	s.PC = start
	reg := p.regions[pc]
	for _, r := range reg.inI {
		gather(s.I[int(r)*k:][:k], f.I[int(r)*f.W:], sel)
	}
	for _, r := range reg.inF {
		gather(s.F[int(r)*k:][:k], f.F[int(r)*f.W:], sel)
	}
	if reg.wi {
		s.WI = f.WI
		for q := range f.LaneWI {
			for d := range f.LaneWI[q] {
				gather(s.LaneWI[q][d][:k], f.LaneWI[q][d], sel)
			}
		}
	}
}

// gather compacts the lanes sel of src into dst; scatter is its inverse.
// With sel ascending, dst may be src itself or any slice that starts at
// or before it: each lane is read before any write reaches it.
func gather[T int | int64 | float64](dst, src []T, sel []int) {
	for i, l := range sel {
		dst[i] = src[l]
	}
}

func scatter[T int | int64 | float64](dst, src []T, sel []int) {
	for i, l := range sel {
		dst[l] = src[i]
	}
}

// scatterSub merges a side back into f after it ran the region of the
// branch at pc. At the join (bail false) the varying registers the
// region writes that are live there return to their parent lanes and
// the side's counts become per-lane deltas on the parent. When either
// side stopped short (bail true) every lane must be able to resume on
// its own: all the varying registers the region writes return, each
// lane's stopping PC is recorded, and the uniform registers the region
// writes — private to each side — land in the parent's otherwise
// unused lane storage for them, where ScatterLane (or the enclosing
// split's scatterSub) picks them up. Divergence statistics aggregate
// up. A nil s is the empty side of a one-sided branch: its lanes are
// already at the join with the parent's values and nothing to merge.
func (p *VecFunc) scatterSub(f, s *VecFrame, sel []int, bail bool, pc int) {
	reg := p.regions[pc]
	if bail {
		// The lanes of an empty side wait at the join with the group's
		// own values; a side's lanes stopped where the side did.
		src, lanePC := f, p.joinPC[pc]
		if s != nil {
			src, lanePC = s, s.PC
		}
		f.ensurePCLaned()
		splatSel(f.LanePC, lanePC, sel)
		for _, r := range reg.privI {
			splatSel(f.I[int(r)*f.W:], src.Frame.I[r], sel)
		}
		for _, r := range reg.privF {
			splatSel(f.F[int(r)*f.W:], src.Frame.F[r], sel)
		}
	}
	if s == nil {
		return
	}
	k := len(sel)
	outI, outF := reg.outI, reg.outF
	if bail {
		outI, outF = reg.wrI, reg.wrF
		if s.PCLaned {
			// The side itself split and stopped short: its lanes carry
			// their own PCs and their own values of the inner region's
			// private registers (a subset of this region's).
			inner := p.regions[s.PC]
			for _, r := range inner.privI {
				scatter(f.I[int(r)*f.W:], s.I[int(r)*k:][:k], sel)
			}
			for _, r := range inner.privF {
				scatter(f.F[int(r)*f.W:], s.F[int(r)*k:][:k], sel)
			}
			scatter(f.LanePC, s.LanePC[:k], sel)
		}
	}
	for _, r := range outI {
		scatter(f.I[int(r)*f.W:], s.I[int(r)*k:][:k], sel)
	}
	for _, r := range outF {
		scatter(f.F[int(r)*f.W:], s.F[int(r)*k:][:k], sel)
	}
	f.ensureLaned()
	w := len(f.idx)
	for fi, d := range s.Cnt.fields() {
		dst := f.laneCnt[fi*w:]
		switch {
		case s.Laned && s.moved&(1<<fi) != 0:
			src := s.laneCnt[fi*w:]
			for i, l := range sel {
				dst[l] += d + src[i]
			}
		case d != 0:
			for _, l := range sel {
				dst[l] += d
			}
		default:
			continue
		}
		f.moved |= 1 << fi
	}
	f.Divergences += s.Divergences
	f.Reconverges += s.Reconverges
	f.Linearized += s.Linearized
}

// retire is the other half of a loop mask (see mask): side s of f,
// whose lanes are f's lanes sel, returned narrowed at its branch s.PC
// after the branch at pc split it off. Its parked lanes (s.sel1) hand
// back to f what scatterSub would hand back at the join — the varying
// registers the region of pc writes that are live there, and their
// counts as per-lane deltas — and s narrows in place to the lanes still
// running (s.sel0) and moves on to the branch's staying side: the
// varying registers live there, the work-item ramps when the region
// queries them and the per-lane count rows are compacted, register by
// register in ascending order, so no lane is overwritten before it is
// read. It returns sel narrowed the same way.
func (p *VecFunc) retire(f, s *VecFrame, sel []int, pc int) []int {
	reg := p.regions[pc]
	k, w := s.W, len(f.idx)
	done, live := s.sel1, s.sel0
	for _, r := range reg.outI {
		scatterAt(f.I[int(r)*f.W:], s.I[int(r)*k:][:k], done, sel)
	}
	for _, r := range reg.outF {
		scatterAt(f.F[int(r)*f.W:], s.F[int(r)*k:][:k], done, sel)
	}
	f.ensureLaned()
	for fi, d := range s.Cnt.fields() {
		moved := s.Laned && s.moved&(1<<fi) != 0
		if d == 0 && !moved {
			continue
		}
		dst := f.laneCnt[fi*w:]
		for _, l := range done {
			v := d
			if moved {
				v += s.laneCnt[fi*w+l]
			}
			dst[sel[l]] += v
		}
		f.moved |= 1 << fi
	}

	br := p.regions[s.PC]
	n := len(live)
	for _, r := range br.stayI {
		gather(s.I[int(r)*n:][:n], s.I[int(r)*k:][:k], live)
	}
	for _, r := range br.stayF {
		gather(s.F[int(r)*n:][:n], s.F[int(r)*k:][:k], live)
	}
	if reg.wi {
		for q := range s.LaneWI {
			for d := range s.LaneWI[q] {
				gather(s.LaneWI[q][d], s.LaneWI[q][d], live)
			}
		}
	}
	if s.Laned {
		for fi := range NCountFields {
			if s.moved&(1<<fi) != 0 {
				gather(s.laneCnt[fi*w:], s.laneCnt[fi*w:], live)
			}
		}
	}
	gather(sel, sel, live)
	s.W = n
	target, _ := condJumpTarget(&p.Code[s.PC], s.PC)
	s.PC = [2]int{s.PC + 1, target}[1-br.exit]
	return sel[:n]
}

// scatterAt copies the lanes of src that lanes lists to their parent
// lanes in dst: lane l goes to sel[l].
func scatterAt[T int64 | float64](dst, src []T, lanes, sel []int) {
	for _, l := range lanes {
		dst[sel[l]] = src[l]
	}
}

// splatSel sets the lanes sel of dst to v.
func splatSel[T int | int64 | float64](dst []T, v T, sel []int) {
	for _, l := range sel {
		dst[l] = v
	}
}
