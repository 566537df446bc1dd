package vm

// Divergence handling. When the lanes of a vector group disagree at a
// varying branch, the branch takes one of four paths, fixed at
// Vectorize and shown by the disassembler:
//   - linear: short straight-line sides run in place under the lane
//     mask and the group never splits (linear, veclinear.go), unless
//     one of its lanes would fault there;
//   - split: diverge() splits the group into its two sides, runs each
//     side as a compacted sub-group through the same dispatch loop up to
//     the branch's join point (the immediate post-dominator recorded by
//     Vectorize), and re-forms the full group there;
//   - loop mask: a varying branch inside a loop whose region holds a
//     loop parks its leaving lanes (below);
//   - bail: a branch with no safe join completes the group on the
//     scalar VM.
//
// Each side of a split owns its uniform half, so the uniform
// temporaries a region writes (all dead at the join) never leak from
// one side into the other or back into the group.
//
// Loop masks (Karrenberg & Hack's whole-function vectorization): a
// region with a loop in it — a varying back-edge or exit, a `break`
// under a varying guard — splits like any other, and the side that
// runs the loop is a frame that stops at the loop's exit join. When
// that frame meets a branch that joins where it stops, its lanes on the
// exit side are leaving: they run to the join if they have code to run
// first, then park there (mask), and the frame returns narrowed. The
// caller hands the parked lanes' live registers and counts back to the
// group (retire) and runs the frame on, compacted in place to the lanes
// still looping, until the last of them reaches the join; the group
// re-forms there. Fuel and counters are charged for the live lanes
// only, exactly as the scalar VM charges the items still looping.
//
// Irreducible divergence — no safe join, splits nested past the depth
// cap, or a would-fault lane inside a side — degrades to the full
// scalar bail.

// joined is the internal status a side frame returns when its PC
// reaches the join point (VecFrame.Stop). It never escapes Run: the
// dispatching frame consumes it and resumes full-width.
const joined Status = 3

// narrowed is the internal status a side frame returns when a loop mask
// parked some of its lanes at its join: PC is the branch, sel1 lists the
// parked lanes, sel0 the lanes that run on from the branch's staying
// side. Its caller (runSide) retires the parked lanes, narrows the frame
// and runs it again.
const narrowed Status = 4

// maxDivergeDepth caps split nesting: a side of a side of a side still
// re-forms, anything deeper bails. Keeps worst-case sub-frame memory
// bounded at a handful of lanes arrays per group. A loop mask that
// parks lanes with no code left to run adds no depth.
const maxDivergeDepth = 3

// diverge handles a lane disagreement at the varying conditional jump
// at pc, whose per-lane outcome laneCond left in f.idx. On success the
// group has re-formed: counts are spilled, f.PC is the join point, and
// the caller reseeds its accumulators and continues dispatch (status
// joined). A frame that stops at the branch's join runs the loop mask
// instead (status narrowed, see mask). On irreducible divergence the
// frame is left in the canonical bail state — either parked
// pre-instruction with the branch uncounted (no join recorded: the
// scalar rerun re-executes the branch), or scattered per-lane with
// PCLaned set (the sides ran partway: each lane resumes from its own
// PC with the branch already counted) — and the caller returns
// Diverged. A budget failure aborts with the error; both sides halting
// (join at the kernel exit) completes the group (status Halted).
func (p *VecFunc) diverge(f *VecFrame, a0, a1 *uint64, pc int) (Status, error) {
	f.Divergences++
	in := &p.Code[pc]
	target, _ := condJumpTarget(in, pc)
	starts := [2]int{pc + 1, target}
	j, x := p.joinPC[pc], -1
	if j >= 0 && j == f.Stop {
		x = int(p.regions[pc].exit)
	}
	if j < 0 || f.depth >= maxDivergeDepth && (x < 0 || starts[x] != j) {
		// Full bail: park pre-instruction, branch uncounted, so the
		// scalar completion re-executes it exactly once per item.
		p.unstep(f, pc)
		p.exit(f.Frame, *a0, *a1, pc)
		return Diverged, nil
	}

	// The branch retires for every lane whichever way it goes: charge
	// its static counts once, like any convergent instruction.
	*a0 += laneK[in.Op][0]
	*a1 += laneK[in.Op][1]
	if x >= 0 {
		return p.mask(f, a0, a1, pc, starts, x)
	}
	// Only a side that runs needs its lane list: the empty side of a
	// one-sided branch is already at the join, and laneCond counted it.
	f.partition(pc+1 != j, target != j)
	p.exit(f.Frame, *a0, *a1, pc)
	*a0, *a1 = 0, uint64(p.room)<<roomShift
	// The taken lanes each spent one step on the jump.
	if err := f.spend(int64(f.nTaken)); err != nil {
		return Halted, err
	}

	s0, st0, err := p.runSide(f, 0, pc+1, j, pc)
	if err != nil {
		return Halted, err
	}
	s1, st1, err := p.runSide(f, 1, target, j, pc)
	if err != nil {
		return Halted, err
	}

	bail := st0 == Diverged || st1 == Diverged
	if bail {
		// A side stopped short of the join (would-fault lane or a
		// nested split past the depth cap). Bail with per-lane state:
		// the scalar completion walks items in canonical order from
		// each lane's own PC, reproducing the canonical first fault.
		// The lanes of an empty side resume at the join, and so do the
		// ones a loop mask already retired.
		f.partition(s0 == nil, s1 == nil)
		p.parkAtJoin(f, j)
	}
	p.scatterSub(f, s0, f.sel0, bail, pc)
	p.scatterSub(f, s1, f.sel1, bail, pc)
	if bail {
		f.PCLaned = true
		f.PC = pc
		return Diverged, nil
	}
	f.PC = j
	if j == len(p.Code) {
		// The join is the kernel exit: both sides ran to halt, so the
		// group is simply done, with per-lane counts.
		return Halted, nil
	}
	f.Reconverges++
	return joined, nil
}

// mask is the loop mask at the branch at pc, met by a side frame that
// stops at the branch's join: the lanes on exit side x, whose entry is
// starts[x], leave. When that side starts at the join (spmv's and bfs's
// back-edges, mandelbrot's exit test) they are there already; otherwise
// (`if (c) { ...; break; }`) they run to it as a sub-group and merge
// back first. f then parks them — sel1 lists them, sel0 the lanes that
// stay — and returns narrowed with PC at the branch. If the exit side
// stops short of the join instead, f bails per lane, the staying lanes
// at their entry.
func (p *VecFunc) mask(f *VecFrame, a0, a1 *uint64, pc int, starts [2]int, x int) (Status, error) {
	f.partition(true, true)
	p.exit(f.Frame, *a0, *a1, pc)
	*a0, *a1 = 0, uint64(p.room)<<roomShift
	if err := f.spend(int64(f.nTaken)); err != nil {
		return Halted, err
	}
	if j := f.Stop; starts[x] != j {
		s, st, err := p.runSide(f, x, starts[x], j, pc)
		if err != nil {
			return Halted, err
		}
		stay := f.side(1 - x)
		if st == Diverged {
			p.parkAtJoin(f, j)
			p.scatterSub(f, s, *f.side(x), true, pc)
			p.scatterSub(f, nil, *stay, true, pc)
			splatSel(f.LanePC, starts[1-x], *stay)
			f.PCLaned = true
			f.PC = pc
			return Diverged, nil
		}
		p.scatterSub(f, s, *f.side(x), false, pc)
		// The exit side's sub-group may have narrowed its lane list.
		f.partition(true, true)
	}
	if x == 0 {
		f.sel0, f.sel1 = f.sel1, f.sel0
	}
	f.PC = pc
	f.Reconverges++
	return narrowed, nil
}

// parkAtJoin starts a per-lane bail of a split that joins at j: every
// lane waits at the join — the lanes of an empty side and the ones a
// loop mask retired stay there — until scatterSub records the stopping
// PC of the lanes a side still held.
func (p *VecFunc) parkAtJoin(f *VecFrame, j int) {
	f.ensurePCLaned()
	for l := range f.LanePC[:f.W] {
		f.LanePC[l] = j
	}
}

// runSide runs side i of f (the lanes f.side(i)) as a compacted side
// frame from start to the join j of the branch at pc, lending it the
// group's fuel. A side that starts at the join — the taken side of `if
// (c) {...}` with no else — is empty: no frame, no fill, no dispatch (s
// is nil). While the side runs a loop mask, each narrowed return
// retires the parked lanes into f and runs the side on over the rest;
// the side's lane list then holds only the lanes still in it.
func (p *VecFunc) runSide(f *VecFrame, i, start, j, pc int) (s *VecFrame, st Status, err error) {
	if start == j {
		return nil, joined, nil
	}
	sel := f.side(i)
	s = p.subFrame(f, i)
	p.fillSub(f, s, *sel, start, j, pc)
	s.Fuel, f.Fuel = f.Fuel, 0
	for {
		st, err = p.Run(s)
		if st != narrowed || err != nil {
			break
		}
		*sel = p.retire(f, s, *sel, pc)
	}
	f.Fuel = s.Fuel
	return s, st, err
}

// unstep undoes the counter step laneCond took for a varying addjcmp.i
// that is about to park uncounted: the scalar rerun steps it again. Its
// counter is varying (the bound and step are sources of its
// destination), and integer steps undo exactly.
func (p *VecFunc) unstep(f *VecFrame, pc int) {
	in := &p.Code[pc]
	if in.Op != OpIncJCmpI || p.condUniform[pc] {
		return
	}
	a := f.lanesI(in.A)
	b := f.rdI(in.B, p.srcU[pc]&srcUB != 0, 0)[:len(a)]
	for l := range a {
		a[l] -= b[l]
	}
}

// laneCond decides the conditional jump at pc for the group. A uniform
// condition takes one test on the scalar slots (addjcmp.i steps its
// counter first, uniform or varying: call laneCond once per retired
// jump, and undo the step on a full bail, see unstep). A varying one is
// evaluated for every lane into the mask f.idx (1 = taken) and the
// count f.nTaken, comparing against a uniform operand or an immediate
// straight from its scalar value; laneCond reports lane 0's outcome and
// whether every lane agrees with it. On disagreement linear or diverge
// reads the same mask, so the condition is evaluated once however the
// branch goes.
func (p *VecFunc) laneCond(f *VecFrame, pc int) (taken, agree bool) {
	in := &p.Code[pc]
	ui, uf := f.Frame.I, f.Frame.F
	if p.condUniform[pc] {
		switch in.Op {
		case OpJZBr, OpJZLog:
			taken = ui[in.A&f.mi] == 0
		case OpJNZLog:
			taken = ui[in.A&f.mi] != 0
		case OpJCmpI:
			taken = ccHoldsI(in.C, ui[in.A&f.mi], ui[in.B&f.mi])
		case OpJCmpIImm:
			taken = ccHoldsI(in.B, ui[in.A&f.mi], in.Imm)
		case OpJCmpF:
			taken = ccHoldsF(in.C, uf[in.A&f.mf], uf[in.B&f.mf])
		case OpIncJCmpI:
			// A uniform condition: counter, step and bound live in the
			// scalar slots. Step the counter, then test it.
			v := ui[in.A&f.mi] + ui[in.B&f.mi]
			ui[in.A&f.mi] = v
			cc, _ := unpackCcTarget(in.Imm)
			taken = ccHoldsI(cc, v, ui[in.C&f.mi])
		}
		return taken, true
	}
	su := p.srcU[pc]
	m := f.idx[:f.W]
	var n1 int64
	switch in.Op {
	case OpJZBr, OpJZLog:
		n1 = cmpMask1(m, CcEq, f.lanesI(in.A), 0)
	case OpJNZLog:
		n1 = cmpMask1(m, CcNe, f.lanesI(in.A), 0)
	case OpJCmpI:
		switch {
		case su&srcUB != 0:
			n1 = cmpMask1(m, swapCc[in.C], f.lanesI(in.B), ui[in.A&f.mi])
		case su&srcUC != 0:
			n1 = cmpMask1(m, in.C, f.lanesI(in.A), ui[in.B&f.mi])
		default:
			n1 = cmpMask(m, in.C, f.lanesI(in.A), f.lanesI(in.B))
		}
	case OpJCmpIImm:
		n1 = cmpMask1(m, in.B, f.lanesI(in.A), in.Imm)
	case OpIncJCmpI:
		// A varying loop back-edge: the counter is varying (unstep
		// relies on it), the step and the bound may be uniform. Every
		// lane steps, whichever way it then goes.
		a := f.lanesI(in.A)
		b := f.rdI(in.B, su&srcUB != 0, 0)[:len(a)]
		for l := range a {
			a[l] += b[l]
		}
		cc, _ := unpackCcTarget(in.Imm)
		if su&srcUC != 0 {
			n1 = cmpMask1(m, cc, a, ui[in.C&f.mi])
		} else {
			n1 = cmpMask(m, cc, a, f.lanesI(in.C))
		}
	case OpJCmpF:
		switch {
		case su&srcUB != 0:
			n1 = cmpMask1(m, swapCc[in.C], f.lanesF(in.B), uf[in.A&f.mf])
		case su&srcUC != 0:
			n1 = cmpMask1(m, in.C, f.lanesF(in.A), uf[in.B&f.mf])
		default:
			n1 = cmpMask(m, in.C, f.lanesF(in.A), f.lanesF(in.B))
		}
	}
	f.nTaken = int32(n1)
	return m[0] != 0, n1 == 0 || n1 == int64(len(m))
}

// swapCc[cc] is the condition that holds for (b, a) exactly when cc
// holds for (a, b), so a uniform left operand can take cmpMask1's
// scalar slot.
var swapCc = [...]int32{CcLt: CcGt, CcLe: CcGe, CcGt: CcLt, CcGe: CcLe, CcEq: CcEq, CcNe: CcNe,
	CcNLt: CcNGt, CcNLe: CcNGe, CcNGt: CcNLt, CcNGe: CcNLe}

// cmpMask sets m[l] to 1 where a[l] cc b[l] holds, with the condition
// code dispatched once per group instead of once per lane, and returns
// how many lanes hold (laneCond's taken count, in the same pass).
func cmpMask[T int64 | float64](m []int64, cc int32, a, b []T) (n int64) {
	a, b = a[:len(m)], b[:len(m)]
	switch cc {
	case CcLt:
		for l := range m {
			t := b2i(a[l] < b[l])
			m[l] = t
			n += t
		}
	case CcLe:
		for l := range m {
			t := b2i(a[l] <= b[l])
			m[l] = t
			n += t
		}
	case CcGt:
		for l := range m {
			t := b2i(a[l] > b[l])
			m[l] = t
			n += t
		}
	case CcGe:
		for l := range m {
			t := b2i(a[l] >= b[l])
			m[l] = t
			n += t
		}
	case CcEq:
		for l := range m {
			t := b2i(a[l] == b[l])
			m[l] = t
			n += t
		}
	case CcNLt:
		for l := range m {
			t := b2i(!(a[l] < b[l]))
			m[l] = t
			n += t
		}
	case CcNLe:
		for l := range m {
			t := b2i(!(a[l] <= b[l]))
			m[l] = t
			n += t
		}
	case CcNGt:
		for l := range m {
			t := b2i(!(a[l] > b[l]))
			m[l] = t
			n += t
		}
	case CcNGe:
		for l := range m {
			t := b2i(!(a[l] >= b[l]))
			m[l] = t
			n += t
		}
	default:
		for l := range m {
			t := b2i(a[l] != b[l])
			m[l] = t
			n += t
		}
	}
	return n
}

// cmpMask1 is cmpMask against one scalar: m[l] = a[l] cc b.
func cmpMask1[T int64 | float64](m []int64, cc int32, a []T, b T) (n int64) {
	a = a[:len(m)]
	switch cc {
	case CcLt:
		for l := range m {
			t := b2i(a[l] < b)
			m[l] = t
			n += t
		}
	case CcLe:
		for l := range m {
			t := b2i(a[l] <= b)
			m[l] = t
			n += t
		}
	case CcGt:
		for l := range m {
			t := b2i(a[l] > b)
			m[l] = t
			n += t
		}
	case CcGe:
		for l := range m {
			t := b2i(a[l] >= b)
			m[l] = t
			n += t
		}
	case CcEq:
		for l := range m {
			t := b2i(a[l] == b)
			m[l] = t
			n += t
		}
	case CcNLt:
		for l := range m {
			t := b2i(!(a[l] < b))
			m[l] = t
			n += t
		}
	case CcNLe:
		for l := range m {
			t := b2i(!(a[l] <= b))
			m[l] = t
			n += t
		}
	case CcNGt:
		for l := range m {
			t := b2i(!(a[l] > b))
			m[l] = t
			n += t
		}
	case CcNGe:
		for l := range m {
			t := b2i(!(a[l] >= b))
			m[l] = t
			n += t
		}
	default:
		for l := range m {
			t := b2i(a[l] != b)
			m[l] = t
			n += t
		}
	}
	return n
}

// side returns the lane list of side i of a split: sel0 (fall-through
// lanes) or sel1 (taken lanes).
func (f *VecFrame) side(i int) *[]int {
	if i == 0 {
		return &f.sel0
	}
	return &f.sel1
}

// partition compacts laneCond's mask into the lane lists asked for:
// f.sel0 (fall-through lanes) and f.sel1 (taken lanes), ascending.
func (f *VecFrame) partition(want0, want1 bool) {
	m := f.idx[:f.W]
	if want0 {
		f.sel0 = compactLanes(f.sel0, m, 0)
	}
	if want1 {
		f.sel1 = compactLanes(f.sel1, m, 1)
	}
}

// compactLanes lists in sel the lanes whose mask value is v (0 or 1).
// Branch-free within a run of four lanes: each lane is written at the
// cursor, which advances only when the lane belongs; a run in which no
// lane belongs is skipped whole, since a linear branch's minority lanes
// are usually sparse.
func compactLanes(sel []int, m []int64, v int64) []int {
	sel = sel[:len(m)]
	n, l := 0, 0
	for ; l+4 <= len(m); l += 4 {
		q := m[l : l+4 : l+4]
		if (q[0]^v)&(q[1]^v)&(q[2]^v)&(q[3]^v) != 0 {
			continue
		}
		for i, t := range q {
			sel[n] = l + i
			n += int(1 - (t ^ v))
		}
	}
	for ; l < len(m); l++ {
		sel[n] = l
		n += int(1 - (m[l] ^ v))
	}
	return sel[:n]
}
