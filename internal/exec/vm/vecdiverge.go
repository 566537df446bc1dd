package vm

// Divergence handling: when the lanes of a vector group disagree at a
// varying forward branch, diverge() splits the group into its two
// sides, runs each side as a compacted sub-group through the same
// dispatch loop up to the branch's join point (the immediate
// post-dominator recorded by Vectorize), and re-forms the full group
// there. Irreducible divergence — no safe join, splits nested past the
// depth cap, or a would-fault lane inside a side — degrades to the
// full scalar bail exactly like the original tier.

// joined is the internal status a side frame returns when its PC
// reaches the join point (VecFrame.Stop). It never escapes Run: the
// dispatching frame consumes it and resumes full-width.
const joined Status = 3

// maxDivergeDepth caps split nesting: a side of a side of a side still
// re-forms, anything deeper bails. Keeps worst-case sub-frame memory
// bounded at a handful of lanes arrays per group.
const maxDivergeDepth = 3

// diverge handles a lane disagreement at the varying conditional jump
// at pc, whose per-lane outcome laneCond left in f.idx. On success the
// group has re-formed: counts are spilled, f.PC is the join point, and
// the caller reseeds its accumulators and continues dispatch (status
// joined). On irreducible divergence the
// frame is left in the canonical bail state — either parked
// pre-instruction with the branch uncounted (no join recorded: the
// scalar rerun re-executes the branch), or scattered per-lane with
// PCLaned set (the sides ran partway: each lane resumes from its own
// PC with the branch already counted) — and the caller returns
// Diverged. A budget failure aborts with the error; both sides halting
// (join at the kernel exit) completes the group (status Halted).
func (p *VecFunc) diverge(f *VecFrame, a0, a1 *uint64, pc int) (Status, error) {
	f.Divergences++
	j := -1
	if f.depth < maxDivergeDepth {
		j = p.joinPC[pc]
	}
	if j < 0 {
		// Full bail: park pre-instruction, branch uncounted, so the
		// scalar completion re-executes it exactly once per item.
		p.exitVec(f, *a0, *a1, pc)
		return Diverged, nil
	}

	in := &p.Code[pc]
	// The branch retires for every lane whichever way it goes: charge
	// its static counts once, like any convergent instruction.
	switch in.Op {
	case OpJZBr:
		*a1 += lBranch
	case OpJZLog, OpJNZLog:
		*a0 += lIntOp
	case OpJCmpI, OpJCmpIImm:
		*a0 += lIntOp
		*a1 += lBranch
	case OpJCmpF:
		*a0 += lFloatOp
		*a1 += lBranch
	}
	f.partition()
	p.exitVec(f, *a0, *a1, pc)
	*a0, *a1 = 0, uint64(p.room)<<roomShift
	// The taken lanes each spent one step on the jump.
	if err := f.spend(int64(len(f.sel1))); err != nil {
		return Halted, err
	}

	target, _ := condJumpTarget(in, pc)
	s0, st0, err := p.runSide(f, 0, f.sel0, pc+1, j, pc)
	if err != nil {
		return Halted, err
	}
	s1, st1, err := p.runSide(f, 1, f.sel1, target, j, pc)
	if err != nil {
		return Halted, err
	}

	if st0 == Diverged || st1 == Diverged {
		// A side stopped short of the join (would-fault lane or a
		// nested split past the depth cap). Bail with per-lane state:
		// the scalar completion walks items in canonical order from
		// each lane's own PC, reproducing the canonical first fault.
		p.scatterSub(f, s0, f.sel0, true, pc)
		p.scatterSub(f, s1, f.sel1, true, pc)
		f.PCLaned = true
		f.PC = pc
		return Diverged, nil
	}
	p.scatterSub(f, s0, f.sel0, false, pc)
	p.scatterSub(f, s1, f.sel1, false, pc)
	f.PC = j
	if j == len(p.Code) {
		// The join is the kernel exit: both sides ran to halt, so the
		// group is simply done, with per-lane counts.
		return Halted, nil
	}
	f.Reconverges++
	return joined, nil
}

// runSide runs the lanes sel of f as a compacted side frame from start
// to the join j of the branch at pc, lending it the group's fuel. A
// side that starts at the join — the taken side of `if (c) {...}` with
// no else — is empty: no frame, no fill, no dispatch (s is nil).
func (p *VecFunc) runSide(f *VecFrame, i int, sel []int, start, j, pc int) (s *VecFrame, st Status, err error) {
	if start == j {
		return nil, joined, nil
	}
	s = p.subFrame(f, i)
	p.fillSub(f, s, sel, start, j, pc)
	s.Fuel, f.Fuel = f.Fuel, 0
	st, err = p.Run(s)
	f.Fuel = s.Fuel
	return s, st, err
}

// laneCond evaluates the varying conditional jump at pc for every lane
// into the mask f.idx (1 = taken), reading uniform operands from the
// scalar slots, and reports lane 0's outcome and whether every lane
// agrees with it. On disagreement diverge partitions the same mask, so
// the condition is evaluated once however the branch goes.
func (p *VecFunc) laneCond(f *VecFrame, pc int) (taken, agree bool) {
	in := &p.Code[pc]
	su := p.srcU[pc]
	m := f.idx[:f.W]
	switch in.Op {
	case OpJZBr, OpJZLog:
		a := f.lanesI(in.A)[:len(m)]
		for l := range m {
			m[l] = b2i(a[l] == 0)
		}
	case OpJNZLog:
		a := f.lanesI(in.A)[:len(m)]
		for l := range m {
			m[l] = b2i(a[l] != 0)
		}
	case OpJCmpI:
		cmpMask(m, in.C, f.rdI(in.A, su&srcUB != 0, 0), f.rdI(in.B, su&srcUC != 0, 1))
	case OpJCmpIImm:
		cmpMask(m, in.B, f.lanesI(in.A), f.splatI(1, in.Imm))
	case OpJCmpF:
		cmpMask(m, in.C, f.rdF(in.A, su&srcUB != 0, 0), f.rdF(in.B, su&srcUC != 0, 1))
	}
	var n1 int64
	for _, t := range m {
		n1 += t
	}
	return m[0] != 0, n1 == 0 || n1 == int64(len(m))
}

// cmpMask sets m[l] to 1 where a[l] cc b[l] holds, with the condition
// code dispatched once per group instead of once per lane.
func cmpMask[T int64 | float64](m []int64, cc int32, a, b []T) {
	a, b = a[:len(m)], b[:len(m)]
	switch cc {
	case CcLt:
		for l := range m {
			m[l] = b2i(a[l] < b[l])
		}
	case CcLe:
		for l := range m {
			m[l] = b2i(a[l] <= b[l])
		}
	case CcGt:
		for l := range m {
			m[l] = b2i(a[l] > b[l])
		}
	case CcGe:
		for l := range m {
			m[l] = b2i(a[l] >= b[l])
		}
	case CcEq:
		for l := range m {
			m[l] = b2i(a[l] == b[l])
		}
	case CcNLt:
		for l := range m {
			m[l] = b2i(!(a[l] < b[l]))
		}
	case CcNLe:
		for l := range m {
			m[l] = b2i(!(a[l] <= b[l]))
		}
	case CcNGt:
		for l := range m {
			m[l] = b2i(!(a[l] > b[l]))
		}
	case CcNGe:
		for l := range m {
			m[l] = b2i(!(a[l] >= b[l]))
		}
	default:
		for l := range m {
			m[l] = b2i(a[l] != b[l])
		}
	}
}

// partition splits the lanes by laneCond's mask into f.sel0
// (fall-through) and f.sel1 (taken). Branch-free: each lane is written
// at both cursors and only its side's cursor advances (n0+n1 == l, so
// both stay below W).
func (f *VecFrame) partition() {
	m := f.idx[:f.W]
	sel0, sel1 := f.sel0[:len(m)], f.sel1[:len(m)]
	n0, n1 := 0, 0
	for l, t := range m {
		sel0[n0], sel1[n1] = l, l
		n1 += int(t)
		n0 += 1 - int(t)
	}
	f.sel0, f.sel1 = sel0[:n0], sel1[:n1]
}
