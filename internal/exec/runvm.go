package exec

import "repro/internal/exec/vm"

// VM execution path of the group runner. When the kernel carries a
// bytecode program, runGroup dispatches here; frames, buffer bindings
// and profile accounting mirror the closure path exactly, so buffers
// and profiles are byte-identical across tiers.

// initVM builds the per-runner VM frames and shared buffer-slot tables.
func (r *groupRunner) initVM(args []Arg) {
	p := r.c.vmProg
	// Buffer slot tables are shared by every frame of the runner. Local
	// slots alias the runner's per-group local buffers, so the per-group
	// clear in runGroup is visible to the VM.
	var globals, locals []vm.Buf
	if p.NumGlobals > 0 {
		globals = make([]vm.Buf, p.NumGlobals)
	}
	if p.NumLocal > 0 {
		locals = make([]vm.Buf, p.NumLocal)
	}
	for i := range p.Params {
		pr := &p.Params[i]
		switch pr.Kind {
		case vm.ParamGlobal:
			b := args[i].Buf
			globals[pr.Index] = vm.Buf{F: b.F, I: b.I}
		case vm.ParamLocal:
			lb := r.newLocal(i, args[i].LocalLen)
			locals[pr.Index] = vm.Buf{F: lb.F, I: lb.I}
		}
	}
	r.vmFrames = make([]*vm.Frame, r.itemsPer)
	for i := range r.vmFrames {
		f := p.NewFrame()
		f.B = r.budget
		f.Globals = globals
		f.Locals = locals
		f.WI[vm.WIGlobalSize] = r.gsz
		f.WI[vm.WILocalSize] = r.lsz
		f.WI[vm.WINumGroups] = r.ngr
		// Bind scalar args once; they are identical for every item.
		for ai := range p.Params {
			pr := &p.Params[ai]
			switch pr.Kind {
			case vm.ParamInt:
				f.I[pr.Index] = args[ai].Int
			case vm.ParamFloat:
				f.F[pr.Index] = args[ai].Float
			}
		}
		r.vmFrames[i] = f
	}
	r.vmDone = make([]bool, r.itemsPer)
}

func (r *groupRunner) setupItemVM(f *vm.Frame, g0, g1, g2, l0, l1, l2 int) {
	f.WI[vm.WIGroupID] = [3]int64{int64(g0), int64(g1), int64(g2)}
	f.WI[vm.WILocalID] = [3]int64{int64(l0), int64(l1), int64(l2)}
	f.WI[vm.WIGlobalID] = [3]int64{
		int64(g0)*r.lsz[0] + int64(l0),
		int64(g1)*r.lsz[1] + int64(l1),
		int64(g2)*r.lsz[2] + int64(l2),
	}
	f.Reset()
}

// finishItemVM folds the item's counts into its dim-0 profile bucket,
// mirroring finishItem on the closure path.
func (r *groupRunner) finishItemVM(f *vm.Frame) {
	b := r.bucketByL0[f.WI[vm.WILocalID][0]]
	c := Counts(f.Cnt)
	c.Items = 1
	c.MaxItemOps = c.totalOps()
	r.buckets[b].Add(&c)
}

// runGroupVM executes one work group on the bytecode VM, entirely on the
// calling goroutine.
func (r *groupRunner) runGroupVM(g0, g1, g2 int) {
	li := 0
	for l2 := 0; l2 < int(r.lsz[2]); l2++ {
		for l1 := 0; l1 < int(r.lsz[1]); l1++ {
			for l0 := 0; l0 < int(r.lsz[0]); l0++ {
				r.setupItemVM(r.vmFrames[li], g0, g1, g2, l0, l1, l2)
				li++
			}
		}
	}
	r.vmRunRounds()
}

// vmRunRounds completes the group's scalar frames via suspend-resume:
// each frame runs until its next barrier (Suspended) or the end of the
// kernel (Halted); when every live frame has arrived, the round
// advances. A kernel without barriers finishes in one round, item by
// item. Frames carry their own resume PC, so items may reach barriers
// from different control paths and no uniformity proof is needed.
func (r *groupRunner) vmRunRounds() {
	clear(r.vmDone)
	remaining := r.itemsPer
	for remaining > 0 {
		for i, f := range r.vmFrames {
			if r.vmDone[i] {
				continue
			}
			st, err := r.c.vmProg.Run(f)
			if err != nil {
				panic(execError{err})
			}
			if st == vm.Halted {
				r.vmDone[i] = true
				remaining--
			}
		}
	}
	for _, f := range r.vmFrames {
		r.finishItemVM(f)
	}
}
