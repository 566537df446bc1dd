package exec

import (
	"fmt"
	"slices"

	"repro/internal/exec/vm"
	"repro/internal/inspire"
)

// Tier selects the kernel execution engine. The vector tier runs a whole
// work group per dispatch when the kernel's control flow is
// group-uniform and bails out to the scalar bytecode VM otherwise; both
// serve. The closure tree serves nothing: it is the reference the
// differential suites compare them against — all three produce
// byte-identical buffers, profiles and fault messages.
type Tier int

const (
	// TierAuto executes on the vector tier whenever the kernel is
	// vectorizable and on the scalar bytecode VM otherwise; Compile fails
	// if the kernel cannot be lowered. This is what Compile does, and the
	// only selection that serves: the other tiers exist so that tests and
	// the benchmark can name one.
	TierAuto Tier = iota
	// TierClosure compiles the closure-tree reference interpreter.
	TierClosure
	// TierVM requires the scalar bytecode VM; Compile fails if the
	// kernel cannot be lowered. The vector tier is deliberately not
	// attached, so benchmarks and tests isolate the scalar VM.
	TierVM
	// TierVec requires the SIMT vector tier; Compile fails if the
	// kernel cannot be lowered or is not vectorizable.
	TierVec
)

// String returns the tier's name, as POST /kernels reports it.
func (t Tier) String() string {
	switch t {
	case TierClosure:
		return "closure"
	case TierVM:
		return "vm"
	case TierVec:
		return "vec"
	default:
		return "auto"
	}
}

// CompileTier translates an IR function into an executable kernel on an
// explicit tier: the closure tree for TierClosure, otherwise the VM
// program with the vectorized view on top of it unless the tier is
// TierVM.
func CompileTier(fn *inspire.Function, tier Tier) (*Compiled, error) {
	if tier == TierClosure {
		return compileClosure(fn)
	}
	p, err := vm.Compile(fn)
	if err != nil {
		return nil, fmt.Errorf("exec: %s tier: %w", tier, err)
	}
	c := &Compiled{Fn: fn, vmProg: p}
	// Helpers are inlined, so the kernel's code holds every barrier.
	c.hasBarrier = slices.ContainsFunc(p.Code, func(in vm.Instr) bool { return in.Op == vm.OpBar })
	if tier == TierVM {
		return c, nil
	}
	vp, err := vm.Vectorize(p)
	if err != nil {
		if tier == TierVec {
			return nil, fmt.Errorf("exec: vec tier: %w", err)
		}
		c.vecErr = err
		return c, nil
	}
	c.vecProg = vp
	return c, nil
}

// Tier reports the tier this kernel executes on.
func (c *Compiled) Tier() Tier {
	if c.vecProg != nil {
		return TierVec
	}
	if c.vmProg != nil {
		return TierVM
	}
	return TierClosure
}

// VM returns the kernel's bytecode program, or nil on the closure tier.
func (c *Compiled) VM() *vm.Func { return c.vmProg }

// Vec returns the kernel's vectorized program, or nil when the kernel
// runs scalar.
func (c *Compiled) Vec() *vm.VecFunc { return c.vecProg }

// VecError returns why vectorization was skipped under TierAuto, if it
// was; nil when the vector program is attached or was never requested.
// Loop masks admit lane-varying trip counts and exits, so the refusals
// left are a varying branch inside a loop whose region holds a barrier
// or a store through a uniform index; every built-in vectorizes.
func (c *Compiled) VecError() error { return c.vecErr }
