package vm

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Resource budgets for untrusted kernels.
//
// A Budget bounds one launch (or one request spanning several chunked
// launches) along three axes: executed steps, allocated buffer bytes,
// and wall-clock time. Enforcement is amortized so that trusted,
// unbudgeted launches pay almost nothing: each frame carries a local
// fuel counter decremented at loop back-edges (taken jumps in the VM,
// loop iterations and helper calls in the closure tier), and only the
// slow path — refilling an exhausted lease — touches the shared atomic
// step pool and checks the deadline and the context. Leases stay finite
// whenever a deadline or a context is attached, so even a kernel with an
// unlimited step budget re-checks the clock every few thousand
// iterations and can never outlive its deadline by more than one lease.
//
// The Budget lives in this package (the innermost execution layer) so
// both tiers can share it; package exec re-exports the types under their
// public names (exec.Budget, exec.BudgetError).

// Budget exhaustion kinds, reported in BudgetError.Kind.
const (
	BudgetSteps    = "steps"
	BudgetMemory   = "memory"
	BudgetDeadline = "deadline"
)

// BudgetError is the structured, deterministic abort of a budgeted
// launch: which budget ran out, how much was spent, and the limit.
// Spent and Limit are steps, bytes, or milliseconds depending on Kind.
type BudgetError struct {
	Kind  string `json:"kind"` // "steps", "memory" or "deadline"
	Spent int64  `json:"spent"`
	Limit int64  `json:"limit"`
}

func (e *BudgetError) Error() string {
	switch e.Kind {
	case BudgetMemory:
		return fmt.Sprintf("exec: memory budget exceeded: %d bytes charged, limit %d", e.Spent, e.Limit)
	case BudgetDeadline:
		if e.Limit > 0 {
			return fmt.Sprintf("exec: deadline exceeded after %dms (budget %dms)", e.Spent, e.Limit)
		}
		return fmt.Sprintf("exec: execution canceled after %dms", e.Spent)
	default:
		return fmt.Sprintf("exec: step budget exhausted: %d steps, limit %d", e.Spent, e.Limit)
	}
}

// stepLease is how many steps a frame takes from the shared pool at
// once. Large enough that the atomic slow path is amortized to noise,
// small enough that deadline checks stay responsive (a few thousand
// loop iterations between clock reads). A variable only so the fuel
// parity tests can lease step by step; nothing else writes it.
var stepLease int64 = 4096

// unboundedFuel is the lease handed to frames with nothing to enforce:
// effectively infinite, so the slow path runs once per frame lifetime.
const unboundedFuel = math.MaxInt64 / 2

// Budget is a shared, concurrency-safe resource budget for one launch.
// All methods are safe on a nil receiver (no limits enforced), so
// unbudgeted callers pass nil without branching.
type Budget struct {
	steps atomic.Int64 // remaining step pool (only used when stepLimit > 0)
	mem   atomic.Int64 // bytes charged so far

	stepLimit int64
	memLimit  int64

	start       time.Time
	deadline    time.Time
	hasDeadline bool
	done        <-chan struct{}
}

// NewBudget builds a budget enforcing up to maxSteps executed steps and
// maxMemBytes of buffer allocation (either 0 = unlimited), plus the
// context's deadline and cancellation. Returns nil — the no-op budget —
// when there is nothing to enforce.
func NewBudget(ctx context.Context, maxSteps, maxMemBytes int64) *Budget {
	deadline, hasDeadline := ctx.Deadline()
	done := ctx.Done()
	if maxSteps <= 0 && maxMemBytes <= 0 && !hasDeadline && done == nil {
		return nil
	}
	b := &Budget{
		stepLimit:   max(maxSteps, 0),
		memLimit:    max(maxMemBytes, 0),
		start:       time.Now(),
		deadline:    deadline,
		hasDeadline: hasDeadline,
		done:        done,
	}
	b.steps.Store(b.stepLimit)
	return b
}

// TakeLease withdraws a batch of steps from the shared pool for one
// frame's local fuel counter. It is the enforcement slow path: it checks
// cancellation and the deadline, then the step pool. The returned lease
// is finite whenever any time bound exists, so frames re-enter this path
// periodically even with unlimited steps.
func (b *Budget) TakeLease() (int64, error) {
	if b == nil {
		return unboundedFuel, nil
	}
	if err := b.Expired(); err != nil {
		return 0, err
	}
	if b.stepLimit <= 0 {
		if !b.hasDeadline && b.done == nil {
			return unboundedFuel, nil
		}
		return stepLease, nil
	}
	for {
		cur := b.steps.Load()
		if cur <= 0 {
			return 0, &BudgetError{Kind: BudgetSteps, Spent: b.stepLimit, Limit: b.stepLimit}
		}
		take := min(stepLease, cur)
		if b.steps.CompareAndSwap(cur, cur-take) {
			return take, nil
		}
	}
}

// ChargeMem records n bytes of buffer allocation against the memory
// budget, returning a BudgetError once the cumulative charge exceeds the
// limit. Charges are never refunded: the budget bounds how much a
// request may ever allocate, not its high-water mark.
func (b *Budget) ChargeMem(n int64) error {
	if b == nil || b.memLimit <= 0 || n <= 0 {
		return nil
	}
	if used := b.mem.Add(n); used > b.memLimit {
		return &BudgetError{Kind: BudgetMemory, Spent: used, Limit: b.memLimit}
	}
	return nil
}

// Expired reports (without blocking) whether the budget's context was
// canceled or its deadline passed. The group runner calls this between
// work groups, covering straight-line kernels that never touch fuel.
func (b *Budget) Expired() error {
	if b == nil {
		return nil
	}
	if b.done != nil {
		select {
		case <-b.done:
			return b.deadlineErr()
		default:
		}
	}
	if b.hasDeadline && time.Now().After(b.deadline) {
		return b.deadlineErr()
	}
	return nil
}

func (b *Budget) deadlineErr() *BudgetError {
	e := &BudgetError{Kind: BudgetDeadline, Spent: time.Since(b.start).Milliseconds()}
	if b.hasDeadline {
		e.Limit = b.deadline.Sub(b.start).Milliseconds()
	}
	return e
}

// refill pays the frame's fuel deficit from its budget, lease by lease,
// returning the budget's error when one is denied. The deficit is kept
// (+=, not =), so every step a launch takes is drawn from the pool
// exactly once, whatever the lease size and however many items a
// charge stands for. Called from spend when fuel runs out.
func (f *Frame) refill() error {
	for f.Fuel < 0 {
		lease, err := f.B.TakeLease()
		if err != nil {
			return err
		}
		f.Fuel += lease
	}
	return nil
}
