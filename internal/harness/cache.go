package harness

import (
	"repro/internal/exec"
	"repro/internal/runtime"
	"repro/internal/sched"
)

// profileKey identifies one profiled execution: profiles depend only on
// the program's kernel, its input data (deterministic per size index) and
// the launch geometry — not on the platform the profile is later priced
// on.
type profileKey struct {
	Program string
	SizeIdx int
	ND      exec.NDRange
}

// ProfileCache memoizes profiled kernel executions keyed by (program,
// size, NDRange), so repeated sweeps — training-database generation, the
// step ablation, the dynamic-scheduler comparison, benchmark reruns —
// stop re-executing kernels they have already profiled. Concurrent
// requests for the same key share one execution (sched.Memo); it is safe
// for concurrent use by sweep workers and serving-path callers alike.
type ProfileCache struct {
	memo sched.Memo[profileKey, *exec.Profile]
}

// NewProfileCache returns an empty cache.
func NewProfileCache() *ProfileCache {
	return &ProfileCache{}
}

// sharedProfiles is the package-wide cache used when callers do not
// supply their own.
var sharedProfiles = NewProfileCache()

// Profile returns the dynamic profile for the launch, executing the kernel
// only on the first request for its key. Concurrent requests for the same
// key block until the single execution finishes.
func (c *ProfileCache) Profile(rt *runtime.Runtime, program string, sizeIdx int, l runtime.Launch) (*exec.Profile, error) {
	key := profileKey{Program: program, SizeIdx: sizeIdx, ND: l.ND}
	return c.memo.Do(key, func() (*exec.Profile, error) {
		return rt.Profile(l)
	})
}

// splitBudget divides a worker budget (0 = the scheduler's process-wide
// default) between an outer fan-out over n items and the inner work each
// item performs: outer concurrency is capped at n, and the remaining
// budget goes to each item's inner stages so total concurrency stays near
// the budget instead of multiplying or stranding cores.
func splitBudget(workers, n int) (outer, inner int) {
	budget := sched.Workers(workers)
	outer = budget
	if outer > n {
		outer = n
	}
	if outer < 1 {
		outer = 1
	}
	inner = budget / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}
