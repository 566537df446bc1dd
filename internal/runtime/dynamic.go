package runtime

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/sim"
)

// DynamicResult reports a dynamic-scheduling run.
type DynamicResult struct {
	// Makespan is the simulated completion time.
	Makespan float64
	// Shares is the fraction of dim-0 items each device ended up
	// executing (informational; chunks interleave, so this is not a
	// contiguous static partition).
	Shares []float64
	// Chunks is the number of scheduling units dispatched.
	Chunks int
}

// DynamicSchedule simulates the classic alternative to learned static
// partitioning: a StarPU-style greedy dynamic scheduler that splits the
// iteration space into fixed-size chunks and dispatches each chunk to the
// device that would finish it earliest (earliest-finish-time heuristic).
//
// Dynamic scheduling needs no training, but pays per-chunk costs a static
// split avoids: every chunk carries its own launch overhead and transfer
// latency, and small chunks run below device saturation. The comparison
// experiment (DESIGN.md T8) quantifies this trade-off against the paper's
// learned approach.
//
// chunks is the number of equal scheduling units (default 20, i.e. 5%
// granularity).
func (r *Runtime) DynamicSchedule(l Launch, prof *exec.Profile, chunks int) (*DynamicResult, error) {
	if chunks <= 0 {
		chunks = 20
	}
	align, err := l.align()
	if err != nil {
		return nil, err
	}
	nd, err := l.ND.Normalized()
	if err != nil {
		return nil, err
	}
	global0 := nd.Global[0]
	if chunks > global0/align {
		chunks = global0 / align
		if chunks == 0 {
			chunks = 1
		}
	}
	nDev := r.Platform.NumDevices()
	ready := make([]float64, nDev)
	items := make([]int64, nDev)
	var totalItems int64

	launches := l.iterations()
	argBytes := l.argBytes(nil)
	for c := 0; c < chunks; c++ {
		lo := global0 * c / chunks / align * align
		hi := global0 * (c + 1) / chunks / align * align
		if c == chunks-1 {
			hi = global0
		}
		if hi <= lo {
			continue
		}
		counts := prof.Range(lo, hi)
		in, out := l.Plan.TransferBytes(argBytes, global0, lo, hi)
		// Pick the device that finishes this chunk earliest. Each chunk
		// is its own kernel launch with its own transfers — the price of
		// deciding at run time.
		bestDev, bestFinish := -1, 0.0
		var bestCost float64
		for d := 0; d < nDev; d++ {
			w := sim.Work{
				Counts:      counts,
				Mix:         l.Plan.Mix,
				TransferIn:  in,
				TransferOut: out,
				Launches:    launches,
			}
			bd := sim.DeviceTime(r.Platform.Devices[d], w, 1)
			finish := ready[d] + bd.Total
			if bestDev < 0 || finish < bestFinish {
				bestDev, bestFinish, bestCost = d, finish, bd.Total
			}
		}
		ready[bestDev] += bestCost
		items[bestDev] += counts.Items
		totalItems += counts.Items
	}

	res := &DynamicResult{Chunks: chunks, Shares: make([]float64, nDev)}
	for d := 0; d < nDev; d++ {
		if ready[d] > res.Makespan {
			res.Makespan = ready[d]
		}
		if totalItems > 0 {
			res.Shares[d] = float64(items[d]) / float64(totalItems)
		}
	}
	if res.Makespan == 0 {
		return nil, fmt.Errorf("runtime: dynamic schedule dispatched no work")
	}
	return res, nil
}
