package harness

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/sched"
)

// benchDefault returns the canonical default size index of a program.
func benchDefault(program string) int {
	p, err := bench.Get(program)
	if err != nil {
		return 0
	}
	return p.DefaultSize
}

// StepRow is one cell of the partition-step ablation (T7): the oracle
// makespan achievable when the partition grid uses the given step count.
type StepRow struct {
	Program    string
	Platform   string
	Steps      int     // share units (10 = the paper's 10% step)
	SpaceSize  int     // number of candidate partitionings
	OracleTime float64 // best achievable makespan on that grid
}

// StepAblation reproduces T7: how much oracle quality depends on the
// discretization step. Finer grids can only improve the oracle; the
// experiment quantifies by how much, justifying the paper's 10% choice.
// Sizes are evaluated at each program's default size. Programs are
// processed by concurrent workers (profiles come from the shared cache,
// the oracle search itself is parallel) and rows are joined in input
// order, so the output matches a sequential run.
func StepAblation(platformName string, programs []string, stepsList []int) ([]StepRow, error) {
	plat, err := device.ByName(platformName)
	if err != nil {
		return nil, err
	}
	for _, steps := range stepsList {
		if steps <= 0 {
			return nil, fmt.Errorf("harness: invalid step count %d", steps)
		}
	}
	// Divide the worker budget between the program-level fan-out and the
	// inner stages (profiling, oracle search): with few programs the
	// inner parallelism fills the idle budget; with many programs the
	// fan-out saturates it and inner stages run sequentially.
	rt := runtime.New(plat)
	outer, inner := splitBudget(0, len(programs))
	rt.Workers = inner
	perProgram, err := sched.Map(context.Background(), len(programs), outer,
		func(_ context.Context, i int) ([]StepRow, error) {
			name := programs[i]
			p, err := bench.Get(name)
			if err != nil {
				return nil, err
			}
			l, _, err := p.Build(p.DefaultSize)
			if err != nil {
				return nil, err
			}
			prof, err := sharedProfiles.Profile(rt, name, p.DefaultSize, l)
			if err != nil {
				return nil, err
			}
			var out []StepRow
			for _, steps := range stepsList {
				// Every program prices the same grids; share the memoized
				// enumerations instead of re-generating them per cell.
				space := partition.SharedSpace(plat.NumDevices(), steps)
				lb, err := rt.Label(l, prof, space)
				if err != nil {
					return nil, err
				}
				out = append(out, StepRow{
					Program:    name,
					Platform:   platformName,
					Steps:      steps,
					SpaceSize:  len(space),
					OracleTime: lb.Times[lb.Best],
				})
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	var out []StepRow
	for _, rows := range perProgram {
		out = append(out, rows...)
	}
	return out, nil
}
