package harness

import (
	"context"
	"math"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/ml"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/sched"
)

// TwoStageModel builds the hierarchical predictor (gate: CPU-only /
// GPU-only / mixed, then a split classifier), wired to the canonical
// 3-device 10%-step partition space.
func TwoStageModel() ml.NewModel {
	space := partition.Space(3, partition.DefaultSteps)
	kindOf := func(class int) ml.StageKind {
		if class < 0 || class >= len(space) {
			return ml.StageMixed
		}
		idx, single := space[class].IsSingle()
		switch {
		case single && idx == device.CPUIndex:
			return ml.StageCPUOnly
		case single:
			return ml.StageGPUOnly
		default:
			return ml.StageMixed
		}
	}
	// Both platforms put the CPU at device 0 and their first GPU at 1.
	cpuClass, gpuClass := runtime.New(device.MC1()).ReferenceClasses(space)
	return func() ml.Classifier {
		return ml.NewTwoStage(kindOf, cpuClass, gpuClass,
			func() ml.Classifier { return ml.NewMLP(16, 42) },
			func() ml.Classifier { return ml.NewMLP(32, 43) })
	}
}

// DynamicRow is one cell of the T8 dynamic-vs-learned comparison.
type DynamicRow struct {
	Program  string
	Platform string
	// Times in simulated seconds.
	Dynamic float64 // StarPU-style greedy chunk scheduler (no training)
	Oracle  float64 // best static partitioning (exhaustive)
	CPUOnly float64
	GPUOnly float64
	// DynChunks is the scheduler's chunk count.
	DynChunks int
}

// DynamicComparison runs T8: the dynamic baseline against the static
// oracle for every requested program at its default size. Programs are
// processed by concurrent workers (profiles come from the shared cache)
// and rows are joined in input order, matching a sequential run.
func DynamicComparison(platformName string, programs []string, chunks int) ([]DynamicRow, error) {
	plat, err := device.ByName(platformName)
	if err != nil {
		return nil, err
	}
	// Divide the worker budget between the program-level fan-out and the
	// inner stages (profiling, oracle search): with few programs the
	// inner parallelism fills the idle budget; with many programs the
	// fan-out saturates it and inner stages run sequentially.
	rt := runtime.New(plat)
	outer, inner := splitBudget(0, len(programs))
	rt.Workers = inner
	return sched.Map(context.Background(), len(programs), outer,
		func(_ context.Context, i int) (DynamicRow, error) {
			name := programs[i]
			p, err := bench.Get(name)
			if err != nil {
				return DynamicRow{}, err
			}
			l, _, err := p.Build(p.DefaultSize)
			if err != nil {
				return DynamicRow{}, err
			}
			prof, err := sharedProfiles.Profile(rt, name, p.DefaultSize, l)
			if err != nil {
				return DynamicRow{}, err
			}
			dyn, err := rt.DynamicSchedule(l, prof, chunks)
			if err != nil {
				return DynamicRow{}, err
			}
			lb, err := rt.Label(l, prof, partition.SharedSpace(plat.NumDevices(), partition.DefaultSteps))
			if err != nil {
				return DynamicRow{}, err
			}
			return DynamicRow{
				Program:   name,
				Platform:  platformName,
				Dynamic:   dyn.Makespan,
				Oracle:    lb.Times[lb.Best],
				CPUOnly:   lb.Times[lb.CPUOnly],
				GPUOnly:   lb.Times[lb.GPUOnly],
				DynChunks: dyn.Chunks,
			}, nil
		})
}

// DynamicGeoMeans summarizes T8: geomean of dynamic/oracle and
// bestDefault/oracle.
func DynamicGeoMeans(rows []DynamicRow) (dynVsOracle, defaultVsOracle float64) {
	if len(rows) == 0 {
		return 0, 0
	}
	sd, sb := 0.0, 0.0
	for _, r := range rows {
		sd += math.Log(r.Dynamic / r.Oracle)
		best := math.Min(r.CPUOnly, r.GPUOnly)
		sb += math.Log(best / r.Oracle)
	}
	n := float64(len(rows))
	return math.Exp(sd / n), math.Exp(sb / n)
}
