// Package repro's top-level benchmarks regenerate every figure and table
// of the evaluation (see DESIGN.md section 5 for the experiment index):
//
//	BenchmarkFigure1            — the paper's Figure 1 (per platform)
//	BenchmarkDefaultsAsymmetry  — T2: CPU-only vs GPU-only per platform
//	BenchmarkSizeSensitivity    — T3: oracle partitioning vs problem size
//	BenchmarkModelComparison    — T4: model families under LOPO CV
//	BenchmarkFeatureAblation    — T5: static vs runtime vs combined features
//	BenchmarkOracleGap          — T6: partitioning headroom vs best single device
//	BenchmarkStepAblation       — T7: partition grid step size
//
// Key result values are attached as custom benchmark metrics (geomean
// speedups, oracle efficiency), so `go test -bench .` both regenerates and
// summarizes the experiments. The full pretty-printed tables come from
// `go run ./cmd/bench all`.
//
// The shared training database is generated once per process at reduced
// problem sizes (S0-S3) to keep benchmark runs fast; cmd/train builds the
// full-size database.
package repro

import (
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/exec/vm"
	"repro/internal/harness"
	"repro/internal/inspire"
	"repro/internal/ml"
	"repro/internal/partition"
	"repro/internal/runtime"
)

var (
	dbOnce  sync.Once
	dbCache *harness.DB
	dbErr   error
)

func benchDB(b *testing.B) *harness.DB {
	b.Helper()
	dbOnce.Do(func() {
		dbCache, dbErr = harness.Generate(harness.GenOptions{MaxSizeIdx: 3})
	})
	if dbErr != nil {
		b.Fatal(dbErr)
	}
	return dbCache
}

// BenchmarkFigure1 regenerates Figure 1: leave-one-program-out prediction
// for all 23 programs, speedups vs the CPU-only and GPU-only defaults.
func BenchmarkFigure1(b *testing.B) {
	for _, plat := range []string{"mc1", "mc2"} {
		b.Run(plat, func(b *testing.B) {
			db := benchDB(b)
			var res *harness.Fig1Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = harness.Figure1(db, plat, harness.DefaultModel())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.GeoMeanVsCPU, "speedup-vs-cpu")
			b.ReportMetric(res.GeoMeanVsGPU, "speedup-vs-gpu")
			b.ReportMetric(res.MeanOracleEff, "oracle-eff")
		})
	}
}

// BenchmarkDefaultsAsymmetry regenerates T2.
func BenchmarkDefaultsAsymmetry(b *testing.B) {
	db := benchDB(b)
	var rows []harness.DefaultsRow
	for i := 0; i < b.N; i++ {
		rows = harness.DefaultsAsymmetry(db, []string{"mc1", "mc2"})
	}
	b.ReportMetric(float64(rows[0].CPUWins), "mc1-cpu-wins")
	b.ReportMetric(float64(rows[1].GPUWins), "mc2-gpu-wins")
}

// BenchmarkSizeSensitivity regenerates T3.
func BenchmarkSizeSensitivity(b *testing.B) {
	db := benchDB(b)
	progs := []string{"vecadd", "matmul", "blackscholes", "mandelbrot", "spmv", "nbody"}
	var changed float64
	for i := 0; i < b.N; i++ {
		changed = 0
		for _, plat := range []string{"mc1", "mc2"} {
			rows, err := harness.SizeSensitivity(db, plat, progs)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range rows {
				for j := 1; j < len(r.PerSize); j++ {
					if r.PerSize[j] != r.PerSize[0] {
						changed++
						break
					}
				}
			}
		}
	}
	b.ReportMetric(changed, "size-dependent-programs")
}

// BenchmarkModelComparison regenerates T4 with all five model families.
func BenchmarkModelComparison(b *testing.B) {
	db := benchDB(b)
	models := map[string]ml.NewModel{
		"knn5":   func() ml.Classifier { return ml.NewKNN(5) },
		"dtree":  func() ml.Classifier { return ml.NewTree() },
		"forest": func() ml.Classifier { return ml.NewForest(30, 42) },
		"logreg": func() ml.Classifier { return ml.NewLogReg(42) },
		"mlp":    func() ml.Classifier { return ml.NewMLP(32, 42) },
	}
	for i := 0; i < b.N; i++ {
		rows, err := harness.CompareModels(db, "mc2", models)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.OracleEff, r.Model+"-oracle-eff")
			}
		}
	}
}

// BenchmarkFeatureAblation regenerates T5.
func BenchmarkFeatureAblation(b *testing.B) {
	db := benchDB(b)
	for i := 0; i < b.N; i++ {
		rows, err := harness.FeatureAblation(db, "mc2", harness.FastModel())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.OracleEff, r.Features+"-eff")
			}
		}
	}
}

// BenchmarkOracleGap regenerates T6.
func BenchmarkOracleGap(b *testing.B) {
	db := benchDB(b)
	var rows []harness.OracleGapRow
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, plat := range []string{"mc1", "mc2"} {
			rows = append(rows, harness.OracleGap(db, plat))
		}
	}
	b.ReportMetric(rows[0].MeanOracleVsBestSingle, "mc1-headroom")
	b.ReportMetric(rows[1].MeanOracleVsBestSingle, "mc2-headroom")
}

// BenchmarkDynamicScheduler regenerates T8: the StarPU-style dynamic
// chunk scheduler against the static oracle.
func BenchmarkDynamicScheduler(b *testing.B) {
	var rows []harness.DynamicRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.DynamicComparison("mc2",
			[]string{"vecadd", "matmul", "blackscholes", "mandelbrot"}, 20)
		if err != nil {
			b.Fatal(err)
		}
	}
	dyn, def := harness.DynamicGeoMeans(rows)
	b.ReportMetric(dyn, "dynamic-vs-oracle")
	b.ReportMetric(def, "best-default-vs-oracle")
}

// BenchmarkStepAblation regenerates T7 (live re-pricing, not DB-based).
func BenchmarkStepAblation(b *testing.B) {
	var rows []harness.StepRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.StepAblation("mc2", []string{"vecadd", "matmul"}, []int{2, 4, 10, 20})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "rows")
}

// --- component micro-benchmarks ---

// BenchmarkCompileKernel measures the full front-end (parse, check, lower,
// verify, closure-compile, plan) on a representative kernel.
func BenchmarkCompileKernel(b *testing.B) {
	p, err := bench.Get("blackscholes")
	if err != nil {
		b.Fatal(err)
	}
	src, kn := p.Source, p.Kernel
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compileAll(src, kn); err != nil {
			b.Fatal(err)
		}
	}
}

func compileAll(src, kernel string) (*exec.Compiled, error) {
	u, err := inspire.LowerSource("bench", src)
	if err != nil {
		return nil, err
	}
	return exec.Compile(u.Kernel(kernel))
}

// BenchmarkKernelExecution measures interpreter throughput on vecadd.
func BenchmarkKernelExecution(b *testing.B) {
	p, err := bench.Get("vecadd")
	if err != nil {
		b.Fatal(err)
	}
	l, _, err := p.Build(2) // 128K items
	if err != nil {
		b.Fatal(err)
	}
	rt := runtime.New(device.MC2())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Profile(l); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(p.Sizes[2].N) * 12) // 2 loads + 1 store per item
}

// BenchmarkPartitionPricing measures pricing the full 66-candidate space
// from one profile (the training inner loop).
func BenchmarkPartitionPricing(b *testing.B) {
	p, err := bench.Get("matmul")
	if err != nil {
		b.Fatal(err)
	}
	l, _, err := p.Build(2)
	if err != nil {
		b.Fatal(err)
	}
	rt := runtime.New(device.MC1())
	prof, err := rt.Profile(l)
	if err != nil {
		b.Fatal(err)
	}
	space := partition.Space(3, partition.DefaultSteps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, part := range space {
			if _, _, err := rt.Price(l, prof, part); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- sequential vs parallel scheduling-core benchmarks ---
//
// Each pair runs the same hot path with Workers=1 (fully sequential: one
// worker at every level, including inside kernel execution) and Workers=0
// (the scheduler's full worker budget). Both produce identical results;
// the ratio of their ns/op is the end-to-end speedup the concurrent
// scheduling core delivers on this machine.

// BenchmarkOracleSearch measures the exhaustive oracle search over the
// partition space — the training phase's hot path. "fine" uses a 5%-step
// grid (231 candidates) to show how the gap widens with search-space size.
func BenchmarkOracleSearch(b *testing.B) {
	p, err := bench.Get("matmul")
	if err != nil {
		b.Fatal(err)
	}
	l, _, err := p.Build(2)
	if err != nil {
		b.Fatal(err)
	}
	rt := runtime.New(device.MC1())
	prof, err := rt.Profile(l)
	if err != nil {
		b.Fatal(err)
	}
	fineSpace := partition.Space(3, 20)
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			rt := runtime.New(device.MC1())
			rt.Workers = cfg.workers
			for i := 0; i < b.N; i++ {
				if _, _, err := rt.Best(l, prof); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(cfg.name+"-fine", func(b *testing.B) {
			rt := runtime.New(device.MC1())
			rt.Workers = cfg.workers
			for i := 0; i < b.N; i++ {
				if _, _, err := rt.BestIn(l, prof, fineSpace); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChunkedExecution measures a partitioned execution whose
// per-device chunks run in dedicated workers.
func BenchmarkChunkedExecution(b *testing.B) {
	p, err := bench.Get("nbody")
	if err != nil {
		b.Fatal(err)
	}
	part := partition.Partition{Shares: []int{4, 3, 3}}
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			rt := runtime.New(device.MC2())
			rt.Workers = cfg.workers
			for i := 0; i < b.N; i++ {
				l, _, err := p.Build(1)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rt.Execute(l, part); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainingSweep measures training-database generation — the full
// profile-and-price pipeline fanned out over (program, size) cells. A
// fresh profile cache per iteration keeps every kernel execution inside
// the measurement.
func BenchmarkTrainingSweep(b *testing.B) {
	progs := []string{"vecadd", "matmul", "blackscholes", "mandelbrot", "spmv", "nbody"}
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := harness.Generate(harness.GenOptions{
					Programs:   progs,
					MaxSizeIdx: 2,
					Workers:    cfg.workers,
					Cache:      harness.NewProfileCache(),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- pricing and barrier-execution micro-benchmarks ---

// BenchmarkPricePartition measures aggregating the three device chunks of
// one candidate partitioning from a profile — the innermost operation of
// oracle labeling — with the O(buckets) naive scan ("naive") and the O(1)
// prefix-indexed query ("prefix"). The ratio is the per-candidate pricing
// speedup of the prefix index.
func BenchmarkPricePartition(b *testing.B) {
	p, err := bench.Get("matmul")
	if err != nil {
		b.Fatal(err)
	}
	l, _, err := p.Build(2)
	if err != nil {
		b.Fatal(err)
	}
	rt := runtime.New(device.MC1())
	prof, err := rt.Profile(l)
	if err != nil {
		b.Fatal(err)
	}
	nd, err := l.ND.Normalized()
	if err != nil {
		b.Fatal(err)
	}
	part := partition.Partition{Shares: []int{4, 3, 3}}
	chunks := part.Chunks(prof.Global0, nd.Local[0])
	prof.Precompute()
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, ch := range chunks {
				_ = prof.RangeNaive(ch[0], ch[1])
			}
		}
	})
	b.Run("prefix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, ch := range chunks {
				_ = prof.Range(ch[0], ch[1])
			}
		}
	})
	// Full candidate pricing (chunk layout + transfers + device models)
	// through the production path, for the end-to-end per-candidate cost.
	b.Run("price", func(b *testing.B) {
		b.ReportAllocs()
		space := []partition.Partition{part}
		times := make([]float64, 1)
		for i := 0; i < b.N; i++ {
			if _, err := rt.PriceAll(l, prof, space, times); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBarrierKernel measures a barrier-synchronized kernel (dotprod:
// 64-item work groups, one barrier per reduction level) under each
// tier's barrier strategy: the closure tree's blocking item pool and the
// VM's single-goroutine suspend-resume rounds (dotprod's reduction loop
// branches on the local id, so it does not vectorize and the vec leg is
// skipped). Both produce byte-identical buffers and profiles; the
// closure/vm ratio is what serving on the VM saves over the reference.
func BenchmarkBarrierKernel(b *testing.B) {
	p, err := bench.Get("dotprod")
	if err != nil {
		b.Fatal(err)
	}
	inst, err := p.Instance(2) // 64K items = 1024 groups of 64
	if err != nil {
		b.Fatal(err)
	}
	for _, tier := range benchCompileTierSet(b, p.Source, p.Kernel).legs() {
		if tier.c == nil {
			continue
		}
		b.Run(tier.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tier.c.Run(inst.Args, inst.ND, exec.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelTraining measures fitting the default MLP on the database.
func BenchmarkModelTraining(b *testing.B) {
	db := benchDB(b)
	data := db.Dataset("mc2", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ml.TrainFull(data, harness.DefaultModel()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrediction measures one deployment-time prediction (scaling +
// MLP forward pass).
func BenchmarkPrediction(b *testing.B) {
	db := benchDB(b)
	data := db.Dataset("mc2", nil)
	pred, _, err := ml.TrainFull(data, harness.DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	x := data.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred(x)
	}
}

// benchTierSet holds one kernel compiled on every execution tier; vec
// is nil when the kernel is not vectorizable.
type benchTierSet struct {
	closure, vm, vec *exec.Compiled
}

func benchCompileTierSet(b *testing.B, source, kernel string) benchTierSet {
	b.Helper()
	compile := func(tier exec.Tier) *exec.Compiled {
		u, err := inspire.LowerSource("bench", source)
		if err != nil {
			b.Fatal(err)
		}
		inspire.Optimize(u)
		c, err := exec.CompileTier(u.Kernel(kernel), tier)
		if err != nil {
			if tier == exec.TierVec {
				return nil
			}
			b.Fatal(err)
		}
		return c
	}
	return benchTierSet{
		closure: compile(exec.TierClosure),
		vm:      compile(exec.TierVM),
		vec:     compile(exec.TierVec),
	}
}

func (ts benchTierSet) legs() []struct {
	name string
	c    *exec.Compiled
} {
	return []struct {
		name string
		c    *exec.Compiled
	}{{"closure", ts.closure}, {"vm", ts.vm}, {"vec", ts.vec}}
}

// benchMicroKernels stress the vector tier's divergence and
// scalarization paths with shapes the suite programs mix together.
// "divergent" splits every group at a per-item sign branch and then runs
// a long convergent tail loop: the vector tier runs the sides masked,
// re-forms at the join, and retires the tail W-wide instead of bailing
// to the scalar VM at the branch. "uniformloop" spends its time in a
// loop whose counter, bound, loads, and accumulator are all
// group-uniform: the vector tier retires the whole loop once per group
// on the scalar slots instead of once per lane.
var benchMicroKernels = []struct {
	name   string
	source string
	n      int
	fill   func(i int) float32
}{
	{
		name: "divergent",
		source: `kernel void k(global float* a, global float* out, int n) {
			int i = get_global_id(0);
			float x = a[i];
			float r;
			if (x > 0.0f) {
				r = sqrt(x);
			} else {
				r = fabs(x) * 0.75f;
			}
			float acc = r;
			for (int j = 0; j < 96; j = j + 1) {
				acc = acc + a[j] * 0.25f + r * 0.125f;
			}
			out[i] = acc;
		}`,
		n:    8192,
		fill: func(i int) float32 { return float32(1-2*(i%2)) * (0.5 + float32(i%5)*0.25) },
	},
	{
		name: "uniformloop",
		source: `kernel void k(global float* a, global float* out, int n) {
			int i = get_global_id(0);
			float acc = 0.0f;
			for (int j = 0; j < 256; j = j + 1) {
				acc = acc + a[j] * 0.5f;
			}
			out[i] = acc + (float)i;
		}`,
		n:    4096,
		fill: func(i int) float32 { return float32(i%97) * 0.01 },
	},
}

// BenchmarkKernelExec compares the execution tiers on one host worker:
// closure tree, scalar bytecode VM, and the SIMT vector tier. matvec,
// matmul, and nbody are the counted-loop kernels where fusion, lane
// batching, and uniform scalarization bite hardest; blackscholes
// diverges at its data-dependent cnd branch and re-converges;
// mandelbrot has per-item loop trip counts and is not vectorizable, so
// its vec sub-benchmarks are skipped. The divergent and uniformloop
// microkernels isolate the re-convergence and scalarization paths. All
// tiers produce byte-identical buffers and profiles (see
// vmdiff_test.go).
func BenchmarkKernelExec(b *testing.B) {
	run := func(name string, ts benchTierSet, args []exec.Arg, nd exec.NDRange) {
		for _, tier := range ts.legs() {
			if tier.c == nil {
				continue
			}
			b.Run(name+"/"+tier.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := tier.c.Run(args, nd, exec.RunOptions{Workers: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	for _, prog := range []string{"matvec", "matmul", "nbody", "blackscholes", "mandelbrot"} {
		p, err := bench.Get(prog)
		if err != nil {
			b.Fatal(err)
		}
		ts := benchCompileTierSet(b, p.Source, p.Kernel)
		inst, err := p.Instance(1)
		if err != nil {
			b.Fatal(err)
		}
		run(prog, ts, inst.Args, inst.ND)
	}
	for _, mk := range benchMicroKernels {
		ts := benchCompileTierSet(b, mk.source, "k")
		if ts.vec == nil {
			b.Fatalf("%s: expected vectorizable microkernel", mk.name)
		}
		a, out := exec.NewFloatBuffer(mk.n), exec.NewFloatBuffer(mk.n)
		for i := range a.F {
			a.F[i] = mk.fill(i)
		}
		args := []exec.Arg{exec.BufArg(a), exec.BufArg(out), exec.IntArg(mk.n)}
		run(mk.name, ts, args, exec.ND1(mk.n))
	}
}

// BenchmarkKernelExecFusion isolates the peephole super-instruction
// passes: the same kernel's bytecode with and without fusion, executed
// item-by-item on a bare VM frame (no host scheduling around it).
func BenchmarkKernelExecFusion(b *testing.B) {
	p, err := bench.Get("blackscholes")
	if err != nil {
		b.Fatal(err)
	}
	u, err := inspire.LowerSource(p.Name, p.Source)
	if err != nil {
		b.Fatal(err)
	}
	inspire.Optimize(u)
	k := u.Kernel(p.Kernel)
	for _, cfg := range []struct {
		name string
		opts vm.Options
	}{{"fused", vm.Options{}}, {"unfused", vm.Options{NoFuse: true}}} {
		prog, err := vm.CompileOpts(k, cfg.opts)
		if err != nil {
			b.Fatal(err)
		}
		inst, err := p.Instance(1)
		if err != nil {
			b.Fatal(err)
		}
		n := inst.ND.Global[0]
		f := prog.NewFrame()
		f.Globals = make([]vm.Buf, prog.NumGlobals)
		for ai, pr := range prog.Params {
			switch pr.Kind {
			case vm.ParamGlobal:
				buf := inst.Args[ai].Buf
				f.Globals[pr.Index] = vm.Buf{F: buf.F, I: buf.I}
			case vm.ParamInt:
				f.I[pr.Index] = inst.Args[ai].Int
			case vm.ParamFloat:
				f.F[pr.Index] = inst.Args[ai].Float
			}
		}
		f.WI[vm.WIGlobalSize] = [3]int64{int64(n), 1, 1}
		f.WI[vm.WILocalSize] = [3]int64{1, 1, 1}
		f.WI[vm.WINumGroups] = [3]int64{int64(n), 1, 1}
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for item := 0; item < n; item++ {
					f.WI[vm.WIGlobalID][0] = int64(item)
					f.WI[vm.WIGroupID][0] = int64(item)
					f.Reset()
					if _, err := prog.Run(f); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
