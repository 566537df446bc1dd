package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/backend"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/features"
	"repro/internal/harness"
	"repro/internal/inspire"
	"repro/internal/ml"
	"repro/internal/partition"
	rt "repro/internal/runtime"
)

// wantRecords is the size of the full training database: 23 programs x 6
// sizes x 2 platforms.
const wantRecords = 276

// cellsPerRep is offline-train's operations per repetition: one per
// (program, size) cell.
const cellsPerRep = wantRecords / 2

// trainSetupRepetitions is how often offline-train compiles the suite for
// setup_s: one compilation takes milliseconds, so the median needs many.
const trainSetupRepetitions = 31

// trainRep is one repetition of the training phase: profile sweep and
// pricing into a fresh database (fresh profile cache, so every kernel
// really runs), one MLP fit per platform, artifacts saved.
type trainRep struct {
	db                           *harness.DB
	generateS, fitS, wallS, cpuS float64
}

func runTrainRep(modelDir string) (trainRep, error) {
	var r trainRep
	cpu0, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return r, err
	}
	start := time.Now()
	if r.db, err = harness.Generate(harness.GenOptions{Cache: harness.NewProfileCache()}); err != nil {
		return r, err
	}
	r.generateS = time.Since(start).Seconds()
	if len(r.db.Records) != wantRecords {
		return r, fmt.Errorf("harness.db_records = %d, want %d", len(r.db.Records), wantRecords)
	}
	for _, plat := range device.Platforms() {
		fw, err := core.New(plat)
		if err != nil {
			return r, err
		}
		t := time.Now()
		if err := fw.Train(r.db, harness.DefaultModel()); err != nil {
			return r, err
		}
		r.fitS += time.Since(t).Seconds()
		if err := ml.SaveArtifact(engine.ArtifactPath(modelDir, plat.Name, ""), fw.Artifact()); err != nil {
			return r, err
		}
	}
	r.wallS = time.Since(start).Seconds()
	cpu1, err := procCPUSeconds(os.Getpid())
	if err != nil {
		return r, err
	}
	r.cpuS = cpu1 - cpu0
	return r, nil
}

// compileSuite runs the whole front end (parse, lower, optimise, compile,
// plan) over the 23 sources: what a fresh process pays before it can
// profile anything, and offline-train's set-up.
func compileSuite() error {
	for _, bp := range bench.All() {
		if _, err := core.CompileSource(bp.Name, bp.Source, bp.Kernel); err != nil {
			return err
		}
	}
	return nil
}

// trainWindow is what offline-train's set-up and timed repetitions
// measured.
type trainWindow struct {
	setupS []float64
	reps   []trainRep
}

func measureTrain(ctx context.Context, d dirs, seconds float64, setupReps int) (*trainWindow, error) {
	w := &trainWindow{}
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := compileSuite(); err != nil {
			return nil, err
		}
		w.setupS = append(w.setupS, time.Since(start).Seconds())
	}
	// The suite's own lazily compiled copies, so that the first timed
	// repetition does the same work as the rest.
	for _, bp := range bench.All() {
		if _, err := bp.Static(); err != nil {
			return nil, err
		}
	}
	tmp, err := os.MkdirTemp(d.build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	begin := time.Now()
	for len(w.reps) < 2 || time.Since(begin).Seconds() < seconds {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rep, err := runTrainRep(tmp)
		if err != nil {
			return nil, err
		}
		w.reps = append(w.reps, rep)
	}
	return w, nil
}

func (w *trainWindow) stat(f func(trainRep) float64) []float64 {
	v := make([]float64, len(w.reps))
	for i, r := range w.reps {
		v[i] = f(r)
	}
	return v
}

// runTrain is offline-train's --trace 0 run. An operation is one
// (program, size) cell swept, priced on both platforms and fitted; the
// latency a user waits for is one whole repetition.
func runTrain(ctx context.Context, env *runEnv, seconds float64) (*result, error) {
	w, err := measureTrain(ctx, env.dirs, seconds, trainSetupRepetitions)
	if err != nil {
		return nil, err
	}
	values := map[string]float64{
		"setup_s":       median(w.setupS),
		"cpu_ms_per_op": median(w.stat(func(r trainRep) float64 { return r.cpuS })) * 1000 / cellsPerRep,
	}
	// The paper's Figure 1 protocol on the database the last repetition
	// produced: leave one program out, predict it at its default size.
	db := w.reps[len(w.reps)-1].db
	for _, p := range platforms {
		fig, err := harness.Figure1(db, p, harness.DefaultModel())
		if err != nil {
			return nil, err
		}
		values["oracle_eff_"+p] = fig.MeanOracleEff
	}
	if values["peak_rss_mb"], err = peakRSSMB(os.Getpid()); err != nil {
		return nil, err
	}
	logf("%s: %d set-ups, %d repetitions of %d cells", wlTrain, len(w.setupS), len(w.reps), cellsPerRep)
	return &result{Correct: true, Attempted: len(w.reps) * cellsPerRep, Metrics: fill(endToEnd, values)}, nil
}

// traceTrain is offline-train's --trace 1 run: the timed repetitions for
// the whole-phase numbers, then one extra repetition taken apart into its
// layers, each public call under its own span.
func traceTrain(ctx context.Context, env *runEnv, seed int64, seconds float64) (*result, error) {
	w, err := measureTrain(ctx, env.dirs, seconds, 1)
	if err != nil {
		return nil, err
	}
	walls := w.stat(func(r trainRep) float64 { return r.wallS })
	p95, _ := tailPercentile(walls, 0.95)
	values := map[string]float64{
		"client.ops_per_s":   cellsPerRep / median(walls),
		"client.p50_ms":      median(walls) * 1000,
		"client.p95_ms":      p95 * 1000,
		"harness.train_s":    median(walls),
		"harness.generate_s": median(w.stat(func(r trainRep) float64 { return r.generateS })),
		"ml.fit_s":           median(w.stat(func(r trainRep) float64 { return r.fitS })),
		"harness.db_records": float64(len(w.reps[0].db.Records)),
	}
	db := w.reps[len(w.reps)-1].db

	tr := newTracer()
	root := tr.begin(wlTrain, -1, 0)

	// Front end, one program at a time.
	codeInstrs, vecPrograms := 0, 0
	for _, bp := range bench.All() {
		id := tr.begin("inspire.lower", root, 0)
		unit, err := inspire.LowerSource(bp.Name, bp.Source)
		if err != nil {
			return nil, err
		}
		inspire.Optimize(unit)
		tr.end(id)
		fn := unit.Kernel(bp.Kernel)
		if fn == nil {
			return nil, fmt.Errorf("%s: kernel %q not found", bp.Name, bp.Kernel)
		}
		id = tr.begin("exec.compile", root, 0)
		comp, err := exec.Compile(fn)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("backend.analyze", root, 0)
		_, err = backend.Analyze(fn)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if vmp := comp.VM(); vmp != nil {
			codeInstrs += len(vmp.Code)
		}
		if comp.Vec() != nil {
			vecPrograms++
		}
	}
	values["vm.code_instrs"] = float64(codeInstrs)
	values["vm.vec_programs"] = float64(vecPrograms)

	// The sweep's stages, sequentially on one worker, then the whole
	// harness.Generate call on one worker: the difference is what the
	// harness itself costs.
	space := partition.SharedSpace(3, partition.DefaultSteps)
	var runtimes []*rt.Runtime
	for _, plat := range device.Platforms() {
		r := rt.New(plat)
		r.Workers = 1
		runtimes = append(runtimes, r)
	}
	stages := tr.begin("harness.stages", root, 0)
	for _, bp := range bench.All() {
		st, err := bp.Static()
		if err != nil {
			return nil, err
		}
		for sz := range bp.Sizes {
			id := tr.begin("bench.build", stages, 0)
			l, _, err := bp.Build(sz)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			id = tr.begin("runtime.profile", stages, 0)
			prof, err := runtimes[0].Profile(l)
			if err == nil {
				prof.Precompute()
			}
			tr.end(id)
			if err != nil {
				return nil, err
			}
			id = tr.begin("features.combined", stages, 0)
			features.Combined(st, features.RuntimeInput{Profile: prof, Plan: l.Plan, Args: l.Args, Iterations: l.Iterations})
			tr.end(id)
			for _, r := range runtimes {
				id = tr.begin("runtime.priceall", stages, 0)
				_, err := r.PriceAll(l, prof, space, nil)
				tr.end(id)
				if err != nil {
					return nil, err
				}
			}
		}
	}
	tr.end(stages)
	whole := tr.begin("harness.generate", root, 0)
	seqDB, err := harness.Generate(harness.GenOptions{Cache: harness.NewProfileCache(), Workers: 1})
	tr.end(whole)
	if err != nil {
		return nil, err
	}
	if len(seqDB.Records) != wantRecords {
		return nil, fmt.Errorf("harness.db_records = %d, want %d", len(seqDB.Records), wantRecords)
	}

	// Leave-one-program-out per platform: the paper's Figure 1.
	for _, p := range platforms {
		id := tr.begin("harness.figure1", root, 0)
		fig, err := harness.Figure1(db, p, harness.DefaultModel())
		tr.end(id)
		if err != nil {
			return nil, err
		}
		values["harness.fig1.speedup_cpu_"+p] = fig.GeoMeanVsCPU
		values["harness.fig1.speedup_gpu_"+p] = fig.GeoMeanVsGPU
	}
	tr.end(root)

	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	tot := layerTotals(tr.spans)
	values["inspire.lower_ms"] = ms(tot["inspire.lower"].Total)
	values["exec.compile_ms"] = ms(tot["exec.compile"].Total)
	values["backend.analyze_ms"] = ms(tot["backend.analyze"].Total)
	values["runtime.profile_ms"] = ms(tot["runtime.profile"].Total)
	values["features.combined_us"] = ms(tot["features.combined"].Total) * 1000 / float64(tot["features.combined"].Count)
	values["runtime.priceall_us"] = ms(tot["runtime.priceall"].Total) * 1000 / float64(tot["runtime.priceall"].Count)
	values["ml.crossval_s"] = ms(tot["harness.figure1"].Total) / 1000
	staged := tot["harness.stages"].Total - tot["harness.stages"].Self
	values["harness.self_s"] = ms(tot["harness.generate"].Total-staged) / 1000
	values["trace.stage_cover"] = float64(staged) / float64(tot["harness.generate"].Total)

	// The staged pass is not the call it takes apart, so the cost of
	// tracing is computed: spans recorded times the measured cost of one.
	probe := newTracer()
	spanCost := perCall(100000, func() {
		probe.spans = probe.spans[:0]
		probe.end(probe.begin("probe", -1, 0))
	})
	values["trace.overhead_pct"] = 100 * spanCost * float64(len(tr.spans)) / float64(tot[wlTrain].Total)

	for tier, name := range tierMetrics {
		if values[name], err = tierNsPerOp(tier); err != nil {
			return nil, err
		}
	}
	if err := writeTrace(env.dirs.out, wlTrain, seed, tr.spans); err != nil {
		return nil, err
	}
	return &result{Correct: true, Attempted: len(w.reps) * cellsPerRep, Metrics: fill(perLayer, values)}, nil
}
