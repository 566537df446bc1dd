package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/inspire"
	"repro/internal/obs"
	"repro/internal/partition"
	rt "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/wire"
)

// Layer micro-measurements: tight loops over one public function of one
// layer, timed from outside. Loops report the median of five batches, so
// one descheduled batch does not carry the number; whole kernel runs
// (tierNsPerOp) report the best of three.

// perCall times batches of n calls to fn and returns the median batch's
// time per call in nanoseconds.
func perCall(n int, fn func()) float64 {
	const batches = 5
	per := make([]float64, batches)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(start)) / float64(n)
	}
	return median(per)
}

// allocsPerCall counts heap allocations per call of fn over n calls.
func allocsPerCall(n int, fn func()) (allocs, kb float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n)
}

// tierPrograms are the kernels the per-tier throughput is taken over: a
// spread of compute-bound, memory-bound, divergent and atomic kernels.
var tierPrograms = []string{"matvec", "matmul", "nbody", "blackscholes", "mandelbrot", "histogram", "kmeans", "dotprod"}

// countedOps is the number of operations a profile counted.
func countedOps(c exec.Counts) int64 {
	return c.IntOps + c.FloatOps + c.TransOps + c.OtherBuiltins + c.GlobalLoads + c.GlobalStores + c.LocalOps + c.Branches + c.Barriers
}

// tierNsPerOp compiles each tier program on the given tier and runs it on
// one worker at size index 2; the result is the geometric mean over the
// programs of nanoseconds per counted operation. Programs the tier cannot
// take (a kernel the vectorizer rejects) are left out of its mean.
func tierNsPerOp(tier exec.Tier) (float64, error) {
	var per []float64
	for _, name := range tierPrograms {
		bp, err := bench.Get(name)
		if err != nil {
			return 0, err
		}
		unit, err := inspire.LowerSource(bp.Name, bp.Source)
		if err != nil {
			return 0, err
		}
		inspire.Optimize(unit)
		fn := unit.Kernel(bp.Kernel)
		if fn == nil {
			return 0, fmt.Errorf("%s: kernel %q not found", bp.Name, bp.Kernel)
		}
		comp, err := exec.CompileTier(fn, tier)
		if err != nil {
			continue
		}
		var best float64
		for rep := 0; rep < 3; rep++ {
			inst, err := bp.Instance(2)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			prof, err := comp.Run(inst.Args, inst.ND, exec.RunOptions{Workers: 1})
			el := float64(time.Since(start))
			if err != nil {
				return 0, fmt.Errorf("%s on %s tier: %w", bp.Name, tier, err)
			}
			ns := el / float64(countedOps(prof.Total()))
			if rep == 0 || ns < best {
				best = ns
			}
		}
		per = append(per, best)
	}
	return geomean(per), nil
}

// pricingInputs builds a launch and its profile for each tier program at
// size index 2: what the pricing micro-measurements price.
type pricingInput struct {
	launch rt.Launch
	prof   *exec.Profile
}

func pricingInputs(r *rt.Runtime) ([]pricingInput, error) {
	var in []pricingInput
	for _, name := range tierPrograms {
		bp, err := bench.Get(name)
		if err != nil {
			return nil, err
		}
		l, _, err := bp.Build(2)
		if err != nil {
			return nil, err
		}
		prof, err := r.Profile(l)
		if err != nil {
			return nil, err
		}
		prof.Precompute()
		in = append(in, pricingInput{l, prof})
	}
	return in, nil
}

// pricingMicro measures PriceMakespan (one candidate, the /predict path)
// and PriceAll (the 66-candidate space, the training and labeling path).
func pricingMicro(values map[string]float64) error {
	r := rt.New(device.MC1())
	r.Workers = 1
	in, err := pricingInputs(r)
	if err != nil {
		return err
	}
	space := partition.SharedSpace(r.Platform.NumDevices(), partition.DefaultSteps)
	i := 0
	var perr error
	values["runtime.price_makespan_ns"] = perCall(20000, func() {
		x := in[i%len(in)]
		if _, err := r.PriceMakespan(x.launch, x.prof, space[i%len(space)]); err != nil {
			perr = err
		}
		i++
	})
	dst := make([]float64, len(space))
	values["runtime.priceall_us"] = perCall(400, func() {
		x := in[i%len(in)]
		if _, err := r.PriceAll(x.launch, x.prof, space, dst); err != nil {
			perr = err
		}
		i++
	}) / 1000
	return perr
}

// wireMicro measures the binary codec: a full client-encode, server-decode,
// server-encode, client-decode round trip of one prediction and of a batch
// of 64, and the allocations of the server's half.
func wireMicro(values map[string]float64, pred *engine.Prediction) error {
	req := engine.Request{Program: pred.Program, SizeIdx: pred.SizeIdx}
	intern := wire.NewIntern()
	var reqBuf, respBuf []byte
	var werr error
	serverHalf := func() {
		_, payload, err := wire.ParseFrame(reqBuf)
		if err != nil {
			werr = err
			return
		}
		var got engine.Request
		if err := wire.DecodePredictRequest(payload, &got, intern); err != nil {
			werr = err
		}
		respBuf = wire.AppendPrediction(respBuf[:0], pred)
	}
	values["wire.predict_roundtrip_ns"] = perCall(20000, func() {
		reqBuf = wire.AppendPredictRequest(reqBuf[:0], &req)
		serverHalf()
		_, payload, err := wire.ParseFrame(respBuf)
		if err != nil {
			werr = err
			return
		}
		var back engine.Prediction
		if err := wire.DecodePrediction(payload, &back); err != nil {
			werr = err
		}
	})
	values["wire.allocs_per_op"], _ = allocsPerCall(5000, serverHalf)

	reqs := make([]engine.Request, batchSize)
	for i := range reqs {
		reqs[i] = req
	}
	values["wire.batch64_roundtrip_us"] = perCall(500, func() {
		reqBuf = wire.AppendBatchRequest(reqBuf[:0], reqs)
		_, payload, err := wire.ParseFrame(reqBuf)
		if err != nil {
			werr = err
			return
		}
		it, err := wire.DecodeBatchRequest(payload)
		if err != nil {
			werr = err
			return
		}
		var enc wire.BatchEncoder
		enc.Begin(respBuf[:0])
		var got engine.Request
		for it.Next(&got, intern) {
			enc.Prediction(pred)
		}
		respBuf = enc.Finish()
		_, payload, err = wire.ParseFrame(respBuf)
		if err != nil {
			werr = err
			return
		}
		if _, _, err := wire.DecodeBatchResponse(payload); err != nil {
			werr = err
		}
	}) / 1000
	return werr
}

// fleetMicro measures routing and admission on a warm router.
func fleetMicro(values map[string]float64, router *fleet.Router, cells []cell) error {
	var ferr error
	i := 0
	values["fleet.shardfor_ns"] = perCall(50000, func() {
		c := &cells[i%len(cells)]
		if _, err := router.ShardFor(c.Platform, c.Tenant); err != nil {
			ferr = err
		}
		i++
	})
	sh, err := router.ShardFor(cells[0].Platform, cells[0].Tenant)
	if err != nil {
		return err
	}
	ctx := context.Background()
	values["fleet.admit_ns"] = perCall(50000, func() {
		p, err := sh.Admit(ctx)
		if err != nil {
			ferr = err
			return
		}
		p.Release()
	})
	return ferr
}

// predictMicro measures warm engine.PredictInto over the workload's cells,
// and the model's Predict alone on the same cells' features.
func predictMicro(values map[string]float64, router *fleet.Router, cells []cell, fx *fixture) error {
	type target struct {
		eng *engine.Engine
		req engine.Request
	}
	targets := make([]target, len(cells))
	for i, c := range cells {
		sh, err := router.ShardFor(c.Platform, c.Tenant)
		if err != nil {
			return err
		}
		targets[i] = target{sh.Engine(), engine.Request{Program: c.Program, SizeIdx: c.Size}}
	}
	var perr error
	var p engine.Prediction
	i := 0
	call := func() {
		t := &targets[i%len(targets)]
		if err := t.eng.PredictInto(t.req, &p); err != nil {
			perr = err
		}
		i++
	}
	values["engine.predict_ns"] = perCall(20000, call)
	values["engine.predict_allocs_per_op"], _ = allocsPerCall(5000, call)

	values["ml.predict_ns"] = perCall(20000, func() {
		c := &cells[i%len(cells)]
		fx.arts[c.Platform].Predict(fx.db.Find(c.Platform, c.Program, c.Size).Features)
		i++
	})
	return perr
}

// memoMicro measures a warm sched.Memo hit, the lookup every engine cache
// does per request.
func memoMicro(values map[string]float64) {
	var m sched.Memo[string, int]
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		m.Do(keys[i], func() (int, error) { return i, nil })
	}
	i := 0
	values["sched.memo_hit_ns"] = perCall(100000, func() {
		m.Do(keys[i%len(keys)], func() (int, error) { return 0, nil })
		i++
	})
}

// obsMicro measures one durable append of a labeled observation shaped
// like the ones /execute records.
func obsMicro(values map[string]float64, tmp string, fx *fixture) error {
	log, err := obs.Open(obs.Options{Dir: filepath.Join(tmp, "obs-micro")})
	if err != nil {
		return err
	}
	defer os.RemoveAll(filepath.Join(tmp, "obs-micro"))
	defer log.Close()
	rec := fx.db.Records[0]
	o := obs.Observation{
		Platform: rec.Platform, Program: rec.Program, Suite: rec.Suite, SizeIdx: rec.SizeIdx,
		FeatureNames: rec.FeatureNames, Features: rec.Features, Class: rec.BestClass,
		Makespan: rec.OracleTime, Verified: true, Labeled: true, BestClass: rec.BestClass,
		OracleTime: rec.OracleTime, Times: rec.Times,
	}
	var aerr error
	values["obs.append_us"] = perCall(1000, func() {
		if _, err := log.Append(o); err != nil {
			aerr = err
		}
	}) / 1000
	return aerr
}
