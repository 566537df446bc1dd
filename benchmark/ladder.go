package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/obs"
	rt "repro/internal/runtime"
	"repro/internal/wire"
)

// The per-layer ladder of a serve workload: one segment of the workload's
// request list replayed in process, on one goroutine, against a warm
// fleet.Router built with cmd/serve's options. Layers are timed from
// outside: a span around each public call the request path makes.

// inproc is the in-process copy of what cmd/serve builds.
type inproc struct {
	router *fleet.Router
	obsLog *obs.Log
	tmp    string
	progs  map[string]*core.Program // compiled as the engine compiles them
}

func newInproc(d dirs, fx *fixture) (*inproc, error) {
	tmp, err := os.MkdirTemp(d.build, "run-")
	if err != nil {
		return nil, err
	}
	ip := &inproc{tmp: tmp, progs: make(map[string]*core.Program)}
	if ip.obsLog, err = obs.Open(obs.Options{Dir: filepath.Join(tmp, "obslog")}); err != nil {
		os.RemoveAll(tmp)
		return nil, err
	}
	shared := engine.NewTenantTable()
	ip.router, err = fleet.New(fleet.Options{
		Platforms:         platforms,
		ShardsPerPlatform: shards,
		NewEngine: func(platform string, _ int) (*engine.Engine, error) {
			return engine.New(engine.Options{
				Platform: platform, DB: fx.db, ArtifactDir: fx.models,
				ObsLog: ip.obsLog, OracleSampleEvery: 1,
				MaxSteps: execSteps, MaxMemBytes: execMem, ExecTimeout: execTimeout,
				Tenant:        engine.TenantLimits{MaxKernels: 32, MaxSourceBytes: 1 << 20},
				SharedTenants: shared,
			})
		},
	})
	if err != nil {
		ip.close()
		return nil, err
	}
	return ip, nil
}

func (ip *inproc) close() {
	if ip.router != nil {
		for _, sh := range ip.router.Shards() {
			sh.Engine().Close()
		}
	}
	ip.obsLog.Close()
	os.RemoveAll(ip.tmp)
}

func (ip *inproc) flush() {
	for _, sh := range ip.router.Shards() {
		sh.Engine().FlushObservations()
	}
}

// warm touches every cell once (compile, profile, model load; for execute
// workloads one execution too) and returns the first-touch time per cell.
func (ip *inproc) warm(ctx context.Context, workload string, cells []cell) ([]float64, error) {
	first := make([]float64, len(cells))
	for i := range cells {
		c := &cells[i]
		if ip.progs[c.Program] == nil {
			bp, err := bench.Get(c.Program)
			if err != nil {
				return nil, err
			}
			if ip.progs[c.Program], err = core.CompileSource(bp.Name, bp.Source, bp.Kernel); err != nil {
				return nil, err
			}
		}
		sh, err := ip.router.ShardFor(c.Platform, c.Tenant)
		if err != nil {
			return nil, err
		}
		req := engine.Request{Program: c.Program, SizeIdx: c.Size, Tenant: c.Tenant}
		var p engine.Prediction
		start := time.Now()
		if err := sh.Engine().PredictInto(req, &p); err != nil {
			return nil, err
		}
		first[i] = float64(time.Since(start)) / float64(time.Millisecond)
		if workload != wlPredict {
			if _, err := sh.Engine().Execute(ctx, req); err != nil {
				return nil, err
			}
		}
	}
	ip.flush()
	return first, nil
}

// replayMode selects what one replay pass wraps in spans.
type replayMode int

const (
	modeStaged replayMode = iota // each stage of the request path
	modeWhole                    // whole engine.Execute calls
	modeBare                     // bare Compiled.Run calls
)

// passResult is what one replay pass over a segment measured.
type passResult struct {
	ms         []float64 // per request, timed whether or not spans are on
	countedOps int64
	vecReqs    int
	instBytes  int64
}

// replayer carries the scratch one goroutine's replay reuses across
// requests.
type replayer struct {
	ip      *inproc
	cells   []cell
	intern  *wire.Intern
	respBuf []byte
}

// one plays one request and returns its latency in milliseconds. A nil
// tracer runs exactly the same calls without recording spans.
func (rp *replayer) one(ctx context.Context, tr *tracer, mode replayMode, id int32, r *request, res *passResult) (float64, error) {
	c := &rp.cells[r.Cell]
	start := time.Now()
	var err error
	switch {
	case mode == modeBare:
		err = rp.ip.bareRun(tr, id, c)
	case mode == modeWhole:
		err = rp.ip.wholeExecute(ctx, tr, id, c)
	case r.Route == routeExecute:
		err = rp.ip.stagedExecute(ctx, tr, id, c, res)
	default:
		rp.respBuf, err = rp.ip.stagedPredict(ctx, tr, id, r, rp.cells, rp.intern, rp.respBuf)
	}
	if err != nil {
		return 0, fmt.Errorf("in-process replay of %s %s: %w", r.Method, r.URL, err)
	}
	return float64(time.Since(start)) / float64(time.Millisecond), nil
}

// ladder is one segment replayed every way the ladder needs.
type ladder struct {
	plain, traced *passResult // staged, without and with spans
	whole, bare   *passResult // execute workloads only
}

// replayLadder plays every request of the segment back to back in each way
// — staged without spans, staged with spans and, for execute workloads,
// as one engine.Execute call and as a bare Compiled.Run — rotating which
// comes first. A slow stretch of the machine then falls on all of them
// alike, so their differences and ratios hold on a noisy host where the
// means of separate passes would not.
func (ip *inproc) replayLadder(ctx context.Context, tr *tracer, execute bool, reqs []request, order []int32, cells []cell) (*ladder, error) {
	rp := &replayer{ip: ip, cells: cells, intern: wire.NewIntern()}
	newPass := func() *passResult { return &passResult{ms: make([]float64, len(order))} }
	ld := &ladder{plain: newPass(), traced: newPass()}
	type way struct {
		tr   *tracer
		mode replayMode
		res  *passResult
	}
	ways := []way{{nil, modeStaged, ld.plain}, {tr, modeStaged, ld.traced}}
	if execute {
		ld.whole, ld.bare = newPass(), newPass()
		ways = append(ways, way{tr, modeWhole, ld.whole}, way{tr, modeBare, ld.bare})
	}
	for n, ri := range order {
		for k := range ways {
			wy := ways[(n+k)%len(ways)]
			ms, err := rp.one(ctx, wy.tr, wy.mode, int32(n), &reqs[ri], wy.res)
			if err != nil {
				return nil, err
			}
			wy.res.ms[n] = ms
		}
	}
	ip.flush()
	return ld, nil
}

func (ip *inproc) stagedPredict(ctx context.Context, tr *tracer, id int32, r *request, cells []cell, intern *wire.Intern, respBuf []byte) ([]byte, error) {
	c := &cells[r.Cell]
	root := tr.begin("request", -1, id)
	defer tr.end(root)
	s := tr.begin("fleet.shardfor", root, id)
	sh, err := ip.router.ShardFor(c.Platform, c.Tenant)
	tr.end(s)
	if err != nil {
		return respBuf, err
	}
	s = tr.begin("fleet.admit", root, id)
	permit, err := sh.Admit(ctx)
	tr.end(s)
	if err != nil {
		return respBuf, err
	}
	eng := sh.Engine()
	var p engine.Prediction
	switch r.Route {
	case routeJSONPredict:
		s = tr.begin("engine.predict", root, id)
		err = eng.PredictInto(engine.Request{Program: c.Program, SizeIdx: c.Size}, &p)
		tr.end(s)
		if err == nil {
			err = c.matches(&p, p.PredictedTime)
		}
	case routeWirePredict:
		var req engine.Request
		s = tr.begin("wire.decode", root, id)
		_, payload, derr := wire.ParseFrame(r.Body)
		if derr == nil {
			derr = wire.DecodePredictRequest(payload, &req, intern)
		}
		tr.end(s)
		if derr != nil {
			return respBuf, derr
		}
		s = tr.begin("engine.predict", root, id)
		err = eng.PredictInto(req, &p)
		tr.end(s)
		if err == nil {
			s = tr.begin("wire.encode", root, id)
			respBuf = wire.AppendPrediction(respBuf[:0], &p)
			tr.end(s)
			err = c.matches(&p, p.PredictedTime)
		}
	case routeWireBatch:
		// The server interleaves decode, predict and encode per point;
		// here the three run as phases over the whole batch, so each gets
		// one span and not 64.
		var reqs [batchSize]engine.Request
		var preds [batchSize]engine.Prediction
		s = tr.begin("wire.decode", root, id)
		_, payload, derr := wire.ParseFrame(r.Body)
		var it wire.BatchIter
		if derr == nil {
			it, derr = wire.DecodeBatchRequest(payload)
		}
		n := 0
		for derr == nil && n < batchSize && it.Next(&reqs[n], intern) {
			n++
		}
		if derr == nil {
			derr = it.Err()
		}
		tr.end(s)
		if derr != nil {
			return respBuf, derr
		}
		if n != len(r.Points) {
			return respBuf, fmt.Errorf("batch decoded %d points, sent %d", n, len(r.Points))
		}
		s = tr.begin("engine.predict", root, id)
		for i := 0; i < n && err == nil; i++ {
			err = eng.PredictInto(reqs[i], &preds[i])
		}
		tr.end(s)
		if err == nil {
			s = tr.begin("wire.encode", root, id)
			var enc wire.BatchEncoder
			enc.Begin(respBuf[:0])
			for i := 0; i < n; i++ {
				enc.Prediction(&preds[i])
			}
			respBuf = enc.Finish()
			tr.end(s)
			for i := 0; i < n && err == nil; i++ {
				err = cells[r.Points[i]].matches(&preds[i], preds[i].PredictedTime)
			}
		}
	}
	s = tr.begin("fleet.release", root, id)
	permit.Release()
	tr.end(s)
	return respBuf, err
}

// stagedExecute makes, one public call at a time, the calls engine.Execute
// makes: predict, build the instance, run it partitioned, verify.
func (ip *inproc) stagedExecute(ctx context.Context, tr *tracer, id int32, c *cell, res *passResult) error {
	root := tr.begin("request", -1, id)
	defer tr.end(root)
	s := tr.begin("fleet.shardfor", root, id)
	sh, err := ip.router.ShardFor(c.Platform, c.Tenant)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("fleet.admit", root, id)
	permit, err := sh.Admit(ctx)
	tr.end(s)
	if err != nil {
		return err
	}
	defer func() {
		s := tr.begin("fleet.release", root, id)
		permit.Release()
		tr.end(s)
	}()
	eng := sh.Engine()
	var p engine.Prediction
	s = tr.begin("engine.predict", root, id)
	err = eng.PredictInto(engine.Request{Program: c.Program, SizeIdx: c.Size}, &p)
	tr.end(s)
	if err != nil {
		return err
	}
	bp, err := bench.Get(c.Program)
	if err != nil {
		return err
	}
	s = tr.begin("bench.instance", root, id)
	inst, err := bp.Instance(c.Size)
	tr.end(s)
	if err != nil {
		return err
	}
	bctx, cancel := context.WithTimeout(ctx, execTimeout)
	defer cancel()
	budget := exec.NewBudget(bctx, execSteps, execMem)
	if err := budget.ChargeMem(instanceBytes(inst)); err != nil {
		return err
	}
	prog := ip.progs[c.Program]
	fw := eng.Framework()
	s = tr.begin("runtime.execute", root, id)
	out, err := fw.Runtime.Execute(newLaunch(prog, bp, inst, budget), fw.ClassPartition(p.Class))
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("bench.verify", root, id)
	err = bp.Verify(inst, c.Size)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("verified:false: %w", err)
	}
	res.countedOps += countedOps(out.Profile.Total())
	res.instBytes += instanceBytes(inst)
	if prog.Compiled.Tier() == exec.TierVec {
		res.vecReqs++
	}
	return c.matches(&p, out.Makespan)
}

// newLaunch binds an instance to the compiled program the way the engine
// does for an execution.
func newLaunch(prog *core.Program, bp *bench.Program, inst *bench.Instance, budget *exec.Budget) rt.Launch {
	return rt.Launch{Kernel: prog.Compiled, Plan: prog.Plan, Args: inst.Args, ND: inst.ND, Iterations: bp.Iterations, Budget: budget}
}

func (ip *inproc) wholeExecute(ctx context.Context, tr *tracer, id int32, c *cell) error {
	sh, err := ip.router.ShardFor(c.Platform, c.Tenant)
	if err != nil {
		return err
	}
	s := tr.begin("engine.execute", -1, id)
	x, err := sh.Engine().Execute(ctx, engine.Request{Program: c.Program, SizeIdx: c.Size, Tenant: c.Tenant})
	tr.end(s)
	if err != nil {
		return err
	}
	if !x.Verified {
		return fmt.Errorf("verified:false: %s", x.VerifyError)
	}
	return c.matches(&x.Prediction, x.Makespan)
}

// bareRun is the kernel alone: the whole NDRange on the served tier with
// the default worker budget, no partitioning, pricing or budget.
func (ip *inproc) bareRun(tr *tracer, id int32, c *cell) error {
	bp, err := bench.Get(c.Program)
	if err != nil {
		return err
	}
	inst, err := bp.Instance(c.Size)
	if err != nil {
		return err
	}
	s := tr.begin("exec.run", -1, id)
	_, err = ip.progs[c.Program].Compiled.Run(inst.Args, inst.ND, exec.RunOptions{})
	tr.end(s)
	return err
}

// executeAllocs counts, over the first requests of the segment, the heap
// allocations of Runtime.Execute alone and the allocations and kilobytes of
// a whole engine.Execute call including its observation's background
// recording.
func (ip *inproc) executeAllocs(ctx context.Context, reqs []request, order []int32, cells []cell) (runtimeAllocs, engineAllocs, engineKB float64, err error) {
	if len(order) > 40 {
		order = order[:40]
	}
	var rtMallocs, engMallocs, engBytes uint64
	var m0, m1 runtime.MemStats
	for _, ri := range order {
		c := &cells[reqs[ri].Cell]
		sh, err := ip.router.ShardFor(c.Platform, c.Tenant)
		if err != nil {
			return 0, 0, 0, err
		}
		bp, err := bench.Get(c.Program)
		if err != nil {
			return 0, 0, 0, err
		}
		inst, err := bp.Instance(c.Size)
		if err != nil {
			return 0, 0, 0, err
		}
		fw := sh.Engine().Framework()
		l := newLaunch(ip.progs[c.Program], bp, inst, exec.NewBudget(ctx, execSteps, execMem))
		runtime.ReadMemStats(&m0)
		_, err = fw.Runtime.Execute(l, fw.ClassPartition(c.Class))
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, 0, 0, err
		}
		rtMallocs += m1.Mallocs - m0.Mallocs

		runtime.ReadMemStats(&m0)
		_, err = sh.Engine().Execute(ctx, engine.Request{Program: c.Program, SizeIdx: c.Size, Tenant: c.Tenant})
		sh.Engine().FlushObservations()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, 0, 0, err
		}
		engMallocs += m1.Mallocs - m0.Mallocs
		engBytes += m1.TotalAlloc - m0.TotalAlloc
	}
	n := float64(len(order))
	return float64(rtMallocs) / n, float64(engMallocs) / n, float64(engBytes) / 1024 / n, nil
}

// traceServe is a serve workload's --trace 1 run: a client window against
// cmd/serve for the client-side and /stats numbers, then the in-process
// replay for the ladder, then the layer micro-measurements.
func traceServe(ctx context.Context, env *runEnv, workload string, seed int64, seconds float64) (*result, error) {
	w, err := measureServe(ctx, env, workload, seed, seconds, 1)
	if err != nil {
		return nil, err
	}
	w.describe(workload)
	values := map[string]float64{}
	w.clientLayers(values)

	ip, err := newInproc(env.dirs, env.fx)
	if err != nil {
		return nil, err
	}
	defer ip.close()
	first, err := ip.warm(ctx, workload, w.cells)
	if err != nil {
		return nil, err
	}
	values["engine.first_touch_ms"] = mean(first)

	order := segmentOrder(len(w.base), seed, 0)
	tr := newTracer()
	before := sumCounters(ip.router.Stats())
	ld, err := ip.replayLadder(ctx, tr, workload != wlPredict, w.base, order, w.cells)
	if err != nil {
		return nil, err
	}
	after := sumCounters(ip.router.Stats())
	if after.compiles != before.compiles || after.featureComputes != before.featureComputes {
		return nil, fmt.Errorf("in-process replay recompiled or re-profiled a warm cell")
	}
	// The median of the per-request ratios: one descheduled heavy request
	// would carry a ratio of means.
	ratios := make([]float64, len(order))
	for i := range ratios {
		ratios[i] = ld.traced.ms[i] / ld.plain.ms[i]
	}
	values["trace.overhead_pct"] = 100 * (median(ratios) - 1)
	values["serve.transport_ms"] = values["client.p50_ms"] - median(ld.plain.ms)

	n := float64(len(order))
	tot := layerTotals(tr.spans)
	perReq := func(name string) float64 { return float64(tot[name].Total) / 1e6 / n }
	values["trace.stage_cover"] = 1 - float64(tot["request"].Self)/float64(tot["request"].Total)

	if workload != wlPredict {
		// Request n of one way is request n of the others: the typical
		// request's kernel share, next to the share of total time that the
		// heaviest cells dominate.
		shares := make([]float64, len(order))
		for i := range shares {
			shares[i] = ld.bare.ms[i] / ld.whole.ms[i]
		}
		execMS, runMS := perReq("engine.execute"), perReq("exec.run")
		stageSum := perReq("engine.predict") + perReq("bench.instance") + perReq("runtime.execute") + perReq("bench.verify")
		values["engine.execute_ms"] = execMS
		values["engine.self_ms"] = execMS - stageSum
		values["trace.stage_cover"] = stageSum / execMS
		values["bench.instance_ms"] = perReq("bench.instance")
		values["bench.verify_ms"] = perReq("bench.verify")
		values["bench.instance_kb"] = float64(ld.traced.instBytes) / 1024 / n
		values["runtime.execute_ms"] = perReq("runtime.execute")
		values["runtime.overhead_ms"] = perReq("runtime.execute") - runMS
		values["exec.run_ms"] = runMS
		values["exec.kernel_share"] = runMS / execMS
		values["exec.kernel_share_p50"] = median(shares)
		values["exec.counted_ops"] = float64(ld.traced.countedOps)
		values["exec.vec_request_share"] = float64(ld.traced.vecReqs) / n
		values["exec.vec_divergences"] = float64(after.vecDivergences - before.vecDivergences)
		values["exec.vec_scalar_bails"] = float64(after.vecBails - before.vecBails)
		values["runtime.execute_allocs_per_op"], values["engine.execute_allocs_per_op"], values["engine.execute_kb_per_op"], err = ip.executeAllocs(ctx, w.base, order, w.cells)
		if err != nil {
			return nil, err
		}
		if err := obsMicro(values, ip.tmp, env.fx); err != nil {
			return nil, err
		}
	}

	if err := fleetMicro(values, ip.router, w.cells); err != nil {
		return nil, err
	}
	if err := predictMicro(values, ip.router, w.cells, env.fx); err != nil {
		return nil, err
	}
	if err := pricingMicro(values); err != nil {
		return nil, err
	}
	switch workload {
	case wlPredict:
		var p engine.Prediction
		sh, err := ip.router.ShardFor(w.cells[0].Platform, w.cells[0].Tenant)
		if err != nil {
			return nil, err
		}
		if err := sh.Engine().PredictInto(engine.Request{Program: w.cells[0].Program, SizeIdx: w.cells[0].Size}, &p); err != nil {
			return nil, err
		}
		if err := wireMicro(values, &p); err != nil {
			return nil, err
		}
		memoMicro(values)
	case wlLarge:
		for tier, name := range tierMetrics {
			if values[name], err = tierNsPerOp(tier); err != nil {
				return nil, err
			}
		}
	}
	if err := writeTrace(env.dirs.out, workload, seed, tr.spans); err != nil {
		return nil, err
	}
	return &result{Correct: true, Attempted: w.attempted, Failed: w.failed, Metrics: fill(perLayer, values)}, nil
}

// tierMetrics names the per-tier throughput metric of each execution tier.
var tierMetrics = map[exec.Tier]string{
	exec.TierVec:     "exec.vec.ns_per_op",
	exec.TierVM:      "exec.vm.ns_per_op",
	exec.TierClosure: "exec.closure.ns_per_op",
}

// clientLayers fills the per-layer metrics that come from the client's
// side of the window and from /stats.
func (w *window) clientLayers(values map[string]float64) {
	byRoute := make(map[route][]float64)
	byCell := make(map[int32][]float64)
	all := make([]float64, len(w.samples))
	for i, s := range w.samples {
		r := &w.base[s.req]
		all[i] = s.ms
		byRoute[r.Route] = append(byRoute[r.Route], s.ms)
		if r.Route != routeWireBatch {
			byCell[r.Cell] = append(byCell[r.Cell], s.ms)
		}
	}
	values["client.ops_per_s"] = w.segmentMedian(func(s segmentStat) float64 { return float64(s.n) / s.wallS })
	values["client.p50_ms"] = w.segmentMedian(func(s segmentStat) float64 { return s.p50 })
	values["client.p95_ms"] = w.segmentMedian(func(s segmentStat) float64 { return s.p95 })
	values["serve.json_predict_p50_ms"] = median(byRoute[routeJSONPredict])
	values["serve.wire_predict_p50_ms"] = median(byRoute[routeWirePredict])
	values["serve.wire_batch64_p50_ms"] = median(byRoute[routeWireBatch])
	values["serve.p99_ms"], _ = tailPercentile(all, 0.99)
	cellMedians := make([]float64, 0, len(byCell))
	for _, v := range byCell {
		cellMedians = append(cellMedians, median(v))
	}
	values["serve.cell_geomean_ms"] = geomean(cellMedians)

	d := func(a, b uint64) float64 { return float64(a - b) }
	if arrivals := d(w.after.admitted, w.before.admitted) + d(w.after.shed, w.before.shed); arrivals > 0 {
		values["fleet.shed_share"] = d(w.after.shed, w.before.shed) / arrivals
	}
	if execs := d(w.after.executions, w.before.executions); execs > 0 {
		values["obs.dropped_share"] = d(w.after.obsDropped, w.before.obsDropped) / execs
	}
	values["engine.rework"] = d(w.after.compiles, w.before.compiles) + d(w.after.featureComputes, w.before.featureComputes)
}
