// Command serve exposes the deployment engine fleet as an HTTP API: a
// long-lived process that serves one engine shard per (platform,
// tenant), loads (or trains once) each platform's partitioning model
// lazily, keeps compiled programs and feature profiles warm, and
// answers prediction and execution requests until shut down.
//
// With -platforms mc1,mc2 one process serves several platforms; the
// `platform` query parameter picks one (default: the first). Requests
// route consistently by (platform, X-Tenant) to a shard (jump hash), so
// a tenant's cache locality survives across requests while tenant quota
// state stays fleet-wide (one shared table across all shards). So does
// the cell cache: each (program, size) is profiled, and its instance
// template built on first execution, once per process, whichever
// platforms and shards serve it. And each platform serves one model:
// its shards share one model store, so /predict, /models and /retrain
// answer the same versions whichever shard a tenant lands on.
//
// Every request takes one pipeline. The route table in (*server).mux
// lists the endpoints, each with its methods and how far into the fleet
// it reaches, and one dispatcher answers a wrong method (405 + Allow),
// an unserved platform (404) and a shed (429 + Retry-After) for all of
// them. The request's codec, picked from its Content-Type, decodes it
// and encodes the answer or the classified failure: JSON, or, for
// application/x-repro-wire bodies, the compact binary wire protocol
// (internal/wire) that cuts the encode/decode cost dominating
// /predict/batch throughput at high load.
//
// Each shard gates its requests through admission control: a bounded
// accept queue (-admit-inflight, -admit-queue) and a moving p99 latency
// estimate (-target-p99). Overload sheds with 429 + Retry-After instead
// of queueing without bound; /stats counts admitted/shed/queueDepth/p99
// per shard.
//
// With -obs it records executions into a durable observation log (shared
// by all shards): each executed cell's oracle label once per platform,
// and how many executions each (cell, class, model version) served. With
// -adaptive it closes the loop: one background retrainer per platform
// merges the labels with the seed database, trains candidates, gates
// them against the live model and hot-swaps validated versions into
// service on every shard of the platform — no restart.
//
// Usage (serve -h lists every flag):
//
//	serve -addr :8090 -db training_db.json -platforms mc1,mc2 [flags]
//
// Uploaded kernels are untrusted: executions run under per-request
// step/memory/wall-clock budgets (-exec-steps, -exec-mem, -exec-timeout)
// enforced inside both execution tiers, tenants (X-Tenant header) are
// subject to fleet-wide kernel-count, source-size and concurrency
// quotas, and over-cap requests answer 429 with Retry-After. Budget
// aborts answer typed 4xx (code "budget:steps|memory|deadline").
//
// The serving path is allocation-conscious end to end: request structs,
// response structs, JSON encoders, codecs and wire buffers are pooled,
// predictions are filled in place (engine.PredictInto performs zero
// heap allocations warm), wire encode/decode is zero-allocation warm
// (interned program names), and observing an execution is one counter
// bump.
//
// SIGINT/SIGTERM drain in-flight requests and exit cleanly.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/wire"
)

// maxBodyBytes bounds every POST body: request parameters are tiny, so
// anything larger is a mistake or an attack, and must not reach the
// JSON decoder (or the wire frame parser) unbounded.
const maxBodyBytes = 1 << 20

// maxBatch bounds one /predict/batch request: large enough to amortize
// per-request overhead thoroughly, small enough that one request cannot
// monopolize the process.
const maxBatch = 1024

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	dbPath := flag.String("db", "training_db.json", "training database (from cmd/train)")
	platforms := flag.String("platforms", "mc2", "comma-separated platforms to serve (first is the default)")
	shards := flag.Int("shards", 1, "engine shards per platform; tenants spread across them by consistent hash")
	admitInflight := flag.Int("admit-inflight", 0, "max concurrently admitted predict/batch/execute requests per shard (0 = unlimited)")
	admitQueue := flag.Int("admit-queue", 0, "max requests queued per shard beyond -admit-inflight; arrivals past that shed with 429")
	targetP99 := flag.Duration("target-p99", 0, "moving p99 latency target per shard; while exceeded, requests shed instead of queue (0 = off)")
	models := flag.String("models", "", "model artifact directory (from cmd/train -model-out)")
	modelName := flag.String("model", "mlp", fmt.Sprintf("fallback model family: %s", strings.Join(harness.ModelNames(), ", ")))
	saveTrained := flag.Bool("save-trained", false, "persist models trained on the fly (and promoted by -adaptive) into -models")
	warm := flag.String("warm", "", "comma-separated programs to pre-warm (compile, profile, predict) on every platform at startup")
	parallel := flag.Int("parallel", 0, "worker goroutines for execution and oracle search (0 = GOMAXPROCS)")
	cacheLimit := flag.Int("cache-limit", 0, "max entries in the fleet's cell cache and in each engine's program cache, LRU-ish eviction (0 = unbounded)")
	obsDir := flag.String("obs", "", "observation log directory (empty = do not record executions)")
	adaptive := flag.Bool("adaptive", false, "run the background retrainer over the observation log (requires -obs)")
	retrainInterval := flag.Duration("retrain-interval", time.Minute, "how often the background retrainer checks for new observations")
	retrainMin := flag.Int("retrain-min", 5, "new cell labels required since the last attempt before retraining")
	execSteps := flag.Int64("exec-steps", 0, "per-request kernel step budget (0 = unlimited)")
	execMem := flag.Int64("exec-mem", 0, "per-request buffer allocation budget in bytes (0 = unlimited)")
	execTimeout := flag.Duration("exec-timeout", 0, "per-request execution wall-clock budget (0 = unlimited)")
	tenantKernels := flag.Int("tenant-max-kernels", 32, "max kernels one tenant may register fleet-wide (0 = unlimited)")
	tenantSource := flag.Int64("tenant-max-source", 1<<20, "max total MiniCL source bytes per tenant fleet-wide (0 = unlimited)")
	tenantConc := flag.Int("tenant-concurrency", 0, "max in-flight executions per tenant fleet-wide, 429 + Retry-After over the cap (0 = unlimited)")
	flag.Parse()
	sched.SetDefaultWorkers(*parallel)

	if *saveTrained && *models == "" {
		fail(fmt.Errorf("-save-trained requires -models to name the artifact directory"))
	}
	if *adaptive && *obsDir == "" {
		fail(fmt.Errorf("-adaptive requires -obs to name the observation log directory"))
	}
	platformList := strings.Split(*platforms, ",")
	for i := range platformList {
		platformList[i] = strings.TrimSpace(platformList[i])
	}
	// One tenant quota table, one observation log and one cell cache span
	// the fleet: a (program, size)'s features, profile and (once it
	// executes) instance template are built and held once, whichever
	// platforms and shards serve it, and so is each platform's model
	// store. Everything else (program caches, execution counters, stats)
	// is per shard. Building the cell cache validates the platform names
	// up front: shards build lazily, and a typo must fail at startup, not
	// on the first unlucky request.
	sharedTenants := engine.NewTenantTable()
	sharedCells, err := engine.NewCellCache(platformList...)
	if err != nil {
		fail(err)
	}
	mk, err := harness.ModelByName(*modelName)
	if err != nil {
		fail(err)
	}
	db, err := harness.LoadDB(*dbPath)
	if err != nil {
		fail(fmt.Errorf("%w (run cmd/train first)", err))
	}
	var obsLog *obs.Log
	if *obsDir != "" {
		if obsLog, err = obs.Open(obs.Options{Dir: *obsDir}); err != nil {
			fail(err)
		}
		defer obsLog.Close()
	}

	rt, err := fleet.New(fleet.Options{
		Platforms:         platformList,
		ShardsPerPlatform: *shards,
		Admission: fleet.AdmissionConfig{
			MaxInflight: *admitInflight,
			MaxQueue:    *admitQueue,
			TargetP99:   *targetP99,
		},
		NewEngine: func(platform string, shard int) (*engine.Engine, error) {
			eng, err := engine.New(engine.Options{
				Platform:    platform,
				DB:          db,
				ArtifactDir: *models,
				Model:       mk,
				SaveTrained: *saveTrained,
				ObsLog:      obsLog,
				CacheLimit:  *cacheLimit,
				MaxSteps:    *execSteps,
				MaxMemBytes: *execMem,
				ExecTimeout: *execTimeout,
				Tenant: engine.TenantLimits{
					MaxKernels:     *tenantKernels,
					MaxSourceBytes: *tenantSource,
					MaxConcurrent:  *tenantConc,
				},
				SharedTenants: sharedTenants,
				SharedCells:   sharedCells,
			})
			if err == nil {
				log.Printf("shard %s/%d up", platform, shard)
			}
			return eng, err
		},
	})
	if err != nil {
		fail(err)
	}
	// Close all created shards after the HTTP server has drained
	// (deferred before obsLog's Close, so it runs first): the final
	// flushes land every execution completed requests counted.
	closeShards := func() {
		for _, sh := range rt.Shards() {
			sh.Engine().Close()
		}
	}
	defer closeShards()

	warmList := strings.FieldsFunc(*warm, func(r rune) bool { return r == ',' })
	stopRetrain, err := startPlatforms(rt, warmList, *adaptive, *retrainInterval, *retrainMin)
	if err != nil {
		fail(err)
	}
	defer stopRetrain()
	srv := &server{fleet: rt, obsLog: obsLog, start: time.Now(), intern: wire.NewIntern()}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.mux()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("serving %s on %s (db %s, models %q, obs %q, %d shard(s)/platform)",
			strings.Join(platformList, ","), *addr, *dbPath, *models, *obsDir, rt.ShardsPerPlatform())
		errc <- httpSrv.ListenAndServe()
	}()

	// fail() exits without running defers; once the server has been
	// serving, every error exit must flush the execution counters first
	// so executions that already answered stay durable.
	failServing := func(err error) {
		closeShards()
		if obsLog != nil {
			obsLog.Close()
		}
		fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		failServing(err)
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		failServing(err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		failServing(err)
	}
	var preds, execs uint64
	for _, st := range rt.Stats() {
		preds += st.Engine.PredictRequests
		execs += st.Engine.Executions
	}
	log.Printf("shutdown complete (%d predictions, %d executions served)", preds, execs)
}

// startPlatforms builds the default tenant's shard of every platform, so
// configuration errors (bad db, unknown platform) surface at startup,
// predicts each program of warm there, and with adaptive starts the
// platform's retrainer on it: the shards of a platform share its models,
// so one retrainer serves them all. It returns the function that stops
// the retrainers.
func startPlatforms(rt *fleet.Router, warm []string, adaptive bool, interval time.Duration, minNew int) (stop func(), err error) {
	var stops []func()
	stop = func() {
		for _, s := range stops {
			s()
		}
	}
	defer func() {
		if err != nil {
			stop()
		}
	}()
	for _, platform := range rt.Platforms() {
		var sh *fleet.Shard
		if sh, err = rt.ShardFor(platform, ""); err != nil {
			return nil, err
		}
		for _, prog := range warm {
			if _, err = sh.Engine().Predict(engine.Request{Program: prog, SizeIdx: -1}); err != nil {
				return nil, fmt.Errorf("warmup %s on %s: %w", prog, platform, err)
			}
			log.Printf("warmed %s on %s", prog, platform)
		}
		if adaptive {
			var s func()
			if s, err = sh.Engine().StartRetrainer(interval, minNew); err != nil {
				return nil, err
			}
			stops = append(stops, s)
			log.Printf("adaptive retrainer running on %s (interval %s, threshold %d new labels)", platform, interval, minNew)
		}
	}
	return stop, nil
}

type server struct {
	fleet  *fleet.Router
	obsLog *obs.Log
	start  time.Time
	// intern deduplicates program names decoded from wire requests so
	// the warm wire path allocates nothing.
	intern *wire.Intern
}

// gate is how far into the fleet a route reaches: the whole process,
// the caller's (platform, tenant) shard, or that shard once its
// admission gate lets the request in.
type gate uint8

const (
	fleetWide gate = iota
	onShard
	admitted
)

// route is one endpoint. Its handler gets the shard (nil when fleetWide)
// and the request's codec.
type route struct {
	path    string
	methods []string
	gate    gate
	handle  func(w http.ResponseWriter, r *http.Request, sh *fleet.Shard, c codec)
}

func (s *server) mux() *http.ServeMux {
	get, post := http.MethodGet, http.MethodPost
	mux := http.NewServeMux()
	for _, rt := range []route{
		{"/healthz", []string{get, http.MethodHead}, fleetWide, s.handleHealthz}, // liveness, uptime, platforms
		{"/predict", []string{get, post}, admitted, s.handlePredict},             // ?program=P[&size=N][&platform=M]: predicted partitioning
		{"/predict/batch", []string{post}, admitted, s.handlePredictBatch},       // {"requests":[...]}: price N points at once
		{"/execute", []string{post}, admitted, s.handleExecute},                  // ?program=P[&size=N]: run partitioned, verify
		{"/kernels", []string{get, post}, onShard, s.handleKernels},              // GET the caller's kernels, POST {"name","source",...} to register one
		{"/stats", []string{get}, fleetWide, s.handleStats},                      // fleet cell count, per-shard admission and engine counters
		{"/models", []string{get, post}, onShard, s.handleModels},                // the platform's model: GET versions and lineage, POST {"rollback": N} to switch
		{"/retrain", []string{get, post}, onShard, s.handleRetrain},              // the platform's retrainer: GET status, POST to retrain now
		{"/observations", []string{get}, fleetWide, s.handleObservations},        // observation log stats: label records, counter keys, executions counted
	} {
		mux.HandleFunc(rt.path, func(w http.ResponseWriter, r *http.Request) { s.dispatch(rt, w, r) })
	}
	return mux
}

// dispatch runs the steps every route shares, answering failures in the
// request's encoding: a method outside the route's set is 405 + Allow;
// the shard is the platform query parameter's (default: the first) for
// X-Tenant, 404 for an unserved platform and 503 when its engine cannot
// be built; a shard that sheds answers 429 + Retry-After.
func (s *server) dispatch(rt route, w http.ResponseWriter, r *http.Request) {
	c := s.codecFor(w, r)
	defer c.release()
	if !slices.Contains(rt.methods, r.Method) {
		allow := strings.Join(rt.methods, ", ")
		w.Header().Set("Allow", allow)
		c.fail(&statusError{status: http.StatusMethodNotAllowed,
			err: fmt.Errorf("method %s not allowed (allow: %s)", r.Method, allow)})
		return
	}
	var sh *fleet.Shard
	if rt.gate != fleetWide {
		platform := r.URL.Query().Get("platform")
		var err error
		if sh, err = s.fleet.ShardFor(platform, tenantOf(r)); err != nil {
			status := http.StatusServiceUnavailable
			if platform != "" && !slices.Contains(s.fleet.Platforms(), platform) {
				status = http.StatusNotFound
			}
			c.fail(&statusError{status: status, code: "platform", err: err})
			return
		}
	}
	if rt.gate == admitted {
		permit, err := sh.Admit(r.Context())
		if err != nil {
			var se *fleet.ShedError
			if !errors.As(err, &se) {
				// Cancelled while queued: the client hung up; any status
				// works, 503 keeps the log honest.
				err = &statusError{status: http.StatusServiceUnavailable, err: err}
			}
			c.fail(err)
			return
		}
		defer permit.Release()
	}
	rt.handle(w, r, sh, c)
}

func retryAfterSecs(d time.Duration) int { return max(1, int((d+time.Second-1)/time.Second)) }

// tenantOf extracts the caller's tenant from the X-Tenant header; empty
// means engine.DefaultTenant.
func tenantOf(r *http.Request) string {
	return strings.TrimSpace(r.Header.Get("X-Tenant"))
}

var errNoProgram = errors.New("missing required parameter: program")

// decode reads a single /predict or /execute request through c.
func decode(c codec, execute bool) (engine.Request, error) {
	req, err := c.request(execute)
	if err == nil && req.Program == "" {
		err = badRequest(errNoProgram)
	}
	return req, err
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request, _ *fleet.Shard, _ codec) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"platform":      s.fleet.DefaultPlatform(),
		"platforms":     s.fleet.Platforms(),
		"uptimeSeconds": time.Since(s.start).Seconds(),
	})
}

// predPool recycles predictions across /predict and /predict/batch
// requests: the engine fills them in place (zero allocations warm), so
// the handler's per-request garbage is just the response bytes.
var predPool = sync.Pool{New: func() any { return new(engine.Prediction) }}

func (s *server) handlePredict(_ http.ResponseWriter, _ *http.Request, sh *fleet.Shard, c codec) {
	req, err := decode(c, false)
	if err != nil {
		c.fail(err)
		return
	}
	p := predPool.Get().(*engine.Prediction)
	defer predPool.Put(p)
	if err := sh.Engine().PredictInto(req, p); err != nil {
		c.fail(err)
		return
	}
	c.prediction(p)
}

// handlePredictBatch prices N points in one request, amortizing HTTP,
// decoding and encoding overhead across the whole batch. A bad point
// answers its own error without failing its siblings.
func (s *server) handlePredictBatch(_ http.ResponseWriter, _ *http.Request, sh *fleet.Shard, c codec) {
	n, err := c.batch()
	switch {
	case err != nil:
	case n == 0:
		err = badRequest(errors.New("missing or empty requests array"))
	case n > maxBatch:
		err = badRequest(fmt.Errorf("batch of %d exceeds the %d-point limit", n, maxBatch))
	}
	if err != nil {
		c.fail(err)
		return
	}
	p := predPool.Get().(*engine.Prediction)
	defer predPool.Put(p)
	eng := sh.Engine()
	for i := 0; i < n; i++ {
		req, err := c.next(i)
		if err == nil && req.Program == "" {
			err = errNoProgram
		}
		if err == nil {
			err = eng.PredictInto(req, p)
		}
		if err != nil {
			c.add(nil, fmt.Sprintf("request %d: %v", i, err))
			continue
		}
		c.add(p, "")
	}
	c.finish()
}

func (s *server) handleExecute(_ http.ResponseWriter, r *http.Request, sh *fleet.Shard, c codec) {
	req, err := decode(c, true)
	if err != nil {
		c.fail(err)
		return
	}
	req.Tenant = tenantOf(r)
	// The request context rides into the kernel: a client that hangs up
	// mid-execution aborts the kernel instead of burning cycles for
	// nobody.
	x, err := sh.Engine().Execute(r.Context(), req)
	if err != nil {
		c.fail(err)
		return
	}
	c.execution(x)
}

// handleKernels serves the user-kernel registry: GET lists the caller's
// shard's registered kernels, POST compiles an uploaded MiniCL source
// and registers it for the caller's tenant on its shard. Registration
// quotas charge the fleet-wide tenant table.
func (s *server) handleKernels(w http.ResponseWriter, r *http.Request, sh *fleet.Shard, c codec) {
	if r.Method == http.MethodGet {
		kernels := sh.Engine().ListKernels()
		writeJSON(w, http.StatusOK, map[string]any{
			"count":   len(kernels),
			"kernels": kernels,
		})
		return
	}
	var spec engine.KernelSpec
	err := s.decodeBody(w, r, &spec)
	if err == nil && (spec.Name == "" || spec.Source == "") {
		err = badRequest(errors.New("missing required fields: name, source"))
	}
	if err != nil {
		c.fail(err)
		return
	}
	info, err := sh.Engine().RegisterKernel(tenantOf(r), spec)
	if err != nil {
		c.fail(err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request, _ *fleet.Shard, _ codec) {
	shards := s.fleet.Stats()
	// Fleet-wide vector-tier totals, so divergence behavior is visible
	// without walking every shard's engine counters.
	var vecDiv, vecRec, vecLin, vecBail uint64
	for _, st := range shards {
		vecDiv += st.Engine.VecDivergences
		vecRec += st.Engine.VecReconverges
		vecLin += st.Engine.VecLinearized
		vecBail += st.Engine.VecScalarBails
	}
	// Cells, and the templates their first executions built, are counted
	// once per cache, however many shards share it.
	caches := map[*engine.CellCache]bool{}
	cells, templates := 0, 0
	for _, sh := range s.fleet.Shards() {
		if c := sh.Engine().Cells(); !caches[c] {
			caches[c] = true
			cells += c.Len()
			templates += c.Templates()
		}
	}
	// Model health: each model version's served oracle efficiency, from
	// the observation log's counters as the background flushes left them.
	var health []obs.Health
	if s.obsLog != nil {
		health = s.obsLog.Health()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptimeSeconds":     time.Since(s.start).Seconds(),
		"platforms":         s.fleet.Platforms(),
		"shardsPerPlatform": s.fleet.ShardsPerPlatform(),
		"cachedCells":       cells,
		"cellTemplates":     templates,
		"shards":            shards,
		"vecDivergences":    vecDiv,
		"vecReconverges":    vecRec,
		"vecLinearized":     vecLin,
		"vecScalarBails":    vecBail,
		"modelHealth":       health,
	})
}

// handleModels lists the platform's model versions; POST {"rollback": N}
// first makes version N current again on every shard of the platform.
func (s *server) handleModels(w http.ResponseWriter, r *http.Request, sh *fleet.Shard, c codec) {
	if r.Method == http.MethodPost {
		var req struct {
			Rollback int `json:"rollback"`
		}
		err := s.decodeBody(w, r, &req)
		if err == nil && req.Rollback <= 0 {
			err = badRequest(errors.New("missing or invalid rollback version"))
		}
		if err == nil {
			_, err = sh.Engine().Rollback(req.Rollback)
		}
		if err != nil {
			c.fail(err)
			return
		}
	}
	current, versions, err := sh.Engine().ModelVersions()
	if err != nil {
		c.fail(err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"platform": sh.Platform,
		"current":  current,
		"versions": versions,
	})
}

func (s *server) handleRetrain(w http.ResponseWriter, r *http.Request, sh *fleet.Shard, c codec) {
	if r.Method == http.MethodGet {
		writeJSON(w, http.StatusOK, sh.Engine().RetrainStatus())
		return
	}
	res, err := sh.Engine().Retrain()
	if err != nil {
		c.fail(err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *server) handleObservations(w http.ResponseWriter, _ *http.Request, _ *fleet.Shard, _ codec) {
	if s.obsLog == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	// Read-your-writes for operators: flush every shard's counters so
	// the stats reflect each execution that has already answered.
	// Bounded — a stalled flusher degrades this endpoint to slightly
	// stale stats (flushed=false plus a pending count), never to a hung
	// handler.
	flushed := true
	var pending uint64
	for _, sh := range s.fleet.Shards() {
		flushed = sh.Engine().TryFlushObservations(2*time.Second) && flushed
		pending += sh.Engine().Stats().ObservationsPending
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": true,
		"flushed": flushed,
		"pending": pending,
		"log":     s.obsLog.Stats(),
	})
}

// jsonWriter pairs a reusable buffer with an encoder bound to it, so
// responses are rendered without allocating a fresh encoder (and an
// encoding failure is detected before the status line is committed).
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonPool = sync.Pool{New: func() any {
	jw := &jsonWriter{}
	jw.enc = json.NewEncoder(&jw.buf)
	jw.enc.SetIndent("", "  ")
	return jw
}}

// maxPooledResponse caps the buffer capacity a writer may carry back
// into the pool: one huge /predict/batch response must not permanently
// pin megabytes behind every future /healthz.
const maxPooledResponse = 64 << 10

func writeJSON(w http.ResponseWriter, code int, v any) {
	jw := jsonPool.Get().(*jsonWriter)
	defer func() {
		if jw.buf.Cap() <= maxPooledResponse {
			jsonPool.Put(jw)
		}
	}()
	jw.buf.Reset()
	if err := jw.enc.Encode(v); err != nil {
		log.Printf("serve: encoding response: %v", err)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(jw.buf.Bytes()); err != nil {
		log.Printf("serve: writing response: %v", err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "serve:", err)
	os.Exit(1)
}
