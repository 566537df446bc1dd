// Command serve exposes the deployment engine fleet as an HTTP API: a
// long-lived process that serves one engine shard per (platform,
// tenant), loads (or trains once) each shard's partitioning model
// lazily, keeps compiled programs and feature profiles warm, and
// answers prediction and execution requests until shut down.
//
// With -platforms mc1,mc2 one process serves several platforms; the
// `platform` query parameter picks one (default: the first). Requests
// route consistently by (platform, X-Tenant) to a shard (jump hash), so
// a tenant's cache locality survives across requests while tenant quota
// state stays fleet-wide (one shared table across all shards).
//
// Alongside JSON, the predict/batch/execute endpoints speak a compact
// binary wire protocol (internal/wire): POST bodies with Content-Type
// application/x-repro-wire are decoded as wire frames and answered in
// kind, cutting the encode/decode cost that dominates /predict/batch
// throughput at high load.
//
// Each shard gates its requests through admission control: a bounded
// accept queue (-admit-inflight, -admit-queue) and a moving p99 latency
// estimate (-target-p99). Overload sheds with 429 + Retry-After instead
// of queueing without bound; /stats counts admitted/shed/queueDepth/p99
// per shard.
//
// With -obs it records every execution into a durable observation log
// (shared by all shards), and with -adaptive it closes the loop: a
// background retrainer merges the observations with the seed database,
// trains candidates, gates them against the live model and hot-swaps
// validated versions into service — no restart.
//
// Endpoints:
//
//	GET  /healthz                                  liveness + uptime + platforms
//	GET  /predict?program=P[&size=N][&platform=M]  predicted partitioning
//	POST /predict/batch                            {"requests":[...]} price N points at once
//	POST /execute?program=P[&size=N]               run partitioned, verify
//	GET  /kernels                                  registered user kernels (caller's shard)
//	POST /kernels                                  {"name","source",...} compile + register a MiniCL kernel
//	GET  /stats                                    per-shard admission + engine counters
//	GET  /models                                   model versions + lineage (per platform)
//	POST /models                                   {"rollback": N} switch version
//	GET  /retrain                                  retrainer status
//	POST /retrain                                  trigger a retrain now
//	GET  /observations                             observation log stats
//
// Usage:
//
//	serve -addr :8090 -db training_db.json -platforms mc1,mc2 \
//	      [-shards 1] [-admit-inflight 0] [-admit-queue 0] [-target-p99 0] \
//	      [-models models/] [-model mlp] [-save-trained] \
//	      [-warm vecadd,matmul] [-parallel 8] [-cache-limit 0] [-strict] \
//	      [-obs obslog/] [-obs-buffer 1024] [-adaptive] \
//	      [-retrain-interval 1m] [-retrain-min 5] [-oracle-sample 1] \
//	      [-exec-steps 0] [-exec-mem 0] [-exec-timeout 0] \
//	      [-tenant-max-kernels 32] [-tenant-max-source 1048576] [-tenant-concurrency 0]
//
// Uploaded kernels are untrusted: executions run under per-request
// step/memory/wall-clock budgets (-exec-steps, -exec-mem, -exec-timeout)
// enforced inside both execution tiers, tenants (X-Tenant header) are
// subject to fleet-wide kernel-count, source-size and concurrency
// quotas, and over-cap requests answer 429 with Retry-After. Budget
// aborts answer typed 4xx (code "budget:steps|memory|deadline").
//
// The serving path is allocation-conscious end to end: request structs,
// response structs, JSON encoders and wire buffers are pooled,
// predictions are filled in place (engine.PredictInto performs zero
// heap allocations warm), wire encode/decode is zero-allocation warm
// (interned program names), and observation recording is asynchronous.
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
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/exec"
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
	platform := flag.String("platform", "mc2", "target platform (shorthand for -platforms with one entry)")
	platforms := flag.String("platforms", "", "comma-separated platforms to serve (first is the default; overrides -platform)")
	shards := flag.Int("shards", 1, "engine shards per platform; tenants spread across them by consistent hash")
	admitInflight := flag.Int("admit-inflight", 0, "max concurrently admitted predict/batch/execute requests per shard (0 = unlimited)")
	admitQueue := flag.Int("admit-queue", 0, "max requests queued per shard beyond -admit-inflight; arrivals past that shed with 429")
	targetP99 := flag.Duration("target-p99", 0, "moving p99 latency target per shard; while exceeded, requests shed instead of queue (0 = off)")
	models := flag.String("models", "", "model artifact directory (from cmd/train -model-out)")
	modelName := flag.String("model", "mlp", fmt.Sprintf("fallback model family: %s", strings.Join(harness.ModelNames(), ", ")))
	saveTrained := flag.Bool("save-trained", false, "persist models trained on the fly (and promoted by -adaptive) into -models")
	warm := flag.String("warm", "", "comma-separated programs to pre-warm (compile, profile, predict) at startup")
	parallel := flag.Int("parallel", 0, "worker goroutines for execution and oracle search (0 = GOMAXPROCS)")
	cacheLimit := flag.Int("cache-limit", 0, "max entries per engine cache, LRU-ish eviction (0 = unbounded)")
	strict := flag.Bool("strict", false, "reject JSON bodies containing unknown fields")
	obsDir := flag.String("obs", "", "observation log directory (empty = do not record executions)")
	obsBuffer := flag.Int("obs-buffer", 0, "async observation ring capacity (0 = default 1024, negative = record synchronously)")
	adaptive := flag.Bool("adaptive", false, "run the background retrainer over the observation log (requires -obs)")
	retrainInterval := flag.Duration("retrain-interval", time.Minute, "how often the background retrainer checks for new observations")
	retrainMin := flag.Int("retrain-min", 5, "labeled observations required since the last attempt before retraining")
	oracleSample := flag.Int("oracle-sample", 1, "label every Nth execution with its measured-best class (1 = all, negative = never)")
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
	platformList := []string{*platform}
	if *platforms != "" {
		platformList = strings.Split(*platforms, ",")
		for i := range platformList {
			platformList[i] = strings.TrimSpace(platformList[i])
		}
	}
	// Validate platform names up front: shards build lazily, and a typo
	// must fail at startup, not on the first unlucky request.
	for _, p := range platformList {
		if _, err := device.ByName(p); err != nil {
			fail(err)
		}
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

	// One tenant quota table and one observation log span the fleet;
	// everything else (program/model/feature caches, obs ring, stats) is
	// per shard.
	sharedTenants := engine.NewTenantTable()
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
				Platform:          platform,
				DB:                db,
				ArtifactDir:       *models,
				Model:             mk,
				SaveTrained:       *saveTrained,
				ObsLog:            obsLog,
				OracleSampleEvery: *oracleSample,
				CacheLimit:        *cacheLimit,
				ObsQueue:          *obsBuffer,
				MaxSteps:          *execSteps,
				MaxMemBytes:       *execMem,
				ExecTimeout:       *execTimeout,
				Tenant: engine.TenantLimits{
					MaxKernels:     *tenantKernels,
					MaxSourceBytes: *tenantSource,
					MaxConcurrent:  *tenantConc,
				},
				SharedTenants: sharedTenants,
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
	// flushes land every observation enqueued by completed requests.
	closeShards := func() {
		for _, sh := range rt.Shards() {
			sh.Engine().Close()
		}
	}
	defer closeShards()

	// Build the default tenant's shard on the default platform eagerly:
	// configuration errors (bad db, missing artifacts) surface at
	// startup, and the common case serves warm from the first request.
	defShard, err := rt.ShardFor("", "")
	if err != nil {
		fail(err)
	}
	srv := &server{fleet: rt, obsLog: obsLog, start: time.Now(), strict: *strict, intern: wire.NewIntern()}

	if *warm != "" {
		for _, prog := range strings.Split(*warm, ",") {
			if _, err := defShard.Engine().Predict(engine.Request{Program: prog, SizeIdx: -1}); err != nil {
				fail(fmt.Errorf("warmup %s: %w", prog, err))
			}
			log.Printf("warmed %s", prog)
		}
	}
	if *adaptive {
		// The retrainer runs on the eagerly built default shard; lazily
		// created shards retrain on demand via POST /retrain.
		stopRetrain, err := defShard.Engine().StartRetrainer(*retrainInterval, *retrainMin)
		if err != nil {
			fail(err)
		}
		defer stopRetrain()
		log.Printf("adaptive retrainer running (interval %s, threshold %d labeled observations)", *retrainInterval, *retrainMin)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.mux()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("serving %s on %s (db %s, models %q, obs %q, %d shard(s)/platform)",
			strings.Join(platformList, ","), *addr, *dbPath, *models, *obsDir, rt.ShardsPerPlatform())
		errc <- httpSrv.ListenAndServe()
	}()

	// fail() exits without running defers; once the server has been
	// serving, every error exit must drain the async observation rings
	// first so executions that already answered stay durable.
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

type server struct {
	fleet  *fleet.Router
	obsLog *obs.Log
	start  time.Time
	// strict rejects JSON bodies with unknown fields (schema typos fail
	// loudly instead of being silently ignored).
	strict bool
	// intern deduplicates program names decoded from wire requests so
	// the warm wire path allocates nothing.
	intern *wire.Intern
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/predict/batch", s.handlePredictBatch)
	mux.HandleFunc("/execute", s.handleExecute)
	mux.HandleFunc("/kernels", s.handleKernels)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/models", s.handleModels)
	mux.HandleFunc("/retrain", s.handleRetrain)
	mux.HandleFunc("/observations", s.handleObservations)
	return mux
}

// shard resolves the request's (platform, tenant) shard — platform from
// the query (default: first configured), tenant from X-Tenant — and
// answers 404 for unserved platforms (503 if the shard's engine cannot
// be built). Returns nil when the request was already answered.
func (s *server) shard(w http.ResponseWriter, r *http.Request) *fleet.Shard {
	platform := r.URL.Query().Get("platform")
	sh, err := s.fleet.ShardFor(platform, tenantOf(r))
	if err == nil {
		return sh
	}
	status := http.StatusServiceUnavailable
	if platform != "" && !s.served(platform) {
		status = http.StatusNotFound
	}
	if isWire(r) {
		writeWireError(w, status, "platform", err.Error(), 0)
	} else {
		writeError(w, status, err)
	}
	return nil
}

func (s *server) served(platform string) bool {
	for _, p := range s.fleet.Platforms() {
		if p == platform {
			return true
		}
	}
	return false
}

// admit runs the shard's admission gate, answering 429 + Retry-After
// (JSON or wire to match the request) when the shard sheds. Returns
// false when the request was already answered.
func (s *server) admit(w http.ResponseWriter, r *http.Request, sh *fleet.Shard) (fleet.Permit, bool) {
	permit, err := sh.Admit(r.Context())
	if err == nil {
		return permit, true
	}
	var se *fleet.ShedError
	if errors.As(err, &se) {
		writeEngineError(w, r, err)
	} else {
		// Context cancellation while queued: the client hung up; any
		// status works, 503 keeps the log honest.
		writeError(w, http.StatusServiceUnavailable, err)
	}
	return fleet.Permit{}, false
}

func retryAfterSecs(d time.Duration) int {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return int(secs)
}

// allowMethods enforces the endpoint's method set: anything else gets
// 405 with an Allow header listing what would have worked. Returns false
// when the request was already answered.
func allowMethods(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m {
			return true
		}
	}
	w.Header().Set("Allow", strings.Join(methods, ", "))
	writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed (allow: %s)", r.Method, strings.Join(methods, ", ")))
	return false
}

// decodeBody decodes an optional JSON POST body into v, bounded by
// maxBodyBytes. An empty body is fine (parameters may be in the query),
// but anything after the first JSON value is not: trailing garbage means
// the client built the request wrong (or something is smuggling data),
// and silently ignoring it would mask the bug. With -strict, unknown
// fields are rejected too.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	if r.Method != http.MethodPost {
		return nil
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	// Decode regardless of Content-Length: chunked bodies report -1.
	dec := json.NewDecoder(r.Body)
	if s.strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil // empty body
		}
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("invalid JSON body: trailing data after the request object")
	}
	return nil
}

// bodyErrStatus picks the status for a request-body error: an oversized
// body (MaxBytesReader tripped) is 413, anything else malformed is 400.
func bodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// tenantOf extracts the caller's tenant from the X-Tenant header; empty
// means engine.DefaultTenant.
func tenantOf(r *http.Request) string {
	return strings.TrimSpace(r.Header.Get("X-Tenant"))
}

// failure is an engine or admission error classified once for both
// encodings, so clients can react without parsing messages: budget
// exhaustion is 422/413/408 by kind (steps/memory/deadline) with the
// spent/limit pair, quota rejections and sheds are 429 with
// Retry-After, compile failures 400 (message carries the MiniCL
// line:column), name conflicts 409, and anything else 422 with no code.
type failure struct {
	status    int
	code      string
	retrySecs int               // > 0 sets Retry-After
	budget    *exec.BudgetError // non-nil for "budget:*" codes
}

func classify(err error) failure {
	var be *exec.BudgetError
	var qe *engine.QuotaError
	var se *fleet.ShedError
	var ce *engine.CompileError
	switch {
	case errors.As(err, &be):
		status := http.StatusUnprocessableEntity
		switch be.Kind {
		case exec.BudgetMemory:
			status = http.StatusRequestEntityTooLarge
		case exec.BudgetDeadline:
			status = http.StatusRequestTimeout
		}
		return failure{status: status, code: "budget:" + be.Kind, budget: be}
	case errors.As(err, &qe):
		return failure{status: http.StatusTooManyRequests, code: "quota", retrySecs: retryAfterSecs(qe.RetryAfter)}
	case errors.As(err, &se):
		return failure{status: http.StatusTooManyRequests, code: "shed", retrySecs: retryAfterSecs(se.RetryAfter)}
	case errors.As(err, &ce):
		return failure{status: http.StatusBadRequest, code: "compile"}
	case errors.Is(err, engine.ErrKernelExists):
		return failure{status: http.StatusConflict, code: "exists"}
	case errors.Is(err, engine.ErrInvalidKernel):
		return failure{status: http.StatusBadRequest, code: "invalid"}
	default:
		return failure{status: http.StatusUnprocessableEntity}
	}
}

// writeEngineError answers a classified failure in the request's
// encoding: a JSON object {"error", "code"?, "spent"?, "limit"?} or a
// MsgError frame (code "error" when unclassified).
func writeEngineError(w http.ResponseWriter, r *http.Request, err error) {
	f := classify(err)
	if isWire(r) {
		code := f.code
		if code == "" {
			code = "error"
		}
		writeWireError(w, f.status, code, err.Error(), f.retrySecs)
		return
	}
	if f.retrySecs > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(f.retrySecs))
	}
	body := map[string]any{"error": err.Error()}
	if f.code != "" {
		body["code"] = f.code
	}
	if f.budget != nil {
		body["spent"] = f.budget.Spent
		body["limit"] = f.budget.Limit
	}
	writeJSON(w, f.status, body)
}

// parseRequest builds an engine request from query parameters (any
// method) or a JSON body (POST with a body).
func (s *server) parseRequest(w http.ResponseWriter, r *http.Request) (engine.Request, error) {
	req := engine.Request{SizeIdx: -1}
	if err := s.decodeBody(w, r, &req); err != nil {
		return req, err
	}
	q := r.URL.Query()
	if v := q.Get("program"); v != "" {
		req.Program = v
	}
	if v := q.Get("size"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return req, fmt.Errorf("invalid size %q", v)
		}
		req.SizeIdx = n
	}
	if v := q.Get("leaveout"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return req, fmt.Errorf("invalid leaveout %q", v)
		}
		req.LeaveOut = b
	}
	if req.Program == "" {
		return req, fmt.Errorf("missing required parameter: program")
	}
	return req, nil
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodGet, http.MethodHead) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"platform":      s.fleet.DefaultPlatform(),
		"platforms":     s.fleet.Platforms(),
		"uptimeSeconds": time.Since(s.start).Seconds(),
	})
}

// predPool recycles response structs across /predict requests: the
// engine fills them in place (zero allocations warm), so the handler's
// per-request garbage is just the response bytes.
var predPool = sync.Pool{New: func() any { return new(engine.Prediction) }}

func (s *server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	sh := s.shard(w, r)
	if sh == nil {
		return
	}
	permit, ok := s.admit(w, r, sh)
	if !ok {
		return
	}
	defer permit.Release()
	if isWire(r) {
		s.wirePredict(w, r, sh)
		return
	}
	req, err := s.parseRequest(w, r)
	if err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	p := predPool.Get().(*engine.Prediction)
	defer predPool.Put(p)
	if err := sh.Engine().PredictInto(req, p); err != nil {
		writeEngineError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, p)
}

// batchRequest is the POST /predict/batch body.
type batchRequest struct {
	// Requests lists the points to price; each element accepts the same
	// fields as /predict's body ("program", "size", "leaveOut"). Raw
	// messages are kept so every element gets /predict's defaulting
	// (omitted size = the program's default size).
	Requests []json.RawMessage `json:"requests"`
}

// batchResult is one element of the batch response: a prediction, or a
// per-point error (one bad point does not fail its siblings).
type batchResult struct {
	engine.Prediction
	Error string `json:"error,omitempty"`
}

// batchPool recycles the per-request result slices.
var batchPool = sync.Pool{New: func() any { return new([]batchResult) }}

// handlePredictBatch prices N points in one request through the
// engine's scratch API, amortizing HTTP, decoding and encoding overhead
// across the whole batch.
func (s *server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodPost) {
		return
	}
	sh := s.shard(w, r)
	if sh == nil {
		return
	}
	permit, ok := s.admit(w, r, sh)
	if !ok {
		return
	}
	defer permit.Release()
	if isWire(r) {
		s.wirePredictBatch(w, r, sh)
		return
	}
	var breq batchRequest
	if err := s.decodeBody(w, r, &breq); err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	if len(breq.Requests) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing or empty requests array"))
		return
	}
	if len(breq.Requests) > maxBatch {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d exceeds the %d-point limit", len(breq.Requests), maxBatch))
		return
	}
	resultsp := batchPool.Get().(*[]batchResult)
	defer func() {
		// Same capacity discipline as jsonPool: a maximal batch must not
		// pin its result slice behind every future small request.
		if cap(*resultsp) <= 256 {
			batchPool.Put(resultsp)
		}
	}()
	results := (*resultsp)[:0]
	errs := 0
	for i, raw := range breq.Requests {
		results = append(results, batchResult{})
		res := &results[len(results)-1]
		req := engine.Request{SizeIdx: -1}
		dec := json.NewDecoder(bytes.NewReader(raw))
		if s.strict {
			dec.DisallowUnknownFields()
		}
		if err := dec.Decode(&req); err != nil {
			res.Error = fmt.Sprintf("request %d: invalid JSON: %v", i, err)
			errs++
			continue
		}
		if req.Program == "" {
			res.Error = fmt.Sprintf("request %d: missing required parameter: program", i)
			errs++
			continue
		}
		if err := sh.Engine().PredictInto(req, &res.Prediction); err != nil {
			res.Prediction = engine.Prediction{}
			res.Error = fmt.Sprintf("request %d: %v", i, err)
			errs++
		}
	}
	*resultsp = results
	writeJSON(w, http.StatusOK, map[string]any{
		"count":   len(results),
		"errors":  errs,
		"results": results,
	})
}

func (s *server) handleExecute(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodPost) {
		return
	}
	sh := s.shard(w, r)
	if sh == nil {
		return
	}
	permit, ok := s.admit(w, r, sh)
	if !ok {
		return
	}
	defer permit.Release()
	if isWire(r) {
		s.wireExecute(w, r, sh)
		return
	}
	req, err := s.parseRequest(w, r)
	if err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	req.Tenant = tenantOf(r)
	// The request context rides into the kernel: a client that hangs up
	// mid-execution aborts the kernel instead of burning cycles for
	// nobody.
	res, err := sh.Engine().Execute(r.Context(), req)
	if err != nil {
		writeEngineError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleKernels serves the user-kernel registry: GET lists the caller's
// shard's registered kernels, POST compiles an uploaded MiniCL source
// and registers it for the caller's tenant on its shard. Registration
// quotas charge the fleet-wide tenant table.
func (s *server) handleKernels(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	sh := s.shard(w, r)
	if sh == nil {
		return
	}
	if r.Method == http.MethodGet {
		kernels := sh.Engine().ListKernels()
		writeJSON(w, http.StatusOK, map[string]any{
			"count":   len(kernels),
			"kernels": kernels,
		})
		return
	}
	var spec engine.KernelSpec
	if err := s.decodeBody(w, r, &spec); err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	if spec.Name == "" || spec.Source == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing required fields: name, source"))
		return
	}
	info, err := sh.Engine().RegisterKernel(tenantOf(r), spec)
	if err != nil {
		writeEngineError(w, r, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodGet) {
		return
	}
	shards := s.fleet.Stats()
	// Fleet-wide vector-tier totals, so divergence behavior is visible
	// without walking every shard's engine counters.
	var vecDiv, vecRec, vecBail uint64
	for _, st := range shards {
		vecDiv += st.Engine.VecDivergences
		vecRec += st.Engine.VecReconverges
		vecBail += st.Engine.VecScalarBails
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptimeSeconds":     time.Since(s.start).Seconds(),
		"platforms":         s.fleet.Platforms(),
		"shardsPerPlatform": s.fleet.ShardsPerPlatform(),
		"shards":            shards,
		"vecDivergences":    vecDiv,
		"vecReconverges":    vecRec,
		"vecScalarBails":    vecBail,
	})
}

// modelsRequest is the POST /models body.
type modelsRequest struct {
	// Rollback names the version to make current again.
	Rollback int `json:"rollback"`
}

func (s *server) handleModels(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	sh := s.shard(w, r)
	if sh == nil {
		return
	}
	if r.Method == http.MethodPost {
		var req modelsRequest
		if err := s.decodeBody(w, r, &req); err != nil {
			writeError(w, bodyErrStatus(err), err)
			return
		}
		if req.Rollback <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("missing or invalid rollback version"))
			return
		}
		if _, err := sh.Engine().Rollback(req.Rollback); err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
	}
	current, versions, err := sh.Engine().ModelVersions("")
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"platform": sh.Platform,
		"current":  current,
		"versions": versions,
	})
}

func (s *server) handleRetrain(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	sh := s.shard(w, r)
	if sh == nil {
		return
	}
	if r.Method == http.MethodGet {
		writeJSON(w, http.StatusOK, sh.Engine().RetrainStatus())
		return
	}
	res, err := sh.Engine().Retrain()
	switch {
	case errors.Is(err, engine.ErrRetrainInProgress):
		writeError(w, http.StatusConflict, err)
	case err != nil:
		writeError(w, http.StatusUnprocessableEntity, err)
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

func (s *server) handleObservations(w http.ResponseWriter, r *http.Request) {
	if !allowMethods(w, r, http.MethodGet) {
		return
	}
	if s.obsLog == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	// Read-your-writes for operators: drain every shard's async ring so
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

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "serve:", err)
	os.Exit(1)
}
