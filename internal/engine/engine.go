// Package engine is the persistent deployment half of the pipeline: a
// long-lived serving engine built on core.Framework.
//
// The paper splits the system into an offline training phase and an
// online deployment phase. Training produces a database and model
// artifacts; this engine owns everything the deployment phase needs to
// answer prediction and execution requests under sustained traffic
// without redoing offline work:
//
//   - a compiled-program registry (each benchmark kernel is compiled
//     once per process),
//   - a per-(program, size) cell cache — features, profile and argument
//     sizes, plus an instance template once the cell first executes — so
//     the one profiled execution that runtime feature collection requires
//     happens once, and a cell that is only ever predicted keeps no
//     buffer. The cell does not depend on the platform,
//     so a fleet shares one CellCache across all its engines
//     (Options.SharedCells) and a (program, size) is profiled and held
//     once per process,
//   - one model store per platform of the cell cache: a versioned
//     registry per left-out program, backed by artifact files on disk
//     with a train-on-the-fly fallback, and the adaptive retrainer's
//     state (retrain.go). Every engine of a platform sharing the cache —
//     every shard of a fleet — serves, promotes and rolls back the same
//     versions.
//
// All three caches deduplicate concurrent identical requests through
// sched.Memo: two clients asking for the same cold entry share one
// computation. A warm engine answers repeat requests with zero
// retraining and zero recompilation (pinned by tests and benchmarks).
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Options configures a deployment engine.
type Options struct {
	// Platform is the target platform name ("mc1" or "mc2").
	Platform string
	// DB supplies reference times for responses and the training data
	// for the train-on-the-fly fallback. Optional if every requested
	// model resolves from ArtifactDir.
	DB *harness.DB
	// ArtifactDir holds model artifact files (see ArtifactPath).
	// Artifacts found there are served without retraining.
	ArtifactDir string
	// Model constructs the fallback model family when no artifact
	// exists (default: the harness default, an MLP).
	Model ml.NewModel
	// SaveTrained persists models trained by the fallback path — and
	// models promoted by the retrainer — into ArtifactDir, so the next
	// process skips training entirely.
	SaveTrained bool

	// ObsLog, when set, records executions into the durable observation
	// store, the adaptive loop's raw material: each cell's oracle label
	// once per platform, and per-(cell, class, model version) execution
	// counts. Nil disables observation (the engine behaves exactly as
	// before). Engines that share a cell cache share one log: a cell is
	// labeled once per platform, by whichever of them executes it first.
	ObsLog *obs.Log
	// OracleSampleEvery is a no-op kept for callers that still set it:
	// every executed cell is labeled once. New refuses any value but 0
	// and 1.
	OracleSampleEvery int
	// CacheLimit caps the compiled-program and cell caches with LRU-ish
	// eviction (0 = unbounded, the right default for batch tools;
	// long-lived serve processes set a cap). A shared cell cache is capped
	// once, not per engine.
	CacheLimit int

	// MaxSteps bounds the kernel steps one execution request may spend
	// (0 = unlimited). Enforced inside both execution tiers; exhaustion
	// aborts the run with a structured *exec.BudgetError.
	MaxSteps int64
	// MaxMemBytes bounds the buffer bytes one execution request may
	// allocate (0 = unlimited).
	MaxMemBytes int64
	// ExecTimeout bounds one execution request's wall clock (0 = only
	// the caller context's own deadline applies). A cell's profiling run
	// is bounded the same way, under the context of the request that
	// needed it; an aborted one is not cached, so one client's
	// cancellation cannot poison the shared cell cache.
	ExecTimeout time.Duration
	// Tenant configures per-tenant kernel quotas and concurrency caps.
	Tenant TenantLimits
	// SharedTenants, when set, is the tenant quota table this engine
	// charges instead of a private one. A fleet router passes the same
	// table to every shard so per-tenant caps hold across the whole
	// fleet rather than per shard.
	SharedTenants *TenantTable
	// SharedCells, when set, is the cell cache this engine uses instead of
	// a private one, and its platform's model store with it. A fleet
	// router passes the same cache to every shard of every platform so
	// each (program, size) is profiled and held once per fleet and each
	// platform serves one model; New refuses an engine whose platform the
	// cache has no slots for, whose MaxSteps, MaxMemBytes, ExecTimeout or
	// CacheLimit differ from those of the engines already sharing it, or
	// whose DB, ArtifactDir, Model family, SaveTrained or ObsLog differ
	// from those of the engines of its platform.
	SharedCells *CellCache

	// beforeAppend, when set (tests only), runs before each append the
	// observation flusher makes, which fails if it returns an error, so
	// tests can hold the durable append back, prove Execute never waits
	// on it, and make the log refuse records.
	beforeAppend func() error
	// afterKernel, when set (tests only), sees the arguments of every
	// kernel run the engine makes — a cell's profiling run and each
	// execution's — right after the run and before an execution's output
	// check, so tests can count runs and corrupt or inspect what the check
	// is about to read.
	afterKernel func(args []exec.Arg)
}

// ArtifactPath names the artifact file for (platform, leftOut) inside
// dir. Train-phase writers and the engine's loader agree through this
// function.
func ArtifactPath(dir, platform, leftOut string) string {
	if leftOut == "" {
		return filepath.Join(dir, platform+".json")
	}
	return filepath.Join(dir, platform+"-loo-"+leftOut+".json")
}

// Engine is a long-lived deployment engine for one platform. All methods
// are safe for concurrent use.
type Engine struct {
	fw   *core.Framework
	opts Options

	programs sched.Memo[string, *programEntry]
	// cells is the cell cache, private or shared (Options.SharedCells);
	// this engine's platform's label in each cell is labels[platSlot],
	// its classes classes[platSlot], its label flag labeled[platSlot], and
	// its models the cache's models[platSlot].
	cells    *CellCache
	platSlot int

	// space / spaceStrs mirror the framework's partition space, fixed at
	// construction: a label prices space, and answers name a class by
	// its spaceStrs entry.
	space     []partition.Partition
	spaceStrs []string

	stats engineCounters
	obs   recorder

	// kernels is the runtime-registered user-kernel table (kernels.go);
	// tenants holds per-tenant quota accounting (tenant.go).
	kernels kernelTable
	tenants *TenantTable
}

// programEntry is one registry slot: the benchmark definition plus the
// framework-compiled program.
type programEntry struct {
	bench *bench.Program
	prog  *core.Program
}

// Model provenance values reported in Prediction.ModelSource.
const (
	// ModelFromArtifact: loaded from an artifact file in ArtifactDir.
	ModelFromArtifact = "artifact"
	// ModelTrained: trained on the fly from the database.
	ModelTrained = "trained"
	// ModelTrainedSaved: trained on the fly and persisted to ArtifactDir.
	ModelTrainedSaved = "trained+saved"
	// ModelTrainedSaveFailed: trained on the fly; persisting it failed
	// (the model still serves — persistence is an optimization).
	ModelTrainedSaveFailed = "trained+save-failed"
	// ModelRetrained: promoted by the adaptive retrainer after passing
	// the no-regression gate.
	ModelRetrained = "retrained"
)

// engineCounters are the engine's monotonically increasing stats.
type engineCounters struct {
	predictRequests atomic.Uint64
	executeRequests atomic.Uint64
	executions      atomic.Uint64
	verifiedByMatch atomic.Uint64
	verifiedByRef   atomic.Uint64
	compiles        atomic.Uint64
	featureComputes atomic.Uint64
	trainings       atomic.Uint64
	artifactLoads   atomic.Uint64
	saveFailures    atomic.Uint64
	clamped         atomic.Uint64
	modelEvals      atomic.Uint64

	observations    atomic.Uint64
	observedLabeled atomic.Uint64
	observeFails    atomic.Uint64
	observeDropped  atomic.Uint64

	kernelsRegistered   atomic.Uint64
	quotaRejections     atomic.Uint64
	budgetAbortSteps    atomic.Uint64
	budgetAbortMem      atomic.Uint64
	budgetAbortDeadline atomic.Uint64

	vecDivergences atomic.Uint64
	vecReconverges atomic.Uint64
	vecLinearized  atomic.Uint64
	vecScalarBails atomic.Uint64

	makespanMismatches atomic.Uint64
}

// Stats is a point-in-time snapshot of the engine's counters and cache
// sizes. Warmness is visible here: a warm engine serves repeat requests
// without Compiles, FeatureComputes, Trainings or ArtifactLoads moving.
// (Compiles counts fills of this engine's program registry; a built-in's
// kernel is compiled once per process, by whichever engine asks first.
// Likewise FeatureComputes counts the cells this engine profiled: in a
// shared cell cache, whichever engine touches a cell first; and
// Trainings and ArtifactLoads the models it trained or loaded for its
// platform's store. CachedModels and Rollbacks are the platform's, the
// same on every engine sharing its store, as is RetrainStatus.)
type Stats struct {
	Platform        string `json:"platform"`
	PredictRequests uint64 `json:"predictRequests"`
	ExecuteRequests uint64 `json:"executeRequests"`
	Executions      uint64 `json:"executions"`
	// VerifiedByMatch and VerifiedByReference split Executions by what
	// checked the outputs: a bit-for-bit match with the cell's stored,
	// reference-checked outputs, or the program's Go reference itself
	// (each cell's first execution, and any that did not match).
	VerifiedByMatch     uint64 `json:"verifiedByMatch"`
	VerifiedByReference uint64 `json:"verifiedByReference"`
	Compiles            uint64 `json:"compiles"`
	FeatureComputes     uint64 `json:"featureComputes"`
	Trainings           uint64 `json:"trainings"`
	ArtifactLoads       uint64 `json:"artifactLoads"`
	ArtifactSaveFails   uint64 `json:"artifactSaveFailures"`
	ClampedPredictions  uint64 `json:"clampedPredictions"`
	// ModelEvaluations counts the model runs this engine made: one per
	// (cell, model version) its platform's engines had not classified
	// yet. A warm request runs no model, so repeat traffic leaves it flat
	// while PredictRequests and ClampedPredictions count every request.
	ModelEvaluations uint64 `json:"modelEvaluations"`
	CachedPrograms   int    `json:"cachedPrograms"`
	CachedModels     int    `json:"cachedModels"`

	// Adaptive-loop counters (all zero when no observation log is
	// configured). Observations counts executions whose counts the
	// background flusher has durably appended, ObservationsPending those
	// counted but not yet flushed, and ObservationsDropped those whose
	// counts Close's final flush could not write: a flush the log refuses
	// keeps its counts for the next one, so nothing else is dropped.
	// ObservationsLabeled counts the label records this engine appended,
	// one per cell it executed first on its platform. ObserveFailures
	// counts appends the log refused.
	Observations        uint64 `json:"observations"`
	ObservationsLabeled uint64 `json:"observationsLabeled"`
	ObservationsPending uint64 `json:"observationsPending"`
	ObservationsDropped uint64 `json:"observationsDropped"`
	ObserveFailures     uint64 `json:"observeFailures"`
	Rollbacks           uint64 `json:"rollbacks"`

	// Untrusted-kernel serving counters. ProgramsEvicted counts compiled
	// programs the LRU cap removed (idle tenant kernels recompile from
	// source on next use); the budget-abort counters split deterministic
	// resource aborts by which budget ran out.
	KernelsRegistered    uint64 `json:"kernelsRegistered"`
	ProgramsEvicted      uint64 `json:"programsEvicted"`
	QuotaRejections      uint64 `json:"quotaRejections"`
	BudgetAbortsSteps    uint64 `json:"budgetAbortsSteps"`
	BudgetAbortsMemory   uint64 `json:"budgetAbortsMemory"`
	BudgetAbortsDeadline uint64 `json:"budgetAbortsDeadline"`

	// Vector-tier execution-path counters, accumulated across every
	// execution's profile: group splits at varying branches, how many of
	// those re-formed at the join point and finished vectorized, the lane
	// disagreements at linear branches that ran their sides in place
	// without a split, and how many groups degraded to per-item scalar
	// completion.
	VecDivergences uint64 `json:"vecDivergences"`
	VecReconverges uint64 `json:"vecReconverges"`
	VecLinearized  uint64 `json:"vecLinearized"`
	VecScalarBails uint64 `json:"vecScalarBails"`

	// MakespanMismatches counts measured executions whose profile
	// differed from the cell's, or whose makespan or per-device times
	// differed from the cell's label and prices; each was answered as
	// measured. Zero on a healthy server: anything else means a kernel's
	// counts depend on more than its inputs.
	MakespanMismatches uint64 `json:"makespanMismatches"`
}

// New builds an engine for the platform named in opts.
func New(opts Options) (*Engine, error) {
	plat, err := device.ByName(opts.Platform)
	if err != nil {
		return nil, err
	}
	fw, err := core.New(plat)
	if err != nil {
		return nil, err
	}
	if opts.Model == nil {
		opts.Model = harness.DefaultModel()
	}
	if opts.OracleSampleEvery != 0 && opts.OracleSampleEvery != 1 {
		return nil, fmt.Errorf("engine: OracleSampleEvery %d: every executed cell is labeled once, so only 0 and 1 are accepted", opts.OracleSampleEvery)
	}
	e := &Engine{fw: fw, opts: opts}
	e.tenants = opts.SharedTenants
	if e.tenants == nil {
		e.tenants = NewTenantTable()
	}
	e.space = partition.SharedSpace(plat.NumDevices(), partition.DefaultSteps)
	e.spaceStrs = make([]string, len(e.space))
	for i, p := range e.space {
		e.spaceStrs[i] = p.String()
	}
	e.cells = opts.SharedCells
	if e.cells == nil {
		if e.cells, err = NewCellCache(opts.Platform); err != nil {
			return nil, err
		}
	}
	if opts.CacheLimit > 0 {
		e.programs.SetLimit(opts.CacheLimit)
	}
	if opts.ObsLog != nil {
		e.obs.start(e)
	}
	// Joined last: the platform's retrains flush the engine from then on.
	if e.platSlot, err = e.cells.join(e); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// Framework exposes the underlying core framework (runtime access for
// callers that need pricing or reference strategies).
func (e *Engine) Framework() *core.Framework { return e.fw }

// Cells returns the engine's cell cache: Options.SharedCells, or the
// engine's private one.
func (e *Engine) Cells() *CellCache { return e.cells }

// models returns the engine's platform's model store.
func (e *Engine) models() *modelStore { return &e.cells.models[e.platSlot] }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Platform:            e.opts.Platform,
		PredictRequests:     e.stats.predictRequests.Load(),
		ExecuteRequests:     e.stats.executeRequests.Load(),
		Executions:          e.stats.executions.Load(),
		VerifiedByMatch:     e.stats.verifiedByMatch.Load(),
		VerifiedByReference: e.stats.verifiedByRef.Load(),
		Compiles:            e.stats.compiles.Load(),
		FeatureComputes:     e.stats.featureComputes.Load(),
		Trainings:           e.stats.trainings.Load(),
		ArtifactLoads:       e.stats.artifactLoads.Load(),
		ArtifactSaveFails:   e.stats.saveFailures.Load(),
		ClampedPredictions:  e.stats.clamped.Load(),
		ModelEvaluations:    e.stats.modelEvals.Load(),
		CachedPrograms:      e.programs.Len(),
		CachedModels:        e.models().regs.Len(),

		Observations:        e.stats.observations.Load(),
		ObservationsLabeled: e.stats.observedLabeled.Load(),
		ObservationsPending: e.pendingObservations(),
		ObservationsDropped: e.stats.observeDropped.Load(),
		ObserveFailures:     e.stats.observeFails.Load(),
		Rollbacks:           e.models().rollbacks.Load(),

		KernelsRegistered:    e.stats.kernelsRegistered.Load(),
		ProgramsEvicted:      e.programs.Evictions(),
		QuotaRejections:      e.stats.quotaRejections.Load(),
		BudgetAbortsSteps:    e.stats.budgetAbortSteps.Load(),
		BudgetAbortsMemory:   e.stats.budgetAbortMem.Load(),
		BudgetAbortsDeadline: e.stats.budgetAbortDeadline.Load(),

		VecDivergences: e.stats.vecDivergences.Load(),
		VecReconverges: e.stats.vecReconverges.Load(),
		VecLinearized:  e.stats.vecLinearized.Load(),
		VecScalarBails: e.stats.vecScalarBails.Load(),

		MakespanMismatches: e.stats.makespanMismatches.Load(),
	}
}

// Request identifies one prediction or execution request.
type Request struct {
	// Program is the benchmark program name.
	Program string `json:"program"`
	// SizeIdx is the problem size index; negative selects the program's
	// default size.
	SizeIdx int `json:"size"`
	// LeaveOut holds the requested program out of the training set
	// (evaluation mode: the paper's unseen-program scenario). The full
	// model is used otherwise, and for a program the training database
	// has no rows for, which it holds out already.
	LeaveOut bool `json:"leaveOut,omitempty"`
	// Tenant is the requesting tenant (set by the serving layer from the
	// X-Tenant header, never from the request body; empty means
	// DefaultTenant). Concurrency caps are charged against it.
	Tenant string `json:"-"`
}

// Prediction is the engine's answer to one predict request.
type Prediction struct {
	Program   string `json:"program"`
	Platform  string `json:"platform"`
	SizeIdx   int    `json:"size"`
	SizeLabel string `json:"sizeLabel"`
	SizeN     int    `json:"sizeN"`

	// Class is the served class; RawClass is the model's unclamped
	// output. Clamped marks a prediction outside the partition space,
	// served as class 0.
	Class    int  `json:"class"`
	RawClass int  `json:"rawClass"`
	Clamped  bool `json:"clamped,omitempty"`

	// Partition is the served partitioning (CPU/GPU1/GPU2 percentages).
	Partition string `json:"partition"`
	Model     string `json:"model"`
	// ModelSource is the model's provenance: ModelFromArtifact,
	// ModelTrained, ModelTrainedSaved, ModelTrainedSaveFailed or
	// ModelRetrained.
	ModelSource string `json:"modelSource"`
	// ModelVersion is the registry version that served this prediction;
	// it moves when the retrainer promotes a gated candidate (or an
	// operator rolls back) without a restart.
	ModelVersion int    `json:"modelVersion"`
	LeftOut      string `json:"leftOut,omitempty"`

	// PredictedTime is the simulated makespan under the served
	// partitioning: the served class's entry in the cell's label. The
	// remaining reference times come from the training database when
	// available.
	PredictedTime   float64 `json:"predictedTime"`
	OracleTime      float64 `json:"oracleTime,omitempty"`
	OraclePartition string  `json:"oraclePartition,omitempty"`
	CPUOnlyTime     float64 `json:"cpuOnlyTime,omitempty"`
	GPUOnlyTime     float64 `json:"gpuOnlyTime,omitempty"`
}

// Execution is the engine's answer to one execute request: the
// prediction plus the result of actually running the kernel partitioned
// across the platform's devices.
type Execution struct {
	Prediction
	// Makespan is the simulated wall time of the partitioned execution,
	// priced on the cell's profile: PredictedTime. The first execution
	// after the cell's profiling run measures it and checks profile and
	// price bit for bit, later ones answer from the label. A measurement
	// that disagrees is what is answered (Stats.MakespanMismatches).
	Makespan float64 `json:"makespan"`
	// Verified reports whether the outputs matched the program's Go
	// reference implementation.
	Verified    bool   `json:"verified"`
	VerifyError string `json:"verifyError,omitempty"`
}

// program resolves the registry entry for name, compiling the kernel on
// first use. The name is validated against the benchmark registry (or
// the user-kernel table for qualified "tenant/name" names) BEFORE
// touching the memo: requests for unknown programs (attacker-chosen
// input on the serving path) must not grow the cache.
func (e *Engine) program(name string) (*programEntry, error) {
	bp, err := e.benchFor(name)
	if err != nil {
		return nil, err
	}
	return e.programs.Do(name, func() (*programEntry, error) {
		cp, err := compileProgram(bp)
		if err != nil {
			return nil, err
		}
		e.stats.compiles.Add(1)
		return &programEntry{bench: bp, prog: cp}, nil
	})
}

// compileProgram builds a registry entry's compiled program. An uploaded
// kernel is compiled from its stored source each time the registry needs
// it, so eviction really frees it. A built-in's kernel is the one its
// bench.Program compiles once per process: the shards of a fleet then run
// one *exec.Compiled per program, not one each, and what is parked on it
// between launches (exec's idle group runners) exists once.
func compileProgram(bp *bench.Program) (*core.Program, error) {
	if isUserKernel(bp.Name) {
		return core.CompileSource(bp.Name, bp.Source, bp.Kernel)
	}
	f, err := bp.Front()
	if err != nil {
		return nil, err
	}
	return &core.Program{Name: bp.Name, Front: f}, nil
}

// cellFor resolves the cell for (program, size), profiling one execution
// on first use and keeping what pricing reads of it (see cell). A cold
// cell reached through /predict (first == nil) is profiled on a throwaway
// instance and keeps no template. One reached through /execute is built
// in one pass, and its profiling run is that request's execution: the
// fresh instance becomes the cell's template, the request's buffers are
// acquired from it, the run on them gives the profile and the features,
// and the Go reference checks (and the template stores) the outputs
// before the cell is published. first then records the run; a request
// coalesced on the cold key finds it untouched and executes normally.
//
// The profiling run is budgeted with the engine's default limits — user
// kernels must not wedge the profiler any more than the executor — plus
// the caller's context, so a disconnected client aborts even a first-touch
// profile of a hostile kernel; the instance is charged once. Failures are
// not cached (DoRetryable): a budget abort or cancellation on first
// profile must not poison the (program, size) key forever — coalesced
// waiters, on any engine sharing the cache, see the error once and the
// next request re-profiles.
func (e *Engine) cellFor(ctx context.Context, pe *programEntry, sizeIdx int, first *ran) (*cell, error) {
	return e.cells.memo.DoRetryable(cellKey{bench: pe.bench, sizeIdx: sizeIdx}, func() (*cell, error) {
		inst, err := pe.bench.Instance(sizeIdx)
		if err != nil {
			return nil, err
		}
		args := inst.Args
		var tmpl *template
		if first != nil {
			tmpl = newTemplate(pe.prog.Compiled.Fn, pe.bench, sizeIdx, inst)
			args = tmpl.acquire()
			defer tmpl.release(args)
		}
		bytes := instanceBytes(inst)
		budget, cancel := e.budgetFor(ctx)
		defer cancel()
		if err := budget.ChargeMem(bytes); err != nil {
			return nil, err
		}
		spec := core.LaunchSpec{Args: args, ND: inst.ND, Iterations: pe.bench.Iterations, Budget: budget}
		fv, prof, err := e.fw.Features(pe.prog, spec)
		if err != nil {
			return nil, err
		}
		e.afterKernel(args)
		e.stats.featureComputes.Add(1)
		// Pricing reads the arguments' sizes, not their contents: unless it
		// became the template, the instance goes to the collector when this
		// returns.
		shape := e.launch(pe, inst)
		shape.Args, shape.ArgBytes = nil, backend.ArgBytes(nil, inst.Args)
		fe := &cell{fv: fv, prof: prof, launch: shape, bytes: bytes,
			labels:  make([]atomic.Pointer[runtime.Label], len(e.cells.platforms)),
			classes: make([][2]atomic.Pointer[servedClass], len(e.cells.platforms)),
			labeled: make([]atomic.Bool, len(e.cells.platforms))}
		if first != nil {
			_, first.verifyErr = tmpl.check(args)
			first.prof = prof
			fe.tmpl.Store(tmpl)
		}
		return fe, nil
	})
}

// afterKernel hands a kernel run's arguments to Options.afterKernel.
func (e *Engine) afterKernel(args []exec.Arg) {
	if e.opts.afterKernel != nil {
		e.opts.afterKernel(args)
	}
}

// budgetFor builds one kernel run's budget: engine default limits,
// ExecTimeout, and the caller context's own deadline and cancellation
// (client disconnects abort the kernel promptly).
func (e *Engine) budgetFor(ctx context.Context) (*exec.Budget, context.CancelFunc) {
	cancel := context.CancelFunc(func() {})
	if e.opts.ExecTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, e.opts.ExecTimeout)
	}
	return exec.NewBudget(ctx, e.opts.MaxSteps, e.opts.MaxMemBytes), cancel
}

// noteBudgetAbort classifies a request error into the per-kind budget
// abort counters; non-budget errors are ignored.
func (e *Engine) noteBudgetAbort(err error) {
	var be *exec.BudgetError
	if !errors.As(err, &be) {
		return
	}
	switch be.Kind {
	case exec.BudgetSteps:
		e.stats.budgetAbortSteps.Add(1)
	case exec.BudgetMemory:
		e.stats.budgetAbortMem.Add(1)
	case exec.BudgetDeadline:
		e.stats.budgetAbortDeadline.Add(1)
	}
}

// launch assembles a runtime launch from the registry's compiled program
// and a benchmark instance.
func (e *Engine) launch(pe *programEntry, inst *bench.Instance) runtime.Launch {
	return runtime.Launch{
		Kernel:     pe.prog.Compiled,
		Plan:       pe.prog.Plan,
		Args:       inst.Args,
		ND:         inst.ND,
		Iterations: pe.bench.Iterations,
	}
}

// registryFor resolves (creating on first use) the platform's version
// registry for leftOut (empty = the full model): one memo hit on a warm
// engine. Its first version comes from an artifact file in ArtifactDir
// when one exists, otherwise from training on the database. Concurrent
// requests for the same cold model share one resolution. Failures are
// not cached (sched.Memo.DoRetryable): a transient load error — corrupt
// file mid-deploy, fd exhaustion — must not poison the key until restart.
func (e *Engine) registryFor(leftOut string) (*registry, error) {
	return e.models().regs.DoRetryable(leftOut, func() (*registry, error) {
		if e.opts.ArtifactDir != "" {
			path := ArtifactPath(e.opts.ArtifactDir, e.opts.Platform, leftOut)
			if _, err := os.Stat(path); err == nil {
				a, err := ml.LoadArtifact(path)
				if err != nil {
					return nil, err
				}
				if err := e.checkArtifact(a, leftOut); err != nil {
					return nil, fmt.Errorf("engine: artifact %s: %w", path, err)
				}
				e.stats.artifactLoads.Add(1)
				return newRegistry(a, ModelFromArtifact), nil
			}
		}
		art, source, err := e.train(leftOut)
		if err != nil {
			return nil, err
		}
		return newRegistry(art, source), nil
	})
}

// ModelVersions lists the platform's registry for leftOut: the serving
// version number plus every version's lineage, oldest first.
func (e *Engine) ModelVersions(leftOut string) (current int, versions []ModelVersion, err error) {
	reg, err := e.registryFor(leftOut)
	if err != nil {
		return 0, nil, err
	}
	current, versions = reg.list()
	return current, versions, nil
}

// Rollback makes an earlier version of the platform's full model current
// again, on every engine serving it. In-flight requests see the swap
// atomically, exactly like a promotion.
// With SaveTrained, the rolled-back version is also re-persisted to
// ArtifactDir — promotions overwrite the on-disk artifact, so without
// this a restart would silently reinstate the model the operator just
// rejected.
func (e *Engine) Rollback(version int) (ModelVersion, error) {
	reg, err := e.registryFor("")
	if err != nil {
		return ModelVersion{}, err
	}
	v, err := reg.rollback(version)
	if err != nil {
		return ModelVersion{}, err
	}
	e.models().rollbacks.Add(1)
	if e.opts.SaveTrained && e.opts.ArtifactDir != "" {
		path := ArtifactPath(e.opts.ArtifactDir, e.opts.Platform, "")
		if err := ml.SaveArtifact(path, v.art); err != nil {
			e.stats.saveFailures.Add(1)
		}
	}
	return *v, nil
}

// checkArtifact validates a loaded artifact against the engine's
// platform, partition space (via the framework's shared check) and the
// requested left-out program.
func (e *Engine) checkArtifact(a *ml.Artifact, leftOut string) error {
	if err := e.fw.CheckArtifact(a); err != nil {
		return err
	}
	if a.LeftOut != leftOut {
		return fmt.Errorf("trained with left-out program %q, request needs %q", a.LeftOut, leftOut)
	}
	return nil
}

// train is the fallback path: fit a fresh model from the database.
func (e *Engine) train(leftOut string) (*ml.Artifact, string, error) {
	if e.opts.DB == nil {
		return nil, "", fmt.Errorf("engine: no artifact for (%s, leftOut=%q) and no training database", e.opts.Platform, leftOut)
	}
	data := e.opts.DB.Dataset(e.opts.Platform, nil)
	if data.Len() == 0 {
		return nil, "", fmt.Errorf("engine: database has no records for %q", e.opts.Platform)
	}
	if leftOut != "" {
		trainIdx, _ := data.SplitByGroup(leftOut)
		if len(trainIdx) == 0 {
			return nil, "", fmt.Errorf("engine: leaving out %q empties the training set", leftOut)
		}
		data = data.Subset(trainIdx)
	}
	a, err := ml.TrainArtifact(data, e.opts.Model)
	if err != nil {
		return nil, "", err
	}
	a.Platform = e.opts.Platform
	a.LeftOut = leftOut
	a.Space = append([]string{}, e.opts.DB.Space...)
	// The database's class space must be the framework's partition
	// space, or the trained model's class indices would map to the
	// wrong partitions — same check the artifact load path runs.
	if err := e.fw.CheckArtifact(a); err != nil {
		return nil, "", fmt.Errorf("engine: training database: %w", err)
	}
	e.stats.trainings.Add(1)
	source := ModelTrained
	if e.opts.SaveTrained && e.opts.ArtifactDir != "" {
		// Persistence is an optimization: a failed write (disk full,
		// read-only dir) must not discard the trained model or poison
		// this model's cache entry with the error.
		path := ArtifactPath(e.opts.ArtifactDir, e.opts.Platform, leftOut)
		if err := ml.SaveArtifact(path, a); err != nil {
			e.stats.saveFailures.Add(1)
			source = ModelTrainedSaveFailed
		} else {
			source = ModelTrainedSaved
		}
	}
	return a, source, nil
}

// Predict answers one prediction request. Repeat requests on a warm
// engine touch only caches: no retraining, no recompilation, no
// re-profiling.
func (e *Engine) Predict(req Request) (*Prediction, error) {
	p := new(Prediction)
	if err := e.PredictInto(req, p); err != nil {
		return nil, err
	}
	return p, nil
}

// PredictInto is Predict into a caller-owned struct: the serving hot
// path. A warm call runs no model and prices nothing: the class comes from
// one of the cell's class slots, computed once per (cell, platform, model
// version) and answered only while that version serves (a promotion or
// rollback makes the next call run the new model once), and the time from
// the cell's label. It performs zero heap allocations, so callers that
// pool their Prediction structs serve requests without touching the
// garbage collector at all. On error *p is left in an unspecified state.
func (e *Engine) PredictInto(req Request, p *Prediction) error {
	e.stats.predictRequests.Add(1)
	if _, _, err := e.predictInto(context.Background(), req, p, nil); err != nil {
		e.noteBudgetAbort(err)
		return err
	}
	return nil
}

// predictInto fills *p and returns the cache entries the prediction was
// made from, which an execution goes on to run. An execution passes first:
// if the cell is cold, its profiling run is the execution (cellFor).
func (e *Engine) predictInto(ctx context.Context, req Request, p *Prediction, first *ran) (*programEntry, *cell, error) {
	pe, err := e.program(req.Program)
	if err != nil {
		return nil, nil, err
	}
	sz := req.SizeIdx
	if sz < 0 {
		sz = pe.bench.DefaultSize
	}
	if sz >= len(pe.bench.Sizes) {
		return nil, nil, fmt.Errorf("engine: %s has %d sizes, requested index %d", req.Program, len(pe.bench.Sizes), sz)
	}
	fe, err := e.cellFor(ctx, pe, sz, first)
	if err != nil {
		return nil, nil, err
	}
	leftOut := ""
	if req.LeaveOut {
		leftOut = req.Program
		if e.opts.DB != nil {
			if _, ok := e.opts.DB.MaxSizeIdx(e.opts.Platform, req.Program); !ok {
				leftOut = ""
			}
		}
	}
	reg, err := e.registryFor(leftOut)
	if err != nil {
		return nil, nil, err
	}
	ver := reg.current()
	sc, err := e.class(fe, ver, leftOut != "")
	if err != nil {
		return nil, nil, err
	}
	served := sc.raw
	if sc.clamped {
		served = 0
		e.stats.clamped.Add(1)
	}
	// The partition string comes from the precomputed space table and the
	// makespan from the cell's label: neither renders nor allocates per
	// request.
	lb, err := e.label(fe)
	if err != nil {
		return nil, nil, err
	}

	*p = Prediction{
		Program:       req.Program,
		Platform:      e.opts.Platform,
		SizeIdx:       sz,
		SizeLabel:     pe.bench.Sizes[sz].Label,
		SizeN:         pe.bench.Sizes[sz].N,
		Class:         served,
		RawClass:      sc.raw,
		Clamped:       sc.clamped,
		Partition:     e.spaceStrs[served],
		Model:         ver.ModelName,
		ModelSource:   ver.Source,
		ModelVersion:  ver.ModelVersion,
		LeftOut:       leftOut,
		PredictedTime: lb.Times[served],
	}
	if e.opts.DB != nil {
		if rec := e.opts.DB.Find(e.opts.Platform, req.Program, sz); rec != nil {
			p.OracleTime = rec.OracleTime
			p.OraclePartition = rec.BestPartition
			p.CPUOnlyTime = rec.CPUOnlyTime
			p.GPUOnlyTime = rec.GPUOnlyTime
		}
	}
	return pe, fe, nil
}

// Execute answers one execution request: predict, then run the kernel
// partitioned across the platform's devices on the cell's deterministic
// instance, and check the outputs. The cell's first execution builds that
// instance once, as the cell's template; a warm call rebuilds none of it:
// the read-only inputs are the template's, the buffers the kernel may
// write are recycled and restored, and the outputs are compared
// bit for bit with the cell's first outputs the Go reference accepted —
// Verified is true only on a full match or when the reference itself,
// which every mismatch falls back to, accepts them. Nor does a warm call
// measure what the prediction already priced: its makespan is the
// prediction's, read from the cell's label, and its kernel keeps count
// totals only. The kernel runs once per request: on a cold cell the
// cell's profiling run is the execution (cellFor), and the first execution
// after the profiling run is the self-check that profiles the run again
// and prices it as measured (see run).
//
// When an observation log is configured, every execution is recorded —
// the closed loop's data collection — without touching the log: the
// request bumps one atomic counter, and the first execution of a cell on
// the platform queues the cell's oracle label; a background flusher
// labels and appends off the response path (obsflush.go). A recording
// failure never fails a request (ObserveFailures counts it).
//
// The run is bounded by the engine's resource budgets plus ctx's
// deadline and cancellation: a hostile or runaway kernel aborts
// deterministically with a *exec.BudgetError, and a disconnected client
// frees its workers promptly. Per-tenant concurrency caps reject
// over-cap requests fast with a *QuotaError.
func (e *Engine) Execute(ctx context.Context, req Request) (*Execution, error) {
	e.stats.executeRequests.Add(1)
	release, err := e.acquireTenantSlot(req.Tenant)
	if err != nil {
		e.stats.quotaRejections.Add(1)
		return nil, err
	}
	defer release()
	out, err := e.execute(ctx, req)
	if err != nil {
		e.noteBudgetAbort(err)
		return nil, err
	}
	return out, nil
}

func (e *Engine) execute(ctx context.Context, req Request) (*Execution, error) {
	var pred Prediction
	var r ran
	pe, fe, err := e.predictInto(ctx, req, &pred, &r)
	if err != nil {
		return nil, err
	}
	r.makespan = pred.PredictedTime
	if r.prof == nil { // the cell was not built by this request's run
		if err := e.run(ctx, pe, fe, pred.SizeIdx, pred.Class, &r); err != nil {
			return nil, err
		}
	}
	e.stats.executions.Add(1)
	e.stats.vecDivergences.Add(uint64(r.prof.VecDivergences))
	e.stats.vecReconverges.Add(uint64(r.prof.VecReconverges))
	e.stats.vecLinearized.Add(uint64(r.prof.VecLinearized))
	e.stats.vecScalarBails.Add(uint64(r.prof.VecScalarBails))
	out := &Execution{Prediction: pred, Makespan: r.makespan, Verified: true}
	if r.verifyErr != nil {
		out.Verified = false
		out.VerifyError = r.verifyErr.Error()
	}
	if r.byMatch {
		e.stats.verifiedByMatch.Add(1)
	} else {
		e.stats.verifiedByRef.Add(1)
	}
	if e.opts.ObsLog != nil {
		e.record(pe, fe, out, r.deviceTimes)
	}
	return out, nil
}

// ran is what one execution's kernel run leaves for its answer: the
// makespan answered, the per-device busy times measured when they are not
// the label's (nil otherwise), the run's profile, and what checked its
// outputs.
type ran struct {
	makespan    float64
	deviceTimes []float64
	prof        *exec.Profile
	byMatch     bool
	verifyErr   error
}

// run executes one request on an existing cell, on buffers acquired from
// the cell's template, under class's partitioning, and checks the
// outputs; r.makespan holds the class's entry in the cell's label. Once
// the cell is checked, the kernel runs with count totals only
// (Runtime.Run) and r keeps that makespan. Until then every execution is
// the self-check: it profiles and prices the run (Runtime.Execute), and a
// measurement whose profile equals the cell's bucket for bucket, whose
// makespan is the label's and whose device times are those Price gives on
// the cell's profile, all bit for bit, checks the cell. One that does not
// is answered as measured and counted in MakespanMismatches, and the cell
// stays unchecked, so its next execution measures again.
func (e *Engine) run(ctx context.Context, pe *programEntry, fe *cell, sizeIdx, class int, r *ran) error {
	budget, cancel := e.budgetFor(ctx)
	defer cancel()
	if err := budget.ChargeMem(fe.bytes); err != nil {
		return err
	}
	tmpl, err := fe.template(pe, sizeIdx)
	if err != nil {
		return err
	}
	l := fe.launch
	l.Args = tmpl.acquire()
	defer tmpl.release(l.Args)
	l.Budget = budget
	part := e.fw.ClassPartition(class)
	if fe.checked.Load() {
		if r.prof, err = e.fw.Runtime.Run(l, part); err != nil {
			return err
		}
	} else {
		res, err := e.fw.Runtime.Execute(l, part)
		if err != nil {
			return err
		}
		_, priced, err := e.fw.Runtime.Price(fe.launch, fe.prof, part)
		if err != nil {
			return err
		}
		r.prof = res.Profile
		deviceTimes := deviceTotals(res.Breakdowns)
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if same(res.Makespan, r.makespan) && slices.EqualFunc(deviceTimes, deviceTotals(priced), same) &&
			slices.Equal(res.Profile.Buckets, fe.prof.Buckets) {
			fe.checked.Store(true)
		} else {
			e.stats.makespanMismatches.Add(1)
			r.makespan, r.deviceTimes = res.Makespan, deviceTimes
		}
	}
	e.afterKernel(l.Args)
	r.byMatch, r.verifyErr = tmpl.check(l.Args)
	return nil
}

// class returns the class ver gives the cell on the engine's platform;
// leaveOut says ver is a version of the model that leaves the cell's
// program out. The class is a pure function of the artifact and the
// cell's features, so the platform's engines run the model once per
// (cell, model version) and keep the answer in the cell's slot for that
// registry; another version — a promotion, a rollback — misses, runs the
// model and replaces the entry. A hit is one atomic load.
func (e *Engine) class(fe *cell, ver *ModelVersion, leaveOut bool) (*servedClass, error) {
	k := 0
	if leaveOut {
		k = 1
	}
	slot := &fe.classes[e.platSlot][k]
	if sc := slot.Load(); sc != nil && sc.ver == ver {
		return sc, nil
	}
	art := ver.art
	// The artifact's recorded feature schema must be exactly the schema
	// this binary extracts — same names, same order — or the scaler's
	// per-position statistics would apply to the wrong features.
	if len(art.FeatureNames) > 0 {
		if len(art.FeatureNames) != len(fe.fv.Names) {
			return nil, fmt.Errorf("engine: artifact expects %d features, program yields %d", len(art.FeatureNames), len(fe.fv.Names))
		}
		for i, name := range art.FeatureNames {
			if name != fe.fv.Names[i] {
				return nil, fmt.Errorf("engine: artifact feature %d is %q, this binary extracts %q", i, name, fe.fv.Names[i])
			}
		}
	}
	raw := art.Predict(fe.fv.Values)
	e.stats.modelEvals.Add(1)
	sc := &servedClass{ver: ver, raw: raw, clamped: raw < 0 || raw >= e.fw.NumClasses()}
	slot.Store(sc)
	return sc, nil
}

// label returns the cell's oracle label on the engine's platform, pricing
// every class on the cell's profile the first time one of the platform's
// engines touches the cell.
func (e *Engine) label(fe *cell) (*runtime.Label, error) {
	slot := &fe.labels[e.platSlot]
	if lb := slot.Load(); lb != nil {
		return lb, nil
	}
	lb, err := e.fw.Runtime.Label(fe.launch, fe.prof, e.space)
	if err != nil {
		return nil, err
	}
	slot.CompareAndSwap(nil, &lb)
	return slot.Load(), nil
}

// deviceTotals lists each device's busy time.
func deviceTotals(bds []sim.Breakdown) []float64 {
	out := make([]float64, len(bds))
	for d, b := range bds {
		out[d] = b.Total
	}
	return out
}
