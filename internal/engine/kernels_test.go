package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/runtime"
)

const scaleSrc = `kernel void scale(global float* a, global float* out, int n) {
	int i = get_global_id(0);
	out[i] = a[i] * 2.0;
}`

// spinSrc loops forever; only a resource budget stops it.
const spinSrc = `kernel void spin(global float* out) {
	int i = 0;
	while (i < 2) {
		i = i - 1;
	}
	out[get_global_id(0)] = 1.0;
}`

// TestRegisterKernelEndToEnd: an uploaded kernel predicts and executes
// like a built-in under its tenant-qualified name.
func TestRegisterKernelEndToEnd(t *testing.T) {
	eng, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	info, err := eng.RegisterKernel("", KernelSpec{Name: "scale", Source: scaleSrc})
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "public/scale" || info.Tenant != DefaultTenant || info.Kernel != "scale" {
		t.Fatalf("info: %+v", info)
	}
	if got := eng.Stats().KernelsRegistered; got != 1 {
		t.Fatalf("KernelsRegistered = %d, want 1", got)
	}

	p, err := eng.Predict(Request{Program: "public/scale", SizeIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.Partition == "" {
		t.Fatalf("prediction: %+v", p)
	}
	ex, err := eng.Execute(context.Background(), Request{Program: "public/scale", SizeIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Program != "public/scale" {
		t.Fatalf("execution: %+v", ex)
	}

	// Name collisions are ErrKernelExists; other tenants are disjoint.
	if _, err := eng.RegisterKernel("", KernelSpec{Name: "scale", Source: scaleSrc}); !errors.Is(err, ErrKernelExists) {
		t.Fatalf("duplicate register err = %v, want ErrKernelExists", err)
	}
	if _, err := eng.RegisterKernel("alice", KernelSpec{Name: "scale", Source: scaleSrc}); err != nil {
		t.Fatalf("other-tenant register: %v", err)
	}
	if got := len(eng.ListKernels()); got != 2 {
		t.Fatalf("ListKernels = %d entries, want 2", got)
	}
}

// TestUploadReferenceTimesAreItsLabel: an uploaded kernel has no training
// record, and its prediction carries its cell's label all the same: the
// oracle's time and partition and the CPU-only and GPU-only times equal,
// bit for bit, runtime.Label of a fresh profile of the kernel at that
// size.
func TestUploadReferenceTimesAreItsLabel(t *testing.T) {
	eng, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterKernel("", KernelSpec{Name: "scale", Source: scaleSrc}); err != nil {
		t.Fatal(err)
	}
	p, err := eng.Predict(Request{Program: "public/scale", SizeIdx: 1})
	if err != nil {
		t.Fatal(err)
	}
	bp, err := eng.benchFor("public/scale")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.CompileSource(bp.Name, bp.Source, bp.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bp.Instance(1)
	if err != nil {
		t.Fatal(err)
	}
	l := runtime.Launch{Kernel: prog.Compiled, Plan: prog.Plan, Args: inst.Args, ND: inst.ND, Iterations: bp.Iterations}
	prof, err := eng.fw.Runtime.Profile(l)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := eng.fw.Runtime.Label(l, prof, eng.space)
	if err != nil {
		t.Fatal(err)
	}
	got := []float64{p.PredictedTime, p.OracleTime, p.CPUOnlyTime, p.GPUOnlyTime}
	want := []float64{lb.Times[p.Class], lb.Times[lb.Best], lb.Times[lb.CPUOnly], lb.Times[lb.GPUOnly]}
	if !sameBits(got, want) || p.OraclePartition != eng.spaceStrs[lb.Best] || p.OracleTime <= 0 {
		t.Fatalf("predicted, oracle, CPU-only, GPU-only times %v, oracle partition %q; the label's %v and %q",
			got, p.OraclePartition, want, eng.spaceStrs[lb.Best])
	}
}

// TestExecuteCanceledMidKernel: a client hanging up mid-execution kills
// the kernel promptly with a deadline-kind budget abort — the hostile
// loop does not keep burning a worker.
func TestExecuteCanceledMidKernel(t *testing.T) {
	opts := fastOpts(t)
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterKernel("", KernelSpec{Name: "spin", Source: spinSrc}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := eng.Execute(ctx, Request{Program: "public/spin", SizeIdx: 0})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		var be *exec.BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("err = %v (%T), want *exec.BudgetError", err, err)
		}
		if be.Kind != exec.BudgetDeadline {
			t.Fatalf("Kind = %q, want deadline", be.Kind)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled execution did not abort within 30s")
	}
	if got := eng.Stats().BudgetAbortsDeadline; got != 1 {
		t.Fatalf("BudgetAbortsDeadline = %d, want 1", got)
	}
}

// TestTenantConcurrencyCap: in-flight executions over the cap fail fast
// with a QuotaError carrying a Retry-After hint; releasing a slot
// restores service.
func TestTenantConcurrencyCap(t *testing.T) {
	opts := fastOpts(t)
	opts.Tenant = TenantLimits{MaxConcurrent: 2}
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the cap without running anything: hold the slots directly.
	rel1, err := eng.acquireTenantSlot("bob")
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := eng.acquireTenantSlot("bob")
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Execute(context.Background(), Request{Program: "vecadd", SizeIdx: 0, Tenant: "bob"})
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over-cap err = %v, want *QuotaError", err)
	}
	if qe.Tenant != "bob" || qe.RetryAfter != time.Second {
		t.Fatalf("quota error: %+v", qe)
	}
	if got := eng.Stats().QuotaRejections; got != 1 {
		t.Fatalf("QuotaRejections = %d, want 1", got)
	}
	// Other tenants are unaffected; and bob recovers once a slot frees.
	if _, err := eng.Execute(context.Background(), Request{Program: "vecadd", SizeIdx: 0, Tenant: "carol"}); err != nil {
		t.Fatalf("other tenant: %v", err)
	}
	rel1()
	if _, err := eng.Execute(context.Background(), Request{Program: "vecadd", SizeIdx: 0, Tenant: "bob"}); err != nil {
		t.Fatalf("after release: %v", err)
	}
	rel2()
}

// TestTenantConcurrencyCapRace hammers one capped tenant from many
// goroutines: every request either succeeds or fails with a QuotaError,
// and the engine never deadlocks or loses a slot.
func TestTenantConcurrencyCapRace(t *testing.T) {
	opts := fastOpts(t)
	opts.Tenant = TenantLimits{MaxConcurrent: 2}
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the program once so concurrent requests exercise the cap, not
	// the compile memo.
	if _, err := eng.Execute(context.Background(), Request{Program: "vecadd", SizeIdx: 0}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = eng.Execute(context.Background(), Request{Program: "vecadd", SizeIdx: 0})
		}(i)
	}
	wg.Wait()
	ok := 0
	for _, err := range errs {
		if err == nil {
			ok++
			continue
		}
		var qe *QuotaError
		if !errors.As(err, &qe) {
			t.Fatalf("unexpected error kind: %v", err)
		}
	}
	if ok == 0 {
		t.Fatal("every request was rejected; cap should admit up to 2 at a time")
	}
	// All slots returned: a fresh request succeeds.
	if _, err := eng.Execute(context.Background(), Request{Program: "vecadd", SizeIdx: 0}); err != nil {
		t.Fatalf("post-race request: %v", err)
	}
}

// TestKernelEvictionRecompiles: with a tiny program cache, an idle user
// kernel's compiled form is evicted (visible in stats) and transparently
// recompiled from its stored source on next use.
func TestKernelEvictionRecompiles(t *testing.T) {
	opts := Options{Platform: "mc2", DB: testDB(t), Model: harness.FastModel(), CacheLimit: 1}
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterKernel("", KernelSpec{Name: "scale", Source: scaleSrc}); err != nil {
		t.Fatal(err)
	}
	// Touch built-ins to push the user kernel out of the 1-entry cache.
	for _, prog := range []string{"vecadd", "matmul"} {
		if _, err := eng.Predict(Request{Program: prog, SizeIdx: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Stats().ProgramsEvicted; got == 0 {
		t.Fatal("no evictions with CacheLimit=1 after three programs")
	}
	// The kernel still serves: the engine recompiles from stored source.
	ex, err := eng.Execute(context.Background(), Request{Program: "public/scale", SizeIdx: 0})
	if err != nil {
		t.Fatalf("post-eviction execute: %v", err)
	}
	if ex.Program != "public/scale" {
		t.Fatalf("execution: %+v", ex)
	}
}

// TestRegisterKernelRejectsUnlowerable: a kernel the VM cannot lower (a
// straight-line body over the 4095-op profile lane limit) is a compile
// error at registration, not an upload served on the closure reference.
func TestRegisterKernelRejectsUnlowerable(t *testing.T) {
	eng, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	src := "kernel void huge(global float* a, global float* out, int n) {\n" +
		"\tint i = get_global_id(0);\n\tfloat x = a[i];\n" +
		strings.Repeat("\tx = x * 1.5f + 0.25f;\n", 2100) +
		"\tout[i] = x;\n}"
	var ce *CompileError
	if _, err := eng.RegisterKernel("", KernelSpec{Name: "huge", Source: src}); !errors.As(err, &ce) {
		t.Fatalf("unlowerable kernel err = %v, want *CompileError", err)
	}
	if !strings.Contains(ce.Error(), "too large to profile") {
		t.Fatalf("compile error %q does not name the lane limit", ce)
	}
	if got := eng.ListKernels(); len(got) != 0 {
		t.Fatalf("rejected kernel was registered: %+v", got)
	}
}

// TestRegisterKernelValidation: bad specs are rejected with typed errors
// before any compile work.
func TestRegisterKernelValidation(t *testing.T) {
	eng, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterKernel("", KernelSpec{Name: "no/slash", Source: scaleSrc}); !errors.Is(err, ErrInvalidKernel) {
		t.Fatalf("bad name err = %v, want ErrInvalidKernel", err)
	}
	if _, err := eng.RegisterKernel("", KernelSpec{Name: "odd", Source: scaleSrc, BaseN: 100}); !errors.Is(err, ErrInvalidKernel) {
		t.Fatalf("bad base size err = %v, want ErrInvalidKernel", err)
	}
	var ce *CompileError
	if _, err := eng.RegisterKernel("", KernelSpec{Name: "broken", Source: "kernel void b() { x = ; }"}); !errors.As(err, &ce) {
		t.Fatalf("bad source err = %v, want *CompileError", err)
	}
	// Source-size quota.
	opts := fastOpts(t)
	opts.Tenant = TenantLimits{MaxSourceBytes: 10}
	small, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = small.RegisterKernel("", KernelSpec{Name: "scale", Source: scaleSrc})
	var qe *QuotaError
	if !errors.As(err, &qe) || !strings.Contains(qe.Reason, "source bytes") {
		t.Fatalf("source quota err = %v, want *QuotaError about source bytes", err)
	}
}

// TestRegisterKernelRefusesPathTenant: the tenant is half of an upload's
// qualified name. With ArtifactDir a/b, tenant "../../../escape" once let
// a /predict of its kernel train a model and write a/escape/k.json; a
// tenant outside the kernel-name charset is refused before anything
// compiles, trains or is written, and a predict of the name it would have
// had neither serves nor writes outside ArtifactDir.
func TestRegisterKernelRefusesPathTenant(t *testing.T) {
	root := t.TempDir()
	opts := fastOpts(t)
	opts.ArtifactDir, opts.SaveTrained = filepath.Join(root, "a", "b"), true
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"../../../escape", "a.b", "x/y", strings.Repeat("t", 65)} {
		if _, err := eng.RegisterKernel(tenant, KernelSpec{Name: "k", Source: scaleSrc}); !errors.Is(err, ErrInvalidKernel) {
			t.Errorf("tenant %q: err = %v, want ErrInvalidKernel", tenant, err)
		}
	}
	if _, err := eng.Predict(Request{Program: "../../../escape/k", SizeIdx: 0}); err == nil {
		t.Error("a refused upload serves")
	}
	if _, err := os.Stat(filepath.Join(root, "a", "escape")); !os.IsNotExist(err) {
		t.Errorf("an artifact was written outside ArtifactDir: %v", err)
	}
	if s := eng.Stats(); s.KernelsRegistered != 0 || s.Trainings != 0 {
		t.Errorf("stats after refused uploads: %+v", s)
	}
}
