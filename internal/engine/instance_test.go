package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/minicl"
)

// kernelTap is an Options.afterKernel that hands each execution's
// arguments to whatever the test installed last.
type kernelTap struct {
	fn atomic.Pointer[func(args []exec.Arg)]
}

func (k *kernelTap) hook(args []exec.Arg) {
	if fn := k.fn.Load(); fn != nil {
		(*fn)(args)
	}
}

func (k *kernelTap) set(fn func(args []exec.Arg)) {
	if fn == nil {
		k.fn.Store(nil)
		return
	}
	k.fn.Store(&fn)
}

// tappedEngine builds a test engine whose executions pass through a tap.
func tappedEngine(t testing.TB, platform string, limit int) (*Engine, *kernelTap) {
	t.Helper()
	tap := &kernelTap{}
	eng, err := New(Options{Platform: platform, DB: testDB(t), Model: harness.FastModel(),
		CacheLimit: limit, afterKernel: tap.hook})
	if err != nil {
		t.Fatal(err)
	}
	return eng, tap
}

// cloneBufs deep-copies the global buffers of args (nil for other
// arguments), so a test can keep them past the request that owns them.
func cloneBufs(args []exec.Arg) []*exec.Buffer {
	out := make([]*exec.Buffer, len(args))
	for i, a := range args {
		if a.Buf != nil {
			out[i] = a.Buf.Clone()
		}
	}
	return out
}

func mustExecute(t testing.TB, eng *Engine, req Request) *Execution {
	t.Helper()
	x, err := eng.Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("execute %s size %d: %v", req.Program, req.SizeIdx, err)
	}
	return x
}

// TestWarmExecutionMatchesFreshInstance is the reuse contract on the whole
// suite: on both platforms and at sizes 0-3, what a warm execution leaves
// in every global buffer — the ones it was handed from the free list and
// the const ones it shares with the template — is bit for bit what the
// same partitioned run leaves in a fresh Instance(), and a warm execution
// is answered by the stored outputs.
func TestWarmExecutionMatchesFreshInstance(t *testing.T) {
	maxSize := 3
	if testing.Short() {
		maxSize = 1
	}
	for _, platform := range []string{"mc1", "mc2"} {
		for _, bp := range bench.All() {
			t.Run(platform+"/"+bp.Name, func(t *testing.T) {
				t.Parallel()
				eng, tap := tappedEngine(t, platform, 0)
				var got []*exec.Buffer
				tap.set(func(args []exec.Arg) { got = cloneBufs(args) })
				for sz := 0; sz <= maxSize && sz < len(bp.Sizes); sz++ {
					req := Request{Program: bp.Name, SizeIdx: sz}
					first := mustExecute(t, eng, req)
					warm := mustExecute(t, eng, req)
					if !first.Verified || !warm.Verified {
						t.Fatalf("size %d: verified %v then %v: %s%s", sz, first.Verified, warm.Verified, first.VerifyError, warm.VerifyError)
					}
					if *warm != *first {
						t.Fatalf("size %d: warm response %+v differs from the first %+v", sz, warm, first)
					}

					inst, err := bp.Instance(sz)
					if err != nil {
						t.Fatal(err)
					}
					pe, err := eng.program(bp.Name)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := eng.fw.Runtime.Execute(eng.launch(pe, inst), eng.fw.ClassPartition(warm.Class)); err != nil {
						t.Fatal(err)
					}
					for i, a := range inst.Args {
						if a.Buf != nil && !a.Buf.SameBits(got[i]) {
							t.Fatalf("size %d: argument %d of a warm execution differs from a fresh instance's", sz, i)
						}
					}
				}
				st := eng.Stats()
				if n := uint64(min(maxSize+1, len(bp.Sizes))); st.VerifiedByReference != n || st.VerifiedByMatch != n {
					t.Fatalf("verified by reference %d and by match %d, want %d each", st.VerifiedByReference, st.VerifiedByMatch, n)
				}
			})
		}
	}
}

// TestSharedInputsSurviveConcurrentExecutions hammers one cell from many
// goroutines: every request must see the template's own const buffers
// (shared, not copied), buffers of its own for everything else, and after
// all of them the const buffers still hold what a fresh Instance() holds.
func TestSharedInputsSurviveConcurrentExecutions(t *testing.T) {
	for _, prog := range []string{"saxpy", "spmv", "histogram"} {
		t.Run(prog, func(t *testing.T) {
			eng, tap := tappedEngine(t, "mc2", 0)
			req := Request{Program: prog, SizeIdx: 1}
			mustExecute(t, eng, req)
			pe, err := eng.program(prog)
			if err != nil {
				t.Fatal(err)
			}
			fe, err := eng.cellFor(context.Background(), pe, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			tmpl := fe.tmpl.Load()
			if tmpl == nil {
				t.Fatal("the executed cell holds no template")
			}
			own := tmpl.args
			private := map[int]bool{}
			for _, arg := range tmpl.private {
				private[arg] = true
			}
			var inFlight sync.Map // private buffers of executions between kernel and check
			tap.set(func(args []exec.Arg) {
				for i, a := range args {
					switch {
					case a.Buf == nil:
					case private[i] && a.Buf == own[i].Buf:
						t.Errorf("argument %d: a request was handed the template's own output buffer", i)
					case private[i]:
						if _, busy := inFlight.LoadOrStore(a.Buf, true); busy {
							t.Errorf("argument %d: two requests in flight share one private buffer", i)
						}
						defer inFlight.Delete(a.Buf)
					case a.Buf != own[i].Buf:
						t.Errorf("argument %d: a const buffer was copied, not shared", i)
					}
				}
				runtime.Gosched()
			})
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 8; i++ {
						x, err := eng.Execute(context.Background(), req)
						if err != nil {
							t.Error(err)
							return
						}
						if !x.Verified {
							t.Errorf("verified:false: %s", x.VerifyError)
						}
					}
				}()
			}
			wg.Wait()
			fresh, err := pe.bench.Instance(1)
			if err != nil {
				t.Fatal(err)
			}
			shared := 0
			for i, a := range fresh.Args {
				if a.Buf == nil || private[i] {
					continue
				}
				shared++
				if !a.Buf.SameBits(own[i].Buf) {
					t.Errorf("argument %d: the shared const buffer no longer holds a fresh instance's contents", i)
				}
			}
			if shared == 0 {
				t.Fatalf("%s shares no buffer: pick a program with const parameters", prog)
			}
			if st := eng.Stats(); st.VerifiedByMatch != 32 || st.VerifiedByReference != 1 {
				t.Errorf("verified by match %d and by reference %d, want 32 and 1", st.VerifiedByMatch, st.VerifiedByReference)
			}
		})
	}
}

// bumpSrc updates its only buffer in place and has no const parameter at
// all: every execution must start from the same pristine contents.
const bumpSrc = `kernel void bump(global float* y, int n) {
	int i = get_global_id(0);
	y[i] = y[i] + 1.0;
}`

func TestInPlaceKernelRestoredEveryExecution(t *testing.T) {
	eng, tap := tappedEngine(t, "mc2", 0)
	if _, err := eng.RegisterKernel("", KernelSpec{Name: "bump", Source: bumpSrc}); err != nil {
		t.Fatal(err)
	}
	var got []*exec.Buffer
	tap.set(func(args []exec.Arg) { got = cloneBufs(args) })
	req := Request{Program: "public/bump", SizeIdx: 0}
	var first *exec.Buffer
	for i := 1; i <= 10; i++ {
		mustExecute(t, eng, req)
		if i == 1 {
			first = got[0]
			continue
		}
		if !got[0].SameBits(first) {
			t.Fatalf("execution %d left other contents in y than the first", i)
		}
	}
	inst, err := eng.kernels.m["public/bump"].bench.Instance(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range inst.Args[0].Buf.F {
		if first.F[i] != v+1 {
			t.Fatalf("y[%d] = %g after one execution, want %g", i, first.F[i], v+1)
		}
	}
}

// TestEvictionReleasesTemplate: the template the cell's first execution
// built lives in the cell and nowhere else, so evicting the cell (a
// 1-entry cache and another cell) leaves the instance, its snapshots and
// stored outputs to the garbage collector.
func TestEvictionReleasesTemplate(t *testing.T) {
	eng, _ := tappedEngine(t, "mc2", 1)
	if _, err := eng.RegisterKernel("", KernelSpec{Name: "bump", Source: bumpSrc}); err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	func() {
		mustExecute(t, eng, Request{Program: "public/bump", SizeIdx: 0})
		mustExecute(t, eng, Request{Program: "public/bump", SizeIdx: 0})
		pe, err := eng.program("public/bump")
		if err != nil {
			t.Fatal(err)
		}
		fe, err := eng.cellFor(context.Background(), pe, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		tmpl := fe.tmpl.Load()
		if tmpl == nil || !tmpl.stored.Load() || tmpl.pristine[0] == nil {
			t.Fatal("the cell holds no template, stored outputs or snapshot to release")
		}
		runtime.SetFinalizer(tmpl, func(*template) { close(collected) })
	}()
	mustExecute(t, eng, Request{Program: "vecadd", SizeIdx: 0})
	if n := eng.cells.Len(); n != 1 {
		t.Fatalf("%d cached cells with CacheLimit 1", n)
	}
	eng.FlushObservations()
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the evicted cell's template is still reachable")
		}
	}
}

// TestAbortedExecutionLeaksNothing: a request that runs out of budget
// returns its private buffers to the free list, and whatever a buffer on
// that list holds — here every listed buffer is overwritten with junk —
// the next request computes the outputs the first one did.
func TestAbortedExecutionLeaksNothing(t *testing.T) {
	eng, tap := tappedEngine(t, "mc2", 0)
	if _, err := eng.RegisterKernel("", KernelSpec{Name: "bump", Source: bumpSrc}); err != nil {
		t.Fatal(err)
	}
	var got []*exec.Buffer
	tap.set(func(args []exec.Arg) { got = cloneBufs(args) })
	req := Request{Program: "public/bump", SizeIdx: 1}
	mustExecute(t, eng, req)
	want := got[0]

	// listed counts the free list's buffers and overwrites them with junk.
	listed := func() (n int) {
		requestBuffers.mu.Lock()
		defer requestBuffers.mu.Unlock()
		for _, class := range requestBuffers.classes[kindIndex(minicl.Float)] {
			for _, b := range class {
				n++
				junk := b.F[:cap(b.F)]
				for i := range junk {
					junk[i] = float32(math.NaN())
				}
			}
		}
		return n
	}
	before := listed()
	if before == 0 {
		t.Fatal("the first execution listed no buffer")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.Execute(ctx, req)
	var be *exec.BudgetError
	if !errors.As(err, &be) || be.Kind != exec.BudgetDeadline {
		t.Fatalf("canceled execution: %v, want a deadline budget abort", err)
	}
	if after := listed(); after != before {
		t.Fatalf("%d listed buffers after the abort, %d before: the request kept or duplicated one", after, before)
	}
	x := mustExecute(t, eng, req)
	if !got[0].SameBits(want) {
		t.Fatal("the execution after the abort computed other outputs: it saw a previous request's buffer contents")
	}
	if st := eng.Stats(); !x.Verified || st.VerifiedByMatch != 1 {
		t.Fatalf("after the abort: verified %v, by match %d, want true and 1", x.Verified, st.VerifiedByMatch)
	}
}

// TestCorruptedOutputFallsBackToReference flips one output element
// between the kernel and the check. With or without stored outputs the
// response must be verified:false carrying the Go reference's own message
// (the fallback ran), and outputs the reference refused never become the
// stored ones.
func TestCorruptedOutputFallsBackToReference(t *testing.T) {
	eng, tap := tappedEngine(t, "mc2", 0)
	req := Request{Program: "vecadd", SizeIdx: 0}
	flip := func(args []exec.Arg) { args[2].Buf.F[7] += 1 }
	wantStats := func(step string, match, ref uint64) {
		t.Helper()
		if st := eng.Stats(); st.VerifiedByMatch != match || st.VerifiedByReference != ref || st.Executions != match+ref {
			t.Fatalf("%s: by match %d, by reference %d, executions %d; want %d, %d, %d",
				step, st.VerifiedByMatch, st.VerifiedByReference, st.Executions, match, ref, match+ref)
		}
	}
	refused := func(step string) {
		t.Helper()
		tap.set(flip)
		x := mustExecute(t, eng, req)
		tap.set(nil)
		if x.Verified || !strings.HasPrefix(x.VerifyError, "c[7] = ") {
			t.Fatalf("%s: verified %v, error %q; want the reference's complaint about c[7]", step, x.Verified, x.VerifyError)
		}
	}
	accepted := func(step string) {
		t.Helper()
		if x := mustExecute(t, eng, req); !x.Verified {
			t.Fatalf("%s: verified:false: %s", step, x.VerifyError)
		}
	}

	refused("corrupted, nothing stored")
	wantStats("corrupted, nothing stored", 0, 1)
	accepted("clean, nothing stored") // must not match the refused outputs: there are none
	wantStats("clean, nothing stored", 0, 2)
	accepted("clean, stored")
	wantStats("clean, stored", 1, 2)
	refused("corrupted, stored")
	wantStats("corrupted, stored", 1, 3)
	accepted("clean after a refusal") // the stored outputs are still the good ones
	wantStats("clean after a refusal", 2, 3)
}

// TestOutputsCompareByBitPattern: the stored-output check is on bits, so
// a NaN output matches itself (== never would) and -0.0 does not match
// 0.0 (== would). The kernel is an upload, whose reference accepts
// anything: which path answered shows in the counters.
func TestOutputsCompareByBitPattern(t *testing.T) {
	const src = `kernel void odd(global const float* a, global float* nan, global float* negzero, int n) {
	int i = get_global_id(0);
	nan[i] = sqrt(0.0 - 1.0 - a[i]);
	negzero[i] = (0.0 - a[i]) * 0.0;
}`
	eng, tap := tappedEngine(t, "mc2", 0)
	if _, err := eng.RegisterKernel("", KernelSpec{Name: "odd", Source: src}); err != nil {
		t.Fatal(err)
	}
	req := Request{Program: "public/odd", SizeIdx: 0}
	tap.set(func(args []exec.Arg) {
		if v := args[1].Buf.F[3]; !math.IsNaN(float64(v)) {
			t.Errorf("nan[3] = %g, want NaN", v)
		}
		if v := args[2].Buf.F[3]; v != 0 || !math.Signbit(float64(v)) {
			t.Errorf("negzero[3] = %g (sign bit %v), want -0", v, math.Signbit(float64(v)))
		}
	})
	mustExecute(t, eng, req)
	mustExecute(t, eng, req)
	if st := eng.Stats(); st.VerifiedByMatch != 1 || st.VerifiedByReference != 1 {
		t.Fatalf("NaN outputs: by match %d, by reference %d, want 1 and 1", st.VerifiedByMatch, st.VerifiedByReference)
	}
	tap.set(func(args []exec.Arg) { args[2].Buf.F[3] = 0 }) // -0.0 -> +0.0: equal under ==
	mustExecute(t, eng, req)
	if st := eng.Stats(); st.VerifiedByMatch != 1 || st.VerifiedByReference != 2 {
		t.Fatalf("+0.0 for -0.0: by match %d, by reference %d, want 1 and 2", st.VerifiedByMatch, st.VerifiedByReference)
	}
}

// TestBufferListClasses pins the free list's arithmetic: a buffer comes
// back for any request its capacity covers within its class or the one
// below, never for a larger one, and a full class drops what it is given.
func TestBufferListClasses(t *testing.T) {
	var l bufferList
	b := l.get(minicl.Float, 1000)
	if b.Len() != 1000 || b.Kind != minicl.Float {
		t.Fatalf("new buffer: %d %v", b.Len(), b.Kind)
	}
	l.put(b)
	for _, c := range []struct {
		kind  minicl.BasicKind
		n     int
		reuse bool
	}{
		{minicl.Float, 1001, false}, {minicl.Int, 1000, false}, {minicl.Float, 255, false},
		{minicl.Float, 256, true}, {minicl.Float, 600, true}, {minicl.Float, 1000, true},
	} {
		got := l.get(c.kind, c.n)
		if got.Len() != c.n || got.Kind != c.kind {
			t.Fatalf("get(%v, %d) returned %d elements of %v", c.kind, c.n, got.Len(), got.Kind)
		}
		if (got == b) != c.reuse {
			t.Fatalf("get(%v, %d): reused the 1000-element float buffer: %v, want %v", c.kind, c.n, got == b, c.reuse)
		}
		if got == b {
			l.put(b)
		}
	}
	for i := 0; i < 2*maxPerClass; i++ {
		l.put(exec.NewIntBuffer(700))
	}
	if n := len(l.classes[kindIndex(minicl.Int)][9]); n != maxPerClass {
		t.Fatalf("class holds %d buffers, cap %d", n, maxPerClass)
	}
	if got := fmt.Sprint(l.get(minicl.Float, 0).Len(), l.get(minicl.Int, 0).Len()); got != "0 0" {
		t.Fatalf("empty buffers: %s", got)
	}
}

// TestColdExecuteRunsKernelOnce: a cell's first /execute runs the kernel
// once — the cell's profiling run is the execution — and leaves one
// feature compute, one reference check and the cell's template. The
// cell's profile and features are bit for bit those a cell first reached
// through /predict gets from its throwaway instance, whose first execution
// is then its second run. The next execution is the self-check, and it
// matches. On a 1-D launch and two 2-D ones.
func TestColdExecuteRunsKernelOnce(t *testing.T) {
	for _, prog := range []string{"vecadd", "matmul", "stencil2d"} {
		t.Run(prog, func(t *testing.T) {
			req := Request{Program: prog, SizeIdx: 1}
			var runs [2]atomic.Int64
			cold, tap := tappedEngine(t, "mc2", 0)
			tap.set(func([]exec.Arg) { runs[0].Add(1) })
			predicted, ptap := tappedEngine(t, "mc2", 0)
			ptap.set(func([]exec.Arg) { runs[1].Add(1) })

			x := mustExecute(t, cold, req)
			st := cold.Stats()
			if !x.Verified || runs[0].Load() != 1 || st.FeatureComputes != 1 || st.VerifiedByReference != 1 || cold.cells.Templates() != 1 {
				t.Fatalf("cold execute: verified %v, %d kernel runs, %d feature computes, %d verified by reference, %d templates; want true and 1 each",
					x.Verified, runs[0].Load(), st.FeatureComputes, st.VerifiedByReference, cold.cells.Templates())
			}
			if _, err := predicted.Predict(req); err != nil {
				t.Fatal(err)
			}
			if runs[1].Load() != 1 || predicted.cells.Templates() != 0 {
				t.Fatalf("predict: %d kernel runs, %d templates; want 1 and 0", runs[1].Load(), predicted.cells.Templates())
			}
			if y := mustExecute(t, predicted, req); y.Makespan != x.Makespan || y.Class != x.Class || runs[1].Load() != 2 {
				t.Fatalf("predict-first execute: makespan %v, class %d, %d kernel runs; want %v, %d and 2", y.Makespan, y.Class, runs[1].Load(), x.Makespan, x.Class)
			}

			var fes [2]*cell
			for i, eng := range []*Engine{cold, predicted} {
				pe, err := eng.program(prog)
				if err != nil {
					t.Fatal(err)
				}
				if fes[i], err = eng.cellFor(context.Background(), pe, req.SizeIdx, nil); err != nil {
					t.Fatal(err)
				}
			}
			a, b := fes[0].prof, fes[1].prof
			if a.Global0 != b.Global0 || !slices.Equal(a.Buckets, b.Buckets) || a.VecDivergences != b.VecDivergences ||
				a.VecReconverges != b.VecReconverges || a.VecLinearized != b.VecLinearized || a.VecScalarBails != b.VecScalarBails {
				t.Fatal("the cold execute's profile differs from the predict-first cell's")
			}
			if !slices.Equal(fes[0].fv.Names, fes[1].fv.Names) || !sameBits(fes[0].fv.Values, fes[1].fv.Values) || fes[0].bytes != fes[1].bytes {
				t.Fatalf("cold execute features %v (%d bytes), predict-first %v (%d bytes)", fes[0].fv.Values, fes[0].bytes, fes[1].fv.Values, fes[1].bytes)
			}

			mustExecute(t, cold, req)
			if st := cold.Stats(); runs[0].Load() != 2 || st.VerifiedByMatch != 1 || st.MakespanMismatches != 0 || !fes[0].checked.Load() {
				t.Fatalf("second execute: %d kernel runs, %d verified by match, %d mismatches, checked %v; want 2, 1, 0 and true",
					runs[0].Load(), st.VerifiedByMatch, st.MakespanMismatches, fes[0].checked.Load())
			}
		})
	}
}

// TestFailedColdExecuteIsNotCached: a cold /execute whose run aborts
// caches no cell and returns the buffer it acquired to the free list, and
// the next request builds the cell afresh.
func TestFailedColdExecuteIsNotCached(t *testing.T) {
	eng, _ := tappedEngine(t, "mc2", 0)
	if _, err := eng.RegisterKernel("", KernelSpec{Name: "bump", Source: bumpSrc}); err != nil {
		t.Fatal(err)
	}
	listed := func() (n int) {
		requestBuffers.mu.Lock()
		defer requestBuffers.mu.Unlock()
		for _, kind := range requestBuffers.classes {
			for _, class := range kind {
				n += len(class)
			}
		}
		return n
	}
	requestBuffers.mu.Lock()
	clear(requestBuffers.classes[kindIndex(minicl.Float)][:])
	clear(requestBuffers.classes[kindIndex(minicl.Int)][:])
	requestBuffers.mu.Unlock()

	req := Request{Program: "public/bump", SizeIdx: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.Execute(ctx, req)
	var be *exec.BudgetError
	if !errors.As(err, &be) || be.Kind != exec.BudgetDeadline {
		t.Fatalf("canceled cold execution: %v, want a deadline budget abort", err)
	}
	if st := eng.Stats(); eng.cells.Len() != 0 || st.FeatureComputes != 0 || st.Executions != 0 || listed() != 1 {
		t.Fatalf("after the abort: %d cells, %d feature computes, %d executions, %d listed buffers; want 0, 0, 0 and 1",
			eng.cells.Len(), st.FeatureComputes, st.Executions, listed())
	}
	x := mustExecute(t, eng, req)
	if st := eng.Stats(); !x.Verified || st.FeatureComputes != 1 || st.VerifiedByReference != 1 || eng.cells.Templates() != 1 || listed() != 1 {
		t.Fatalf("next execute: verified %v, %d feature computes, %d verified by reference, %d templates, %d listed buffers; want true, 1, 1, 1 and 1",
			x.Verified, st.FeatureComputes, st.VerifiedByReference, eng.cells.Templates(), listed())
	}
}

// TestConcurrentColdExecutesShareOneBuild: requests racing to execute one
// cold cell run the kernel once each. One of them builds the cell, and its
// run is the profiling run and the one reference check; the others wait
// for that build and then execute on the finished cell, each checked by
// match.
func TestConcurrentColdExecutesShareOneBuild(t *testing.T) {
	const n = 8
	var runs atomic.Int64
	eng, tap := tappedEngine(t, "mc1", 0)
	tap.set(func([]exec.Arg) { runs.Add(1) })
	req := Request{Program: "matmul", SizeIdx: 1}
	if _, err := eng.program(req.Program); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.registry(); err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			x, err := eng.Execute(context.Background(), req)
			if err != nil || !x.Verified {
				t.Errorf("execute: %v, %+v", err, x)
			}
		}()
	}
	close(start)
	wg.Wait()
	st := eng.Stats()
	if runs.Load() != n || st.FeatureComputes != 1 || st.VerifiedByReference != 1 || st.VerifiedByMatch != n-1 || st.MakespanMismatches != 0 {
		t.Fatalf("%d kernel runs, %d feature computes, %d verified by reference, %d by match, %d mismatches; want %d, 1, 1, %d and 0",
			runs.Load(), st.FeatureComputes, st.VerifiedByReference, st.VerifiedByMatch, st.MakespanMismatches, n, n-1)
	}
}
