package engine

import (
	"context"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/features"
	"repro/internal/harness"
)

// TestCellCacheLimitsMustMatch: engines share a cell cache only under the
// limits its first engine brought — a cell profiled under one engine's
// budget must not answer another's differently budgeted request — and only
// for platforms the cache has price slots for. The first engine's
// CacheLimit caps the cache once, however many engines share it.
func TestCellCacheLimitsMustMatch(t *testing.T) {
	for _, platforms := range [][]string{nil, {"mc9"}, {"mc1", "mc1"}} {
		if _, err := NewCellCache(platforms...); err == nil {
			t.Errorf("NewCellCache(%q) accepted", platforms)
		}
	}
	if _, err := New(Options{Platform: "mc2", SharedCells: mustCellCache(t, "mc1")}); err == nil ||
		!strings.Contains(err.Error(), "not \"mc2\"") {
		t.Errorf("an mc2 engine joined an mc1 cell cache: %v", err)
	}

	cells := mustCellCache(t, "mc1", "mc2")
	base := Options{Platform: "mc1", DB: testDB(t), Model: harness.FastModel(), SharedCells: cells,
		MaxSteps: 1 << 30, MaxMemBytes: 1 << 28, ExecTimeout: time.Minute, CacheLimit: 1}
	first, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	for field, mutate := range map[string]func(*Options){
		"MaxSteps":    func(o *Options) { o.MaxSteps++ },
		"MaxMemBytes": func(o *Options) { o.MaxMemBytes = 0 },
		"ExecTimeout": func(o *Options) { o.ExecTimeout = time.Second },
		"CacheLimit":  func(o *Options) { o.CacheLimit = 0 },
	} {
		for _, platform := range []string{"mc1", "mc2"} {
			o := base
			o.Platform = platform
			mutate(&o)
			if _, err := New(o); err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("%s engine with another %s: %v, want an error naming it", platform, field, err)
			}
		}
	}
	// The engines of one platform share its models too, so they must
	// agree on what the models are loaded, trained and observed from.
	log := openLog(t, t.TempDir())
	for field, mutate := range map[string]func(*Options){
		"DB":          func(o *Options) { o.DB = nil },
		"ArtifactDir": func(o *Options) { o.ArtifactDir = t.TempDir() },
		"Model":       func(o *Options) { o.Model = harness.DefaultModel() },
		"SaveTrained": func(o *Options) { o.SaveTrained = true },
		"ObsLog":      func(o *Options) { o.ObsLog = log },
	} {
		o := base
		mutate(&o)
		if _, err := New(o); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("mc1 engine with another %s: %v, want an error naming it", field, err)
		}
	}
	o := base
	o.Platform = "mc2"
	second, err := New(o)
	if err != nil {
		t.Fatalf("mc2 engine with the first engine's limits: %v", err)
	}
	for _, x := range []struct {
		eng  *Engine
		size int
	}{{first, 0}, {second, 1}} {
		if _, err := x.eng.Predict(Request{Program: "vecadd", SizeIdx: x.size}); err != nil {
			t.Fatal(err)
		}
	}
	if n := cells.Len(); n != 1 {
		t.Fatalf("%d cells after two engines with CacheLimit 1 touched two, want 1", n)
	}
}

// squareSrc has scaleSrc's signature and another body.
const squareSrc = `kernel void scale(global float* a, global float* out, int n) {
	int i = get_global_id(0);
	out[i] = a[i] * a[i] + a[i];
}`

// TestUploadCellsAreNotShared: one tenant-qualified name registered with
// different sources on an mc1 and an mc2 engine sharing a cell cache.
// Each registration is its own program, so each engine profiles its own
// cell: the features and the outputs are each engine's own source's.
func TestUploadCellsAreNotShared(t *testing.T) {
	cells := mustCellCache(t, "mc1", "mc2")
	outs := map[string]*exec.Buffer{}
	var engs []*Engine
	for _, platform := range []string{"mc1", "mc2"} {
		src := map[string]string{"mc1": scaleSrc, "mc2": squareSrc}[platform]
		eng, err := New(Options{Platform: platform, DB: testDB(t), Model: harness.FastModel(), SharedCells: cells,
			afterKernel: func(args []exec.Arg) { outs[platform] = args[1].Buf.Clone() }})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RegisterKernel("", KernelSpec{Name: "scale", Source: src}); err != nil {
			t.Fatal(err)
		}
		engs = append(engs, eng)
	}
	req := Request{Program: "public/scale", SizeIdx: 0}
	var fes []*cell
	for _, eng := range engs {
		if x := mustExecute(t, eng, req); !x.Verified {
			t.Fatalf("%s: verified:false: %s", eng.opts.Platform, x.VerifyError)
		}
		if n := eng.Stats().FeatureComputes; n != 1 {
			t.Fatalf("%s profiled %d cells for its upload, want 1", eng.opts.Platform, n)
		}
		pe, err := eng.program(req.Program)
		if err != nil {
			t.Fatal(err)
		}
		fe, err := eng.cellFor(context.Background(), pe, req.SizeIdx, nil)
		if err != nil {
			t.Fatal(err)
		}
		fes = append(fes, fe)
	}
	if cells.Len() != 2 || fes[0] == fes[1] {
		t.Fatalf("%d cells for two uploads, shared %v", cells.Len(), fes[0] == fes[1])
	}
	if slices.Equal(fes[0].fv.Values, fes[1].fv.Values) {
		t.Fatal("two sources under one name have the same features")
	}
	if outs["mc1"].SameBits(outs["mc2"]) {
		t.Fatal("two sources under one name computed the same outputs")
	}
	inst, err := engs[0].kernels.m[req.Program].bench.Instance(req.SizeIdx)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range inst.Args[0].Buf.F {
		scale, square := float64(a)*2, float64(a)*float64(a)+float64(a)
		if mc1, mc2 := float64(outs["mc1"].F[i]), float64(outs["mc2"].F[i]); mc1 != scale || math.Abs(mc2-square) > 1e-6*square {
			t.Fatalf("out[%d] = %g on mc1 and %g on mc2, want each source's %g and %g", i, mc1, mc2, scale, square)
		}
	}
}

// TestPredictOnlyCellsHoldNoInstance: predicting every built-in at sizes
// 0-3 builds 92 cells and not one template, and what those cells retain
// is what pricing reads — features, profiles and argument sizes — not the
// instances (about 53 MB of buffers) their profiling runs executed on.
func TestPredictOnlyCellsHoldNoInstance(t *testing.T) {
	eng, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	// Compile every program and train the model up front, so that the
	// heap grows by the cells alone.
	for _, bp := range bench.All() {
		if _, err := eng.program(bp.Name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.registry(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, bp := range bench.All() {
		for sz := 0; sz <= 3 && sz < len(bp.Sizes); sz++ {
			if _, err := eng.Predict(Request{Program: bp.Name, SizeIdx: sz}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n, tmpls := eng.cells.Len(), eng.cells.Templates(); n != 92 || tmpls != 0 {
		t.Fatalf("%d cells with %d templates after predicting 23 programs at sizes 0-3, want 92 with 0", n, tmpls)
	}
	for _, bp := range bench.All() {
		pe, err := eng.program(bp.Name)
		if err != nil {
			t.Fatal(err)
		}
		fe, err := eng.cellFor(context.Background(), pe, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fe.launch.Args != nil {
			t.Fatalf("%s: the cell's pricing launch carries its arguments", bp.Name)
		}
	}
	if raceEnabled {
		return // the race detector's shadow memory swamps the bound
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("92 predicted cells retain %.1f MB", float64(grew)/(1<<20))
	if grew >= 16<<20 {
		t.Fatal("want under 16 MB")
	}
	runtime.KeepAlive(eng)
}

// TestShapePricingMatchesInstance: a cell prices from its arguments'
// sizes alone, and that is bit for bit what pricing a launch built on a
// real instance gives, for every class on both platforms; the cell's
// features are those of the real instance too.
func TestShapePricingMatchesInstance(t *testing.T) {
	maxSize := 3
	if testing.Short() {
		maxSize = 1
	}
	cells := mustCellCache(t, "mc1", "mc2")
	for _, platform := range []string{"mc1", "mc2"} {
		eng, err := New(Options{Platform: platform, DB: testDB(t), Model: harness.FastModel(), SharedCells: cells})
		if err != nil {
			t.Fatal(err)
		}
		for _, bp := range bench.All() {
			st, err := bp.Static()
			if err != nil {
				t.Fatal(err)
			}
			pe, err := eng.program(bp.Name)
			if err != nil {
				t.Fatal(err)
			}
			for sz := 0; sz <= maxSize && sz < len(bp.Sizes); sz++ {
				fe, err := eng.cellFor(context.Background(), pe, sz, nil)
				if err != nil {
					t.Fatal(err)
				}
				l, inst, err := bp.Build(sz)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.label(fe)
				if err != nil {
					t.Fatal(err)
				}
				want, err := eng.fw.Runtime.Label(l, fe.prof, eng.space)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Times) != 66 || !sameBits(got.Times, want.Times) {
					t.Fatalf("%s %s size %d: label priced from sizes %v, from the instance %v", platform, bp.Name, sz, got.Times, want.Times)
				}
				fv := features.Combined(st, features.RuntimeInput{Profile: fe.prof, Plan: l.Plan, Args: inst.Args, Iterations: l.Iterations})
				if !slices.Equal(fe.fv.Names, fv.Names) || !sameBits(fe.fv.Values, fv.Values) {
					t.Fatalf("%s %s size %d: cell features %v, the instance's %v", platform, bp.Name, sz, fe.fv.Values, fv.Values)
				}
			}
		}
	}
}

// TestEvictedPredictOnlyCellReprofiles: a cell evicted before it ever
// executed is profiled again on its next request, and its first execution
// then builds its template and verifies.
func TestEvictedPredictOnlyCellReprofiles(t *testing.T) {
	eng, _ := tappedEngine(t, "mc2", 1)
	for _, sz := range []int{0, 1} {
		if _, err := eng.Predict(Request{Program: "vecadd", SizeIdx: sz}); err != nil {
			t.Fatal(err)
		}
	}
	if x := mustExecute(t, eng, Request{Program: "vecadd", SizeIdx: 0}); !x.Verified {
		t.Fatalf("verified:false: %s", x.VerifyError)
	}
	if st := eng.Stats(); st.FeatureComputes != 3 || eng.cells.Len() != 1 || eng.cells.Templates() != 1 {
		t.Fatalf("%d feature computes, %d cells, %d templates; want 3, 1, 1", st.FeatureComputes, eng.cells.Len(), eng.cells.Templates())
	}
}
