package engine

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/features"
	"repro/internal/harness"
	"repro/internal/ml"
)

// testDB builds one small training database for the whole package: 3
// programs at 2 sizes on both platforms.
var (
	testDBOnce sync.Once
	testDBVal  *harness.DB
	testDBErr  error
)

func testDB(t testing.TB) *harness.DB {
	t.Helper()
	testDBOnce.Do(func() {
		testDBVal, testDBErr = harness.Generate(harness.GenOptions{
			Programs:   []string{"vecadd", "matmul", "blackscholes"},
			MaxSizeIdx: 1,
		})
	})
	if testDBErr != nil {
		t.Fatal(testDBErr)
	}
	return testDBVal
}

// fastOpts is the baseline engine configuration for tests: kNN fallback
// model, no artifact store.
func fastOpts(t testing.TB) Options {
	return Options{Platform: "mc2", DB: testDB(t), Model: harness.FastModel()}
}

func TestEngineWarmPredictNoRework(t *testing.T) {
	eng, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Program: "vecadd", SizeIdx: 1}
	first, err := eng.Predict(req)
	if err != nil {
		t.Fatal(err)
	}
	cold := eng.Stats()
	if cold.Compiles != 1 || cold.FeatureComputes != 1 || cold.Trainings != 1 || cold.ModelEvaluations != 1 {
		t.Fatalf("cold request: compiles=%d features=%d trainings=%d model evaluations=%d, want 1/1/1/1", cold.Compiles, cold.FeatureComputes, cold.Trainings, cold.ModelEvaluations)
	}

	// The acceptance criterion: a warm engine answers repeat requests
	// with zero retraining, zero recompilation, zero re-profiling and no
	// model run.
	for i := 0; i < 10; i++ {
		again, err := eng.Predict(req)
		if err != nil {
			t.Fatal(err)
		}
		if *again != *first {
			t.Fatalf("warm response drifted: %+v vs %+v", again, first)
		}
	}
	warm := eng.Stats()
	if warm.Compiles != cold.Compiles || warm.FeatureComputes != cold.FeatureComputes ||
		warm.Trainings != cold.Trainings || warm.ArtifactLoads != cold.ArtifactLoads || warm.ModelEvaluations != cold.ModelEvaluations {
		t.Fatalf("warm requests redid offline work: cold=%+v warm=%+v", cold, warm)
	}
	if warm.PredictRequests != 11 {
		t.Fatalf("predictRequests = %d, want 11", warm.PredictRequests)
	}
}

func TestEnginePredictMatchesDatabase(t *testing.T) {
	eng, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t)
	p, err := eng.Predict(Request{Program: "matmul", SizeIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	rec := db.Find("mc2", "matmul", 0)
	if rec == nil {
		t.Fatal("record missing")
	}
	// The live-priced makespan must equal the sweep's stored time for
	// the served class (same deterministic profile, same device models).
	if p.PredictedTime != rec.Times[p.Class] {
		t.Errorf("PredictedTime %g != stored time %g for class %d", p.PredictedTime, rec.Times[p.Class], p.Class)
	}
	if p.OracleTime != rec.OracleTime || p.CPUOnlyTime != rec.CPUOnlyTime || p.GPUOnlyTime != rec.GPUOnlyTime {
		t.Errorf("reference times drifted from record")
	}
	if p.Partition != db.Space[p.Class] {
		t.Errorf("partition %q does not match space class %d (%q)", p.Partition, p.Class, db.Space[p.Class])
	}
}

func TestEngineDefaultSize(t *testing.T) {
	eng, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.Predict(Request{Program: "vecadd", SizeIdx: -1})
	if err != nil {
		t.Fatal(err)
	}
	if p.SizeIdx < 0 || p.SizeLabel == "" {
		t.Fatalf("default size not resolved: %+v", p)
	}
}

func TestEngineLeaveOneOutDistinctModel(t *testing.T) {
	eng, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	full, err := eng.Predict(Request{Program: "vecadd", SizeIdx: 1})
	if err != nil {
		t.Fatal(err)
	}
	loo, err := eng.Predict(Request{Program: "vecadd", SizeIdx: 1, LeaveOut: true})
	if err != nil {
		t.Fatal(err)
	}
	if loo.LeftOut != "vecadd" || full.LeftOut != "" {
		t.Fatalf("leftOut bookkeeping: full=%q loo=%q", full.LeftOut, loo.LeftOut)
	}
	if s := eng.Stats(); s.Trainings != 2 || s.CachedModels != 2 {
		t.Fatalf("expected two distinct models (full + leave-one-out), stats=%+v", s)
	}
	// The leave-one-out model must have been fitted without the target
	// program's samples: verify through the artifact metadata.
	a, err := servingArtifact(eng, "vecadd")
	if err != nil {
		t.Fatal(err)
	}
	if a.LeftOut != "vecadd" {
		t.Fatalf("artifact leftOut = %q", a.LeftOut)
	}
	// saxpy has no rows in the database, so the full model holds it out
	// already and serves its leave-out requests: nothing more trains.
	other, err := eng.Predict(Request{Program: "saxpy", SizeIdx: 0, LeaveOut: true})
	if err != nil {
		t.Fatal(err)
	}
	if other.LeftOut != "" {
		t.Fatalf("leave-out of a program absent from the database served the %q model", other.LeftOut)
	}
	if s := eng.Stats(); s.Trainings != 2 || s.CachedModels != 2 {
		t.Fatalf("leave-out of a program absent from the database trained a model: stats=%+v", s)
	}
}

// TestEngineArtifactByteIdenticalPredictions pins the PR's acceptance
// criterion end to end: an engine serving from a loaded artifact file
// answers every (program, size) request with exactly the classes a
// freshly trained model produces.
func TestEngineArtifactByteIdenticalPredictions(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()

	// Train once, persist the artifact.
	fresh, err := New(Options{Platform: "mc2", DB: db, Model: harness.DefaultModel()})
	if err != nil {
		t.Fatal(err)
	}
	art, err := servingArtifact(fresh, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := ml.SaveArtifact(ArtifactPath(dir, "mc2", ""), art); err != nil {
		t.Fatal(err)
	}

	// A separate engine must serve from the artifact without training.
	warm, err := New(Options{Platform: "mc2", DB: db, Model: harness.DefaultModel(), ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range db.Programs() {
		for sz := 0; sz <= 1; sz++ {
			req := Request{Program: prog, SizeIdx: sz}
			a, err := fresh.Predict(req)
			if err != nil {
				t.Fatal(err)
			}
			b, err := warm.Predict(req)
			if err != nil {
				t.Fatal(err)
			}
			if a.Class != b.Class || a.RawClass != b.RawClass || a.Partition != b.Partition || a.PredictedTime != b.PredictedTime {
				t.Fatalf("%s/%d: fresh=%+v loaded=%+v", prog, sz, a, b)
			}
		}
	}
	s := warm.Stats()
	if s.Trainings != 0 || s.ArtifactLoads != 1 {
		t.Fatalf("artifact engine trained anyway: %+v", s)
	}
}

func TestEngineSaveTrainedWarmStart(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	first, err := New(Options{Platform: "mc2", DB: db, Model: harness.FastModel(), ArtifactDir: dir, SaveTrained: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Predict(Request{Program: "vecadd", SizeIdx: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ArtifactPath(dir, "mc2", "")); err != nil {
		t.Fatalf("trained artifact not persisted: %v", err)
	}

	// A new process (second engine) warm-starts from the file.
	second, err := New(Options{Platform: "mc2", DB: db, Model: harness.FastModel(), ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := second.Predict(Request{Program: "vecadd", SizeIdx: 0}); err != nil {
		t.Fatal(err)
	}
	if s := second.Stats(); s.Trainings != 0 || s.ArtifactLoads != 1 {
		t.Fatalf("second engine did not warm-start: %+v", s)
	}
}

func TestEngineConcurrentRequestsDeduplicate(t *testing.T) {
	eng, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	const clients = 16
	var wg sync.WaitGroup
	preds := make([]*Prediction, clients)
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			preds[c], errs[c] = eng.Predict(Request{Program: "blackscholes", SizeIdx: 1})
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatal(errs[c])
		}
		if *preds[c] != *preds[0] {
			t.Fatalf("client %d diverged: %+v vs %+v", c, preds[c], preds[0])
		}
	}
	s := eng.Stats()
	if s.Compiles != 1 || s.FeatureComputes != 1 || s.Trainings != 1 {
		t.Fatalf("concurrent identical requests did not share work: %+v", s)
	}
	if s.PredictRequests != clients {
		t.Fatalf("predictRequests = %d, want %d", s.PredictRequests, clients)
	}
}

func TestEngineExecuteVerifies(t *testing.T) {
	eng, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Execute(context.Background(), Request{Program: "vecadd", SizeIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("execution failed verification: %s", res.VerifyError)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan = %g", res.Makespan)
	}
	if res.Makespan != res.PredictedTime {
		t.Errorf("executed makespan %g != predicted %g (same partition, same profile)", res.Makespan, res.PredictedTime)
	}
	if s := eng.Stats(); s.Executions != 1 || s.ExecuteRequests != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestEngineHistogramLinearized runs histogram once and checks where its
// lane disagreements went. Its inner `if (v == b) c++` is a linear
// branch: the sides run in place instead of splitting the group, so
// every disagreement the split-only vector tier counted as a divergence
// (16 124 at size 0) is now either a divergence or a linearized one,
// and none is left to split.
func TestEngineHistogramLinearized(t *testing.T) {
	eng, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := eng.Execute(context.Background(), Request{Program: "histogram", SizeIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("execution failed verification: %s", res.VerifyError)
	}
	const splitOnly = 16124
	s := eng.Stats()
	if s.VecDivergences+s.VecLinearized != splitOnly || s.VecLinearized == 0 || s.VecScalarBails != 0 {
		t.Fatalf("divergences %d + linearized %d (%d scalar bails), want %d disagreements, linearized",
			s.VecDivergences, s.VecLinearized, s.VecScalarBails, splitOnly)
	}
}

func TestEngineClampedPredictionSurfaced(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	// Craft an artifact whose model always answers a class far outside
	// the 66-partition space.
	dim := len(features.StaticNames) + len(features.RuntimeNames)
	bad := &ml.Dataset{X: [][]float64{make([]float64, dim)}, Y: []int{500}}
	art, err := ml.TrainArtifact(bad, func() ml.Classifier { return ml.NewKNN(1) })
	if err != nil {
		t.Fatal(err)
	}
	art.Platform = "mc2"
	art.FeatureNames = nil // skip schema check; this artifact is a fault probe
	if err := ml.SaveArtifact(ArtifactPath(dir, "mc2", ""), art); err != nil {
		t.Fatal(err)
	}
	eng, err := New(Options{Platform: "mc2", DB: db, ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// The model runs once for the cell; the clamp is counted per request.
	for i := 0; i < 3; i++ {
		p, err := eng.Predict(Request{Program: "vecadd", SizeIdx: 0})
		if err != nil {
			t.Fatal(err)
		}
		if !p.Clamped || p.RawClass != 500 || p.Class != 0 {
			t.Fatalf("out-of-range prediction not surfaced: %+v", p)
		}
	}
	if s := eng.Stats(); s.ClampedPredictions != 3 || s.ModelEvaluations != 1 {
		t.Fatalf("clamped counter %d, model evaluations %d over 3 requests of one cell, want 3 and 1", s.ClampedPredictions, s.ModelEvaluations)
	}
}

func TestEngineErrors(t *testing.T) {
	if _, err := New(Options{Platform: "nope"}); err == nil {
		t.Error("unknown platform accepted")
	}
	eng, err := New(Options{Platform: "mc2"}) // no DB, no artifacts
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Predict(Request{Program: "vecadd", SizeIdx: 0}); err == nil {
		t.Error("predict without model source succeeded")
	}
	eng2, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Predict(Request{Program: "unknown-prog", SizeIdx: 0}); err == nil {
		t.Error("unknown program accepted")
	}
	if _, err := eng2.Predict(Request{Program: "vecadd", SizeIdx: 99}); err == nil {
		t.Error("out-of-range size accepted")
	}
}

// BenchmarkEnginePredictWarm measures the warm serving path: every
// request after the first touches only the caches.
func BenchmarkEnginePredictWarm(b *testing.B) {
	eng, err := New(fastOpts(b))
	if err != nil {
		b.Fatal(err)
	}
	req := Request{Program: "vecadd", SizeIdx: 1}
	if _, err := eng.Predict(req); err != nil {
		b.Fatal(err)
	}
	start := eng.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Predict(req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	end := eng.Stats()
	if end.Trainings != start.Trainings || end.Compiles != start.Compiles || end.FeatureComputes != start.FeatureComputes {
		b.Fatalf("warm benchmark redid offline work: %+v -> %+v", start, end)
	}
}

// BenchmarkEnginePredictInto measures the allocation-free serving hot
// path: a pooled Prediction struct filled in place, once per model family
// (knn, the tests' fast model, and mlp, the one cmd/serve serves by
// default). A warm call runs neither: the cell's class is the version's,
// kept in the cell. The CI alloc smoke fails the build if either reports
// nonzero allocs/op.
func BenchmarkEnginePredictInto(b *testing.B) {
	for _, family := range []struct {
		name  string
		model ml.NewModel
	}{{"knn", harness.FastModel()}, {"mlp", harness.DefaultModel()}} {
		b.Run(family.name, func(b *testing.B) {
			eng, err := New(Options{Platform: "mc2", DB: testDB(b), Model: family.model})
			if err != nil {
				b.Fatal(err)
			}
			req := Request{Program: "vecadd", SizeIdx: 1}
			var p Prediction
			if err := eng.PredictInto(req, &p); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.PredictInto(req, &p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnginePredictIntoParallel measures the same path under
// concurrent clients: the caches are lock-free on hits, the model is an
// atomic pointer load and the scratch pools are per-P, so throughput
// should scale with cores.
func BenchmarkEnginePredictIntoParallel(b *testing.B) {
	eng, err := New(fastOpts(b))
	if err != nil {
		b.Fatal(err)
	}
	req := Request{Program: "vecadd", SizeIdx: 1}
	var warm Prediction
	if err := eng.PredictInto(req, &warm); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var p Prediction
		for pb.Next() {
			if err := eng.PredictInto(req, &p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEnginePredictColdModel measures the train-on-the-fly fallback
// for comparison (how much work the artifact cache saves per request).
func BenchmarkEnginePredictColdModel(b *testing.B) {
	db := testDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := New(Options{Platform: "mc2", DB: db, Model: harness.FastModel()})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Predict(Request{Program: "vecadd", SizeIdx: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEngineUnknownProgramDoesNotGrowCaches(t *testing.T) {
	// The serving path takes attacker-chosen program names; failed
	// lookups must not leave permanent cache entries behind.
	eng, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := eng.Predict(Request{Program: fmt.Sprintf("bogus-%d", i)}); err == nil {
			t.Fatal("bogus program accepted")
		}
	}
	if s := eng.Stats(); s.CachedPrograms != 0 || eng.cells.Len() != 0 {
		t.Fatalf("failed lookups leaked cache entries: %d cells, %+v", eng.cells.Len(), s)
	}
}

func TestEngineRejectsSpaceMismatchedArtifact(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	eng, err := New(Options{Platform: "mc2", DB: db, Model: harness.FastModel()})
	if err != nil {
		t.Fatal(err)
	}
	art, err := servingArtifact(eng, "")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the class space: indices would map to wrong partitions.
	bad := *art
	bad.Space = append([]string{}, art.Space...)
	bad.Space[0] = "7/7/7"
	if err := ml.SaveArtifact(ArtifactPath(dir, "mc2", ""), &bad); err != nil {
		t.Fatal(err)
	}
	eng2, err := New(Options{Platform: "mc2", ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Predict(Request{Program: "vecadd", SizeIdx: 0}); err == nil {
		t.Fatal("space-mismatched artifact served predictions")
	}
}

func TestEngineSaveFailureStillServes(t *testing.T) {
	db := testDB(t)
	// ArtifactDir points at a path that cannot be a directory: the
	// persistence write fails, but the freshly trained model must still
	// serve (and keep serving) rather than poisoning the cache.
	file := ArtifactPath(t.TempDir(), "x", "") // a plain file path
	if err := os.WriteFile(file, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := New(Options{Platform: "mc2", DB: db, Model: harness.FastModel(),
		ArtifactDir: file + "/sub", SaveTrained: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := eng.Predict(Request{Program: "vecadd", SizeIdx: 0}); err != nil {
			t.Fatalf("request %d failed after persistence error: %v", i, err)
		}
	}
	if s := eng.Stats(); s.ArtifactSaveFails != 1 || s.Trainings != 1 {
		t.Fatalf("stats after failed persistence: %+v", s)
	}
}

func TestEngineModelLoadFailureNotCached(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	path := ArtifactPath(dir, "mc2", "")
	// First request sees a corrupt artifact mid-deploy and fails...
	if err := os.WriteFile(path, []byte("{torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := New(Options{Platform: "mc2", DB: db, Model: harness.FastModel(), ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Predict(Request{Program: "vecadd", SizeIdx: 0}); err == nil {
		t.Fatal("corrupt artifact served")
	}
	// ...but once the operator replaces the file, the engine recovers
	// without a restart (the failure was not memoized).
	art, err := ml.TrainArtifact(db.Dataset("mc2", nil), harness.FastModel())
	if err != nil {
		t.Fatal(err)
	}
	art.Platform = "mc2"
	art.Space = append([]string{}, db.Space...)
	if err := ml.SaveArtifact(path, art); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Predict(Request{Program: "vecadd", SizeIdx: 0}); err != nil {
		t.Fatalf("engine did not recover after artifact was fixed: %v", err)
	}
	if s := eng.Stats(); s.ArtifactLoads != 1 || s.Trainings != 0 {
		t.Fatalf("recovery stats: %+v", s)
	}
}

// BenchmarkEngineExecuteWarm measures a warm /execute on two programs,
// the way the benchmark's ladder counts engine.execute_allocs_per_op:
// predict, instance, kernel, output check, and the observation's counter
// bump. The background flusher's one count record per key and second is
// not per request, and the flush after the loop is not timed.
// scripts/alloc_smoke.sh holds its allocs/op under a ceiling.
func BenchmarkEngineExecuteWarm(b *testing.B) {
	for _, prog := range []string{"vecadd", "spmv"} {
		b.Run(prog, func(b *testing.B) {
			opts, _ := adaptiveOpts(b)
			eng, err := New(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			req := Request{Program: prog, SizeIdx: 1}
			for i := 0; i < 2; i++ {
				if _, err := eng.Execute(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
			eng.FlushObservations()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x, err := eng.Execute(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				if !x.Verified {
					b.Fatalf("verified:false: %s", x.VerifyError)
				}
			}
			b.StopTimer()
			eng.FlushObservations()
		})
	}
}

// servingArtifact returns the artifact currently serving leftOut.
func servingArtifact(e *Engine, leftOut string) (*ml.Artifact, error) {
	reg, err := e.registryFor(leftOut)
	if err != nil {
		return nil, err
	}
	return reg.current().art, nil
}
