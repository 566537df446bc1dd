package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/harness"
	"repro/internal/ml"
)

// classCells are the cells the served-class tests predict: every program
// of the test database at a seen size and at one it has no rows for.
var classCells = []Request{
	{Program: "vecadd", SizeIdx: 0}, {Program: "vecadd", SizeIdx: 2},
	{Program: "matmul", SizeIdx: 1}, {Program: "matmul", SizeIdx: 2},
	{Program: "blackscholes", SizeIdx: 0}, {Program: "blackscholes", SizeIdx: 2},
}

// classShards builds n engines of platform sharing cells.
func classShards(t *testing.T, cells *CellCache, platform string, n int) []*Engine {
	t.Helper()
	engs := make([]*Engine, n)
	for i := range engs {
		eng, err := New(Options{Platform: platform, DB: testDB(t), Model: harness.FastModel(), SharedCells: cells})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		engs[i] = eng
	}
	return engs
}

// cellOf returns the cell req resolves to on eng.
func cellOf(t *testing.T, eng *Engine, req Request) *cell {
	t.Helper()
	pe, err := eng.program(req.Program)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := eng.cellFor(context.Background(), pe, req.SizeIdx, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fe
}

// versionArt returns the artifact of version v of eng's registry.
func versionArt(t *testing.T, eng *Engine, v int) *ml.Artifact {
	t.Helper()
	reg, err := eng.registry()
	if err != nil {
		t.Fatal(err)
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for _, ver := range reg.versions {
		if ver.ModelVersion == v {
			return ver.art
		}
	}
	t.Fatalf("%s registry has no version %d", eng.opts.Platform, v)
	return nil
}

// shiftedArtifact is a kNN artifact trained on platform's database rows
// with every label moved one class up: a model that disagrees with the
// engine's own on most cells.
func shiftedArtifact(t *testing.T, platform string) *ml.Artifact {
	t.Helper()
	db := testDB(t)
	rows := db.Dataset(platform, nil)
	d := *rows
	d.Soft = nil
	d.Y = make([]int, len(rows.Y))
	for i, y := range rows.Y {
		d.Y[i] = (y + 1) % len(db.Space)
	}
	art, err := ml.TrainArtifact(&d, harness.FastModel())
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// TestServedClassIsTheReportedVersions: in a fleet of two platforms with
// two shards each, every answer's class is what the model version it
// reports predicts on the cell's features, cold and warm, on either shard;
// and each platform ran its model once per cell, whichever shard asked
// and however the platforms' requests interleave.
func TestServedClassIsTheReportedVersions(t *testing.T) {
	cells := mustCellCache(t, "mc1", "mc2")
	fleet := map[string][]*Engine{}
	for _, platform := range []string{"mc1", "mc2"} {
		fleet[platform] = classShards(t, cells, platform, 2)
	}
	for round := 0; round < 2; round++ {
		for i, req := range classCells {
			for _, platform := range []string{"mc1", "mc2"} {
				eng := fleet[platform][(i+round)%2]
				p, err := eng.Predict(req)
				if err != nil {
					t.Fatal(err)
				}
				fe := cellOf(t, eng, req)
				if want := versionArt(t, eng, p.ModelVersion).Predict(fe.fv.Values); p.RawClass != want {
					t.Fatalf("%s %s size %d (round %d): served class %d, version %d predicts %d", platform, req.Program, req.SizeIdx, round, p.RawClass, p.ModelVersion, want)
				}
			}
		}
	}
	for platform, engs := range fleet {
		if got := engs[0].Stats().ModelEvaluations + engs[1].Stats().ModelEvaluations; got != uint64(len(classCells)) {
			t.Fatalf("%s ran its model %d times over %d cells predicted twice each, want once per cell", platform, got, len(classCells))
		}
	}
}

// TestServedClassFollowsPromotionAndRollback: two shards of a platform
// serve a cell's class from the version that serves now. Two models
// disagree on at least one cell; after a promotion and again after a
// rollback, both shards answer the current version's class, each shard's
// first request running the new version once per cell between them.
func TestServedClassFollowsPromotionAndRollback(t *testing.T) {
	engs := classShards(t, mustCellCache(t, "mc2"), "mc2", 2)
	reg, err := engs[0].registry()
	if err != nil {
		t.Fatal(err)
	}
	arts := map[int]*ml.Artifact{1: reg.current().art, 2: shiftedArtifact(t, "mc2")}
	disagree := 0
	for _, req := range classCells {
		fv := cellOf(t, engs[0], req).fv.Values
		if arts[1].Predict(fv) != arts[2].Predict(fv) {
			disagree++
		}
	}
	if disagree == 0 {
		t.Fatal("the two models agree on every cell: the test cannot tell them apart")
	}
	evals := func() uint64 { return engs[0].Stats().ModelEvaluations + engs[1].Stats().ModelEvaluations }
	check := func(stage string, version int) {
		t.Helper()
		before := evals()
		for _, eng := range engs {
			for _, req := range classCells {
				p, err := eng.Predict(req)
				if err != nil {
					t.Fatal(err)
				}
				want := arts[version].Predict(cellOf(t, eng, req).fv.Values)
				if p.ModelVersion != version || p.RawClass != want {
					t.Fatalf("%s: %s size %d answered version %d class %d, want version %d class %d", stage, req.Program, req.SizeIdx, p.ModelVersion, p.RawClass, version, want)
				}
			}
		}
		if got := evals() - before; got != uint64(len(classCells)) {
			t.Fatalf("%s: %d model runs over %d cells on two shards, want one per cell", stage, got, len(classCells))
		}
	}
	check("seed", 1)
	reg.promote(arts[2], ml.Lineage{})
	check("after promotion", 2)
	if _, err := engs[1].Rollback(1); err != nil {
		t.Fatal(err)
	}
	check("after rollback", 1)
}

// TestPromotionNeverTearsVersionFromClass: predictions racing promotions
// and rollbacks always pair a version number with that version's class.
// Run it under -race.
func TestPromotionNeverTearsVersionFromClass(t *testing.T) {
	engs := classShards(t, mustCellCache(t, "mc2"), "mc2", 2)
	reg, err := engs[0].registry()
	if err != nil {
		t.Fatal(err)
	}
	reg.promote(shiftedArtifact(t, "mc2"), ml.Lineage{})
	// want[v][i] is version v's class for classCells[i].
	want := map[int][]int{}
	for v := 1; v <= 2; v++ {
		for _, req := range classCells {
			want[v] = append(want[v], versionArt(t, engs[0], v).Predict(cellOf(t, engs[0], req).fv.Values))
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var served atomic.Uint64
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var p Prediction
			for i := c; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				req := classCells[i%len(classCells)]
				if err := engs[c%2].PredictInto(req, &p); err != nil {
					t.Error(err)
					return
				}
				if p.RawClass != want[p.ModelVersion][i%len(classCells)] {
					t.Errorf("%s size %d: version %d answered class %d, its model predicts %d", req.Program, req.SizeIdx, p.ModelVersion, p.RawClass, want[p.ModelVersion][i%len(classCells)])
					return
				}
				served.Add(1)
				runtime.Gosched() // let the swapping goroutine in
			}
		}(c)
	}
	// Each swap waits for a few predictions, so the two interleave.
	for i := 0; i < 1000; i++ {
		for target := served.Load() + 4; served.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
		if _, err := engs[i%2].Rollback(1 + i%2); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}
