package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/harness"
	"repro/internal/ml"
	"repro/internal/obs"
)

// adaptiveOpts is the adaptive-loop test configuration: the shared seed
// database (3 programs at sizes 0-1), a fresh observation log, kNN.
func adaptiveOpts(t testing.TB) (Options, *obs.Log) {
	t.Helper()
	log := openLog(t, t.TempDir())
	o := fastOpts(t)
	o.ObsLog = log
	return o, log
}

// openLog opens the observation log in dir, closed when the test ends.
func openLog(t testing.TB, dir string) *obs.Log {
	t.Helper()
	log, err := obs.Open(obs.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return log
}

// TestEngineAdaptiveClosedLoop pins the PR's acceptance criterion end to
// end: a warm engine fed executions for a program size ABSENT from the
// seed database (size 2; the seed holds sizes 0-1) produces a new model
// version that passes the no-regression gate and serves subsequent
// predictions without restart.
func TestEngineAdaptiveClosedLoop(t *testing.T) {
	opts, log := adaptiveOpts(t)
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	before, err := eng.Predict(Request{Program: "vecadd", SizeIdx: 2})
	if err != nil {
		t.Fatal(err)
	}
	if before.ModelVersion != 1 {
		t.Fatalf("seed model version = %d, want 1", before.ModelVersion)
	}

	// Serve traffic: every execution is counted, and the cell is
	// oracle-labeled once.
	const executes = 8
	for i := 0; i < executes; i++ {
		ex, err := eng.Execute(context.Background(), Request{Program: "vecadd", SizeIdx: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !ex.Verified {
			t.Fatalf("execution %d failed verification: %s", i, ex.VerifyError)
		}
	}
	// Recording is asynchronous: the flush barrier makes every counted
	// execution and the cell's label durable before the assertions read
	// the log.
	eng.FlushObservations()
	st := eng.Stats()
	if st.Observations != executes || st.ObservationsLabeled != 1 {
		t.Fatalf("observations = %d labeled = %d, want %d/1", st.Observations, st.ObservationsLabeled, executes)
	}
	if st.ObservationsPending != 0 || st.ObservationsDropped != 0 {
		t.Fatalf("after flush: pending = %d dropped = %d, want 0/0", st.ObservationsPending, st.ObservationsDropped)
	}
	snap, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 {
		t.Fatalf("%d labels for one cell", len(snap))
	}
	oracleClass := snap[0].BestClass
	if !snap[0].Labeled || len(snap[0].Times) == 0 {
		t.Fatalf("observation not oracle-labeled: %+v", snap[0])
	}

	// Close the loop.
	res, err := eng.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted || res.NewVersion != 2 {
		t.Fatalf("retrain did not promote: %+v", res)
	}
	// The 8 executions of one cell are ONE training record: the cell's
	// label (repeat executions of a deterministic cell carry no new
	// information and must not leak across the gate's holdout split).
	if res.ObsRecords != 1 || res.SkippedObservations != 0 || res.SeedRecords == 0 || res.HoldoutSize == 0 {
		t.Fatalf("retrain composition: %+v", res)
	}
	if res.GateCandidate < res.GateLive {
		t.Fatalf("promoted through a failing gate: %+v", res)
	}

	// The new version serves immediately, no restart.
	after, err := eng.Predict(Request{Program: "vecadd", SizeIdx: 2})
	if err != nil {
		t.Fatal(err)
	}
	if after.ModelVersion != 2 || after.ModelSource != ModelRetrained {
		t.Fatalf("post-swap prediction served by %+v", after)
	}
	// The loop actually learned: the retrained model reproduces the
	// measured-best class for the cell it observed (its nearest
	// neighbours now include that exact point).
	if after.Class != oracleClass {
		t.Errorf("retrained model predicts class %d for the observed cell, oracle measured %d", after.Class, oracleClass)
	}

	// Lineage is recorded end to end.
	cur, versions, err := eng.ModelVersions()
	if err != nil {
		t.Fatal(err)
	}
	if cur != 2 || len(versions) != 2 {
		t.Fatalf("registry: current=%d len=%d", cur, len(versions))
	}
	v2 := versions[1]
	if v2.Parent != 1 || v2.ObsRecords != 1 || v2.Source != ModelRetrained {
		t.Fatalf("lineage: %+v", v2)
	}
	art := v2.art
	if art.Lineage == nil || art.Lineage.ModelVersion != 2 || art.Lineage.Parent != 1 {
		t.Fatalf("artifact lineage: %+v", art.Lineage)
	}
}

// TestEngineRetrainRejectsWithoutLabels: a cell that is only ever
// predicted records nothing, so a retrain after predictions alone finds
// no label to train on and rejects.
func TestEngineRetrainRejectsWithoutLabels(t *testing.T) {
	opts, log := adaptiveOpts(t)
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Predict(Request{Program: "vecadd", SizeIdx: 2}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Retrain() // flushes pending observations itself
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted || res.Reason == "" {
		t.Fatalf("labelless retrain promoted: %+v", res)
	}
	if st := eng.RetrainStatus(); st.Rejections != 1 || st.Promotions != 0 {
		t.Fatalf("retrain status: %+v", st)
	}
	if st := log.Stats(); st.Labeled != 0 || st.Executions != 0 {
		t.Fatalf("a prediction was recorded: %+v", st)
	}
	// Predictions still come from version 1.
	p, err := eng.Predict(Request{Program: "vecadd", SizeIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.ModelVersion != 1 {
		t.Fatalf("rejected retrain moved the served version: %d", p.ModelVersion)
	}
}

// TestRetrainRefusesFeatureSchemaMismatchedCandidate: a candidate whose
// feature schema is not the one this binary extracts passes the gate but
// is refused at promotion, with an error naming the first differing
// feature, and the served version stays. The live model records no
// schema (so the retrainer takes the labels' one) and answers a class
// outside the space (so any candidate clears the gate); the log holds
// every seed cell's label twice, under a feature name renamed.
func TestRetrainRefusesFeatureSchemaMismatchedCandidate(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	dim := len(features.StaticNames) + len(features.RuntimeNames)
	probe, err := ml.TrainArtifact(&ml.Dataset{X: [][]float64{make([]float64, dim)}, Y: []int{500}},
		func() ml.Classifier { return ml.NewKNN(1) })
	if err != nil {
		t.Fatal(err)
	}
	probe.Platform, probe.FeatureNames = "mc2", nil
	if err := ml.SaveArtifact(ArtifactPath(dir, "mc2", ""), probe); err != nil {
		t.Fatal(err)
	}
	log := openLog(t, t.TempDir())
	for _, rec := range db.PlatformRecords("mc2") {
		names := slices.Clone(rec.FeatureNames)
		names[2] = "s_renamed"
		for _, program := range []string{rec.Program, rec.Program + "-copy"} {
			if _, err := log.Append(obs.Observation{Platform: "mc2", Program: program, SizeIdx: rec.SizeIdx,
				FeatureNames: names, Features: rec.Features, Verified: true, Labeled: true,
				BestClass: rec.BestClass, OracleTime: rec.OracleTime, Times: rec.Times}); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng, err := New(Options{Platform: "mc2", ArtifactDir: dir, Model: harness.FastModel(), ObsLog: log})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	want := fmt.Sprintf("feature 2 is \"s_renamed\", this binary extracts %q", features.StaticNames[2])
	if _, err := eng.Retrain(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("retrain error %v, want one containing %q", err, want)
	}
	current, versions, err := eng.ModelVersions()
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.RetrainStatus(); current != 1 || len(versions) != 1 || st.Promotions != 0 || eng.Stats().Trainings != 0 {
		t.Fatalf("after the refused candidate: version %d of %d, %d promotions, %d trainings; want 1 of 1, 0 and 0",
			current, len(versions), st.Promotions, eng.Stats().Trainings)
	}
}

func TestEngineRetrainRequiresObsLog(t *testing.T) {
	eng, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Retrain(); err == nil {
		t.Error("retrain without observation log succeeded")
	}
	if _, err := eng.StartRetrainer(time.Second, 1); err == nil {
		t.Error("retrainer without observation log started")
	}
	st := eng.RetrainStatus()
	if st.Enabled {
		t.Errorf("status claims adaptive loop enabled: %+v", st)
	}
}

func TestEngineRollback(t *testing.T) {
	opts, _ := adaptiveOpts(t)
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := eng.Execute(context.Background(), Request{Program: "matmul", SizeIdx: 2}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted {
		t.Fatalf("retrain rejected: %+v", res)
	}
	v, err := eng.Rollback(1)
	if err != nil {
		t.Fatal(err)
	}
	if v.ModelVersion != 1 {
		t.Fatalf("rollback landed on %d", v.ModelVersion)
	}
	p, err := eng.Predict(Request{Program: "matmul", SizeIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.ModelVersion != 1 {
		t.Fatalf("post-rollback prediction from version %d", p.ModelVersion)
	}
	// History survives rollback; bogus versions are rejected.
	if cur, versions, _ := eng.ModelVersions(); cur != 1 || len(versions) != 2 {
		t.Fatalf("registry after rollback: cur=%d len=%d", cur, len(versions))
	}
	if _, err := eng.Rollback(99); err == nil {
		t.Error("rollback to unknown version succeeded")
	}
	if s := eng.Stats(); s.Rollbacks != 1 {
		t.Fatalf("rollback counter: %+v", s)
	}
}

// TestEngineAdaptivePersistsPromotedModel: with SaveTrained, a promoted
// model lands in ArtifactDir, and a NEW process (second engine)
// warm-starts from the validated artifact, lineage intact.
func TestEngineAdaptivePersistsPromotedModel(t *testing.T) {
	opts, _ := adaptiveOpts(t)
	opts.ArtifactDir = t.TempDir()
	opts.SaveTrained = true
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := eng.Execute(context.Background(), Request{Program: "blackscholes", SizeIdx: 2}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted {
		t.Fatalf("retrain rejected: %+v", res)
	}

	art, err := ml.LoadArtifact(ArtifactPath(opts.ArtifactDir, "mc2", ""))
	if err != nil {
		t.Fatal(err)
	}
	if art.Lineage == nil || art.Lineage.ModelVersion != 2 {
		t.Fatalf("persisted artifact lineage: %+v", art.Lineage)
	}

	second, err := New(Options{Platform: "mc2", DB: testDB(t), Model: harness.FastModel(), ArtifactDir: opts.ArtifactDir,
		ObsLog: openLog(t, t.TempDir())})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := second.Predict(Request{Program: "blackscholes", SizeIdx: 2}); err != nil {
		t.Fatal(err)
	}
	if s := second.Stats(); s.Trainings != 0 || s.ArtifactLoads != 1 {
		t.Fatalf("second engine did not warm-start from the promoted model: %+v", s)
	}
	// The reloaded registry starts at the promoted version, its history
	// intact.
	cur, versions, err := second.ModelVersions()
	if err != nil {
		t.Fatal(err)
	}
	if v := versions[0]; cur != 2 || len(versions) != 1 || v.ModelVersion != 2 || v.Parent != 1 ||
		v.Source != ModelFromArtifact || v.ObsRecords == 0 || v.GateCandidate == 0 {
		t.Fatalf("reloaded registry: current %d, versions %+v", cur, versions)
	}
	// Its next promotion is version 3, so the observation log never sees
	// two models numbered 2, and a rollback names the versions it has.
	for i := 0; i < 4; i++ {
		if _, err := second.Execute(context.Background(), Request{Program: "matmul", SizeIdx: 2}); err != nil {
			t.Fatal(err)
		}
	}
	res, err = second.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted || res.NewVersion != 3 || res.LiveVersion != 2 {
		t.Fatalf("retrain after restart: %+v", res)
	}
	if _, err := second.Rollback(1); err == nil || !strings.Contains(err.Error(), "have [2 3]") {
		t.Fatalf("rollback to a version the restarted registry never had: %v", err)
	}
	if v, err := second.Rollback(2); err != nil || v.ModelVersion != 2 {
		t.Fatalf("rollback to the reloaded version: %+v, %v", v, err)
	}
}

// TestRetrainTrainsOnSiblingObservations: two mc2 engines sharing a cell
// cache share one model. A cell first executed on the second is in the
// training set of a retrain made at once through the first, although the
// second's flusher is slow to append its label, and the promoted version
// serves on both.
func TestRetrainTrainsOnSiblingObservations(t *testing.T) {
	opts, _ := adaptiveOpts(t)
	opts.SharedCells = mustCellCache(t, "mc2")
	first, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	slow := opts
	slow.beforeAppend = func() error {
		time.Sleep(200 * time.Millisecond)
		return nil
	}
	second, err := New(slow)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if _, err := second.Execute(context.Background(), Request{Program: "vecadd", SizeIdx: 2}); err != nil {
		t.Fatal(err)
	}
	res, err := first.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted || res.ObsRecords != 1 {
		t.Fatalf("retrain through the first engine: %+v", res)
	}
	for _, eng := range []*Engine{first, second} {
		p, err := eng.Predict(Request{Program: "vecadd", SizeIdx: 2})
		if err != nil {
			t.Fatal(err)
		}
		if p.ModelVersion != 2 {
			t.Fatalf("an engine of the platform serves version %d after the promotion", p.ModelVersion)
		}
	}
	if st := second.RetrainStatus(); st.Attempts != 1 || st.Promotions != 1 {
		t.Fatalf("the second engine's view of the platform's retrainer: %+v", st)
	}
}

// TestEngineHotSwapUnderConcurrentServing hammers Predict and Execute
// from many goroutines on two engines sharing a platform's models while
// the main goroutine retrains (hot-swapping versions) and rolls back
// through either, repeatedly. The race detector (CI runs this package
// with -race) proves no torn swap; the assertions prove every request was
// served by a complete, plausible version.
func TestEngineHotSwapUnderConcurrentServing(t *testing.T) {
	opts, _ := adaptiveOpts(t)
	opts.SharedCells = mustCellCache(t, "mc2")
	var engs [2]*Engine
	for i := range engs {
		eng, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		engs[i] = eng
	}
	// Warm the caches so the hammer measures serving, not compilation.
	if _, err := engs[0].Execute(context.Background(), Request{Program: "vecadd", SizeIdx: 2}); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			eng := engs[c/2%2]
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if c%2 == 0 {
					p, err := eng.Predict(Request{Program: "vecadd", SizeIdx: 2})
					if err != nil {
						t.Errorf("predict during swap: %v", err)
						return
					}
					if p.ModelVersion < 1 || p.Model == "" || p.Partition == "" {
						t.Errorf("torn prediction: %+v", p)
						return
					}
				} else {
					ex, err := eng.Execute(context.Background(), Request{Program: "matmul", SizeIdx: 2})
					if err != nil {
						t.Errorf("execute during swap: %v", err)
						return
					}
					if ex.ModelVersion < 1 || !ex.Verified {
						t.Errorf("torn execution: %+v", ex)
						return
					}
				}
			}
		}(c)
	}

	// Drive promotions and rollbacks under load.
	swaps := 0
	for i := 0; i < 3; i++ {
		res, err := engs[i%2].Retrain()
		if err != nil && !errors.Is(err, ErrRetrainInProgress) {
			t.Errorf("retrain %d: %v", i, err)
			break
		}
		if err == nil && res.Promoted {
			swaps++
		}
	}
	if swaps > 0 {
		if _, err := engs[1].Rollback(1); err != nil {
			t.Errorf("rollback under load: %v", err)
		}
	}
	close(done)
	wg.Wait()
	if swaps == 0 {
		t.Fatal("no promotion happened; the hammer never crossed a swap")
	}
	for _, eng := range engs {
		eng.FlushObservations()
		if s := eng.Stats(); s.ObserveFailures != 0 {
			t.Fatalf("observation failures under load: %+v", s)
		}
	}
}

// TestEngineBackgroundRetrainer drives the full background loop: traffic
// arrives, the ticker notices enough new labels, retrains, promotes, and
// the served version moves — all without an explicit trigger.
func TestEngineBackgroundRetrainer(t *testing.T) {
	opts, _ := adaptiveOpts(t)
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	stop, err := eng.StartRetrainer(20*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if _, err := eng.StartRetrainer(time.Second, 1); err == nil {
		t.Fatal("second retrainer started")
	}
	// Two new cells: each is labeled once, however often it executes,
	// so the threshold of 2 counts cells, not requests.
	for i := 0; i < 4; i++ {
		if _, err := eng.Execute(context.Background(), Request{Program: "vecadd", SizeIdx: 2 + i%2}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(10 * time.Second)
	for {
		st := eng.RetrainStatus()
		if !st.Background || !st.Enabled {
			t.Fatalf("status: %+v", st)
		}
		if st.Promotions > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("background retrainer never promoted: %+v", st)
		case <-time.After(10 * time.Millisecond):
		}
	}
	p, err := eng.Predict(Request{Program: "vecadd", SizeIdx: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.ModelVersion < 2 {
		t.Fatalf("background promotion not serving: version %d", p.ModelVersion)
	}
	stop()
	// After stop, no further attempts occur.
	st := eng.RetrainStatus()
	if st.Background {
		t.Fatalf("retrainer still marked running: %+v", st)
	}
	attempts := st.Attempts
	for i := 0; i < 3; i++ {
		if _, err := eng.Execute(context.Background(), Request{Program: "matmul", SizeIdx: 2 + i%2}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(60 * time.Millisecond)
	if got := eng.RetrainStatus().Attempts; got != attempts {
		t.Fatalf("stopped retrainer kept retraining: %d -> %d", attempts, got)
	}
}

// TestRetrainerCountsOwnPlatformLabels: mc1 and mc2 engines share one
// observation log, each with a background retrainer waking for one new
// label. An mc1 execution labels an mc1 cell and wakes mc1's retrainer;
// mc2's sees no label of its own and stays idle until an mc2 execution.
func TestRetrainerCountsOwnPlatformLabels(t *testing.T) {
	opts, log := adaptiveOpts(t)
	opts.SharedCells = mustCellCache(t, "mc1", "mc2")
	engs := map[string]*Engine{}
	for _, platform := range []string{"mc1", "mc2"} {
		o := opts
		o.Platform = platform
		eng, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		stop, err := eng.StartRetrainer(5*time.Millisecond, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		engs[platform] = eng
	}
	waitAttempt := func(platform string) {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for engs[platform].RetrainStatus().Attempts == 0 {
			select {
			case <-deadline:
				t.Fatalf("%s retrainer never woke: %+v", platform, engs[platform].RetrainStatus())
			case <-time.After(time.Millisecond):
			}
		}
	}
	mustExecute(t, engs["mc1"], Request{Program: "vecadd", SizeIdx: 2})
	engs["mc1"].FlushObservations()
	if n1, n2 := log.LabeledCount("mc1"), log.LabeledCount("mc2"); n1 != 1 || n2 != 0 {
		t.Fatalf("labels: mc1 %d, mc2 %d; want 1 and 0", n1, n2)
	}
	waitAttempt("mc1")
	// mc2's retrainer ticks every 5 ms; give it several ticks.
	time.Sleep(50 * time.Millisecond)
	if st := engs["mc2"].RetrainStatus(); st.Attempts != 0 || st.LabeledObservations != 0 {
		t.Fatalf("an mc1 label woke mc2's retrainer: %+v", st)
	}
	mustExecute(t, engs["mc2"], Request{Program: "vecadd", SizeIdx: 2})
	engs["mc2"].FlushObservations()
	waitAttempt("mc2")
}
