// Command predict runs the deployment phase for one benchmark: it
// predicts the task partitioning for the requested problem size and
// compares the prediction against the default strategies and the oracle.
//
// The answer is the one /predict serves: the platform's model, trained on
// every program of the database, through the deployment engine. With
// -models the command first looks for the platform's model artifact
// (written by a previous run with -save-model, or by cmd/train
// -model-out) and only falls back to training on the fly when none
// exists. The unseen-program figure, each program predicted by a model
// trained on the others (leave-one-program-out), is cmd/bench fig1.
//
// Usage:
//
//	predict -db training_db.json -platform mc2 -program matmul -size 4
//	        [-models models/] [-save-model]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/engine"
	"repro/internal/harness"
)

func main() {
	dbPath := flag.String("db", "training_db.json", "training database (from cmd/train)")
	platform := flag.String("platform", "mc2", "target platform: mc1 or mc2")
	program := flag.String("program", "matmul", "benchmark program name")
	sizeIdx := flag.Int("size", -1, "problem size index 0-5 (default: program default)")
	models := flag.String("models", "", "model artifact directory (loaded before training on the fly)")
	saveModel := flag.Bool("save-model", false, "persist a freshly trained model into -models for reuse")
	flag.Parse()

	if *saveModel && *models == "" {
		fail(fmt.Errorf("-save-model requires -models to name the artifact directory"))
	}
	db, err := harness.LoadDB(*dbPath)
	if err != nil {
		fail(fmt.Errorf("%w (run cmd/train first)", err))
	}
	eng, err := engine.New(engine.Options{
		Platform:    *platform,
		DB:          db,
		ArtifactDir: *models,
		Model:       harness.DefaultModel(),
		SaveTrained: *saveModel,
	})
	if err != nil {
		fail(err)
	}

	p, err := eng.Predict(engine.Request{Program: *program, SizeIdx: *sizeIdx})
	if err != nil {
		fail(err)
	}
	if p.Clamped {
		// Surface the fault instead of silently mispricing: the model
		// answered a class outside the partition space and the serving
		// path substituted class 0 (CPU-only).
		fmt.Fprintf(os.Stderr,
			"predict: warning: model predicted out-of-range class %d (partition space has %d classes); serving class 0 (%s) instead\n",
			p.RawClass, len(db.Space), p.Partition)
	}

	artifactPath := engine.ArtifactPath(*models, *platform, "")
	source := "trained on the fly"
	switch p.ModelSource {
	case engine.ModelFromArtifact:
		source = "loaded from " + artifactPath
	case engine.ModelTrainedSaved:
		source = "trained on the fly, saved to " + artifactPath
	case engine.ModelTrainedSaveFailed:
		source = "trained on the fly; could not persist artifact"
		fmt.Fprintf(os.Stderr, "predict: warning: failed to save model artifact to %s (next run will retrain)\n", artifactPath)
	}
	fmt.Printf("program %s, size %s (N=%d), platform %s\n", p.Program, p.SizeLabel, p.SizeN, p.Platform)
	fmt.Printf("  model %s v%d (the served model, %s; cmd/bench fig1 reports unseen programs)\n", p.Model, p.ModelVersion, source)
	fmt.Printf("  predicted partitioning (CPU/GPU1/GPU2): %s  -> %.4g ms\n", p.Partition, p.PredictedTime*1e3)
	fmt.Printf("  oracle partitioning:                    %s  -> %.4g ms\n", p.OraclePartition, p.OracleTime*1e3)
	fmt.Printf("  CPU-only: %.4g ms   GPU-only: %.4g ms\n", p.CPUOnlyTime*1e3, p.GPUOnlyTime*1e3)
	fmt.Printf("  speedup vs CPU-only %.2fx, vs GPU-only %.2fx, oracle efficiency %.2f\n",
		p.CPUOnlyTime/p.PredictedTime, p.GPUOnlyTime/p.PredictedTime, p.OracleTime/p.PredictedTime)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "predict:", err)
	os.Exit(1)
}
