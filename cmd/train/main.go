// Command train runs the offline training phase: it profiles every
// benchmark program at every problem size, prices all candidate
// partitionings on the selected platforms, stores the resulting training
// database, and reports leave-one-program-out quality of the default
// model.
//
// With -model-out it additionally emits one trained model artifact per
// platform alongside the database; deployment tools (cmd/predict,
// cmd/serve) load these artifacts instead of retraining.
//
// With -from-observations it folds a serving deployment's observation
// log (cmd/serve -obs) into the database before training: each cell's
// newest label becomes a first-class training record, so models trained
// here benefit from every oracle label production traffic produced —
// the offline half of the adaptive loop.
//
// Usage:
//
//	train -out training_db.json [-model-out models/] [-model mlp]
//	      [-programs vecadd,matmul] [-maxsize 5] [-parallel 8] [-quiet]
//	      [-from-observations obslog/]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/sched"
)

func main() {
	out := flag.String("out", "training_db.json", "output database path")
	modelOut := flag.String("model-out", "", "directory for trained model artifacts (one per platform; empty = skip)")
	modelName := flag.String("model", "mlp", fmt.Sprintf("model family for artifacts: %s", strings.Join(harness.ModelNames(), ", ")))
	programs := flag.String("programs", "", "comma-separated program subset (default: all 23)")
	maxSize := flag.Int("maxsize", 5, "largest problem size index to measure (0-5)")
	parallel := flag.Int("parallel", 0, "worker goroutines for the sweep and oracle search (0 = GOMAXPROCS)")
	fromObs := flag.String("from-observations", "", "observation log directory (cmd/serve -obs) to merge into the database before training")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	flag.Parse()
	sched.SetDefaultWorkers(*parallel)

	mk, err := harness.ModelByName(*modelName)
	if err != nil {
		fail(err)
	}
	var log io.Writer = os.Stderr
	if *quiet {
		log = nil
	}
	// -parallel flows through the scheduler's process-wide default
	// (SetDefaultWorkers above); Workers stays 0 so there is one source
	// of truth.
	opts := harness.GenOptions{MaxSizeIdx: *maxSize, Log: log}
	if *programs != "" {
		opts.Programs = strings.Split(*programs, ",")
	}

	db, err := harness.Generate(opts)
	if err != nil {
		fail(err)
	}
	if *fromObs != "" {
		log, err := obs.Open(obs.Options{Dir: *fromObs})
		if err != nil {
			fail(err)
		}
		snap, err := log.Snapshot()
		log.Close()
		if err != nil {
			fail(err)
		}
		added, skipped := db.AppendObservations(snap)
		fmt.Printf("observation log %s: merged %d cell labels (%d skipped: unlabeled, unverified or mismatched schema)\n",
			*fromObs, added, skipped)
	}
	if err := db.Save(*out); err != nil {
		fail(err)
	}
	fmt.Printf("training database: %d records (%d programs x sizes x 2 platforms) -> %s\n",
		len(db.Records), len(db.Programs()), *out)

	for _, plat := range device.Platforms() {
		if len(db.PlatformRecords(plat.Name)) == 0 {
			continue
		}
		// Deployment artifact: the full model, trained on every program.
		if *modelOut != "" {
			fw, err := core.New(plat)
			if err != nil {
				fail(err)
			}
			if err := fw.Train(db, mk); err != nil {
				fail(err)
			}
			path := engine.ArtifactPath(*modelOut, plat.Name, "")
			if err := ml.SaveArtifact(path, fw.Artifact()); err != nil {
				fail(err)
			}
			fmt.Printf("%s: model artifact (%s) -> %s\n", plat.Name, fw.ModelName(), path)
		}
		// Training-quality report: leave-one-program-out cross validation.
		res, err := harness.Figure1(db, plat.Name, mk)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s: leave-one-program-out geomean speedup vs CPU-only %.2fx, vs GPU-only %.2fx, oracle efficiency %.2f\n",
			plat.Name, res.GeoMeanVsCPU, res.GeoMeanVsGPU, res.MeanOracleEff)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "train:", err)
	os.Exit(1)
}
