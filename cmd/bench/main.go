// Command bench regenerates the paper's figure and the extension tables
// from a training database (see DESIGN.md section 5 for the experiment
// index).
//
// Usage:
//
//	bench [-db training_db.json] [-fast] [-parallel 8] fig1|defaults|sizes|models|ablation|oracle|steps|all
//
// If the database file does not exist it is generated first (several
// minutes for the full suite).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/ml"
	"repro/internal/sched"
)

func main() {
	dbPath := flag.String("db", "training_db.json", "training database path (generated if missing)")
	fast := flag.Bool("fast", false, "use the fast kNN model instead of the MLP")
	parallel := flag.Int("parallel", 0, "worker goroutines for sweeps, oracle search and CV folds (0 = GOMAXPROCS)")
	flag.Parse()
	sched.SetDefaultWorkers(*parallel)
	what := flag.Arg(0)
	if what == "" {
		what = "all"
	}

	db, err := loadOrGenerate(*dbPath)
	if err != nil {
		fail(err)
	}
	model := harness.DefaultModel()
	if *fast {
		model = harness.FastModel()
	}
	platforms := []string{"mc1", "mc2"}

	switch what {
	case "fig1", "defaults", "sizes", "models", "ablation", "oracle", "steps", "dynamic", "all":
	default:
		fail(fmt.Errorf("unknown experiment %q", what))
	}

	if what == "fig1" || what == "all" {
		for _, plat := range platforms {
			res, err := harness.Figure1(db, plat, model)
			if err != nil {
				fail(err)
			}
			harness.WriteFigure1(os.Stdout, res)
			fmt.Println()
		}
	}
	if what == "defaults" || what == "all" {
		harness.WriteDefaults(os.Stdout, harness.DefaultsAsymmetry(db, platforms))
		fmt.Println()
	}
	if what == "sizes" || what == "all" {
		progs := []string{"vecadd", "matmul", "blackscholes", "mandelbrot", "spmv", "nbody"}
		for _, plat := range platforms {
			rows, err := harness.SizeSensitivity(db, plat, progs)
			if err != nil {
				fail(err)
			}
			harness.WriteSizeSensitivity(os.Stdout, rows)
			fmt.Println()
		}
	}
	if what == "models" || what == "all" {
		// The served model families, plus two T4 alone compares.
		models := map[string]ml.NewModel{
			"twostage": harness.TwoStageModel(),
			"pca+mlp": func() ml.Classifier {
				return ml.NewPCAPipeline(12, 42, harness.DefaultModel())
			},
		}
		for _, name := range harness.ModelNames() {
			if models[name], err = harness.ModelByName(name); err != nil {
				fail(err)
			}
		}
		for _, plat := range platforms {
			rows, err := harness.CompareModels(db, plat, models)
			if err != nil {
				fail(err)
			}
			harness.WriteModels(os.Stdout, rows)
			fmt.Println()
		}
	}
	if what == "ablation" || what == "all" {
		for _, plat := range platforms {
			rows, err := harness.FeatureAblation(db, plat, model)
			if err != nil {
				fail(err)
			}
			harness.WriteAblation(os.Stdout, rows)
			fmt.Println()
		}
	}
	if what == "oracle" || what == "all" {
		var rows []harness.OracleGapRow
		for _, plat := range platforms {
			rows = append(rows, harness.OracleGap(db, plat))
		}
		harness.WriteOracleGap(os.Stdout, rows)
		fmt.Println()
	}
	if what == "dynamic" || what == "all" {
		progs := []string{"vecadd", "matmul", "blackscholes", "mandelbrot", "nbody", "stencil2d"}
		for _, plat := range platforms {
			rows, err := harness.DynamicComparison(plat, progs, 20)
			if err != nil {
				fail(err)
			}
			harness.WriteDynamic(os.Stdout, rows)
			fmt.Println()
		}
	}
	if what == "steps" || what == "all" {
		for _, plat := range platforms {
			rows, err := harness.StepAblation(plat, []string{"vecadd", "matmul", "blackscholes"}, []int{2, 4, 10, 20})
			if err != nil {
				fail(err)
			}
			harness.WriteSteps(os.Stdout, rows)
			fmt.Println()
		}
	}
}

func loadOrGenerate(path string) (*harness.DB, error) {
	if _, err := os.Stat(path); err == nil {
		fmt.Fprintf(os.Stderr, "loading %s\n", path)
		return harness.LoadDB(path)
	}
	fmt.Fprintf(os.Stderr, "generating training database (this takes a few minutes)...\n")
	db, err := harness.Generate(harness.GenOptions{Log: os.Stderr})
	if err != nil {
		return nil, err
	}
	if err := db.Save(path); err != nil {
		return nil, err
	}
	return db, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
