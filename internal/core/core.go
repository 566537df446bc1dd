// Package core is the user-facing facade of the framework: the paper's
// primary contribution assembled as a library.
//
// It wires the pipeline together end to end:
//
//	source  --compile-->  INSPIRE IR  --analyze-->  static features
//	                        |                          |
//	                        v                          v
//	                  multi-device plan        +  runtime features
//	                        |                          |
//	                        v                          v
//	                   partitioned run  <--predict--  trained model
//
// A Framework is bound to one platform (mc1 or mc2). Training uses the
// harness database; deployment compiles a (possibly unseen) program,
// collects its features for the requested problem size, predicts the best
// task partitioning, and executes the kernel partitioned across the
// platform's devices.
package core

import (
	"fmt"
	"slices"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/features"
	"repro/internal/harness"
	"repro/internal/ml"
	"repro/internal/partition"
	"repro/internal/runtime"
)

// Program is a compiled single-device OpenCL (MiniCL) program together
// with everything the framework derived from it (bench.Front): the IR,
// the static features, the multi-device plan and the executable kernel.
type Program struct {
	Name string
	*bench.Front
}

// CompileSource runs the full front end (bench.Compile) on MiniCL
// source. kernel selects the kernel function; the empty string picks
// the first kernel.
func CompileSource(name, src, kernel string) (*Program, error) {
	f, err := bench.Compile(name, src, kernel)
	if err != nil {
		return nil, err
	}
	return &Program{Name: name, Front: f}, nil
}

// LaunchSpec describes one execution of a program at a problem size.
type LaunchSpec struct {
	Args []exec.Arg
	ND   exec.NDRange
	// Iterations is the application's kernel launch count (default 1).
	Iterations int
	// Budget, when non-nil, bounds host execution of the launch.
	Budget *exec.Budget
}

// Framework is the trained partitioning system for one platform.
type Framework struct {
	Platform *device.Platform
	Runtime  *runtime.Runtime

	space    []partition.Partition
	artifact *ml.Artifact
}

// New creates an untrained framework for the platform.
func New(plat *device.Platform) (*Framework, error) {
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	return &Framework{
		Platform: plat,
		Runtime:  runtime.New(plat),
		space:    partition.SharedSpace(plat.NumDevices(), partition.DefaultSteps),
	}, nil
}

// Train fits the prediction model from a harness database (offline
// training phase). Records for other platforms are ignored. The trained
// model is kept as a serializable artifact (see Artifact) so deployment
// engines can persist it and skip retraining on later runs.
func (f *Framework) Train(db *harness.DB, mk ml.NewModel) error {
	a, err := f.Fit(db.Dataset(f.Platform.Name, nil), db.Space, mk)
	if err != nil {
		return err
	}
	f.artifact = a
	return nil
}

// Fit trains an artifact for the framework's platform on data, whose
// class indices name the partitions of space, stamps it with the
// platform and the class space, and admits it (CheckArtifact): a space
// other than the framework's would map the model's classes to the wrong
// partitions. Train, the deployment engine's fallback training and the
// retrainer's promoted candidate all fit here.
func (f *Framework) Fit(data *ml.Dataset, space []string, mk ml.NewModel) (*ml.Artifact, error) {
	if data.Len() == 0 {
		return nil, fmt.Errorf("core: no training records for %q", f.Platform.Name)
	}
	a, err := ml.TrainArtifact(data, mk)
	if err != nil {
		return nil, err
	}
	a.Platform = f.Platform.Name
	a.Space = append([]string{}, space...)
	if err := f.CheckArtifact(a); err != nil {
		return nil, err
	}
	return a, nil
}

// Artifact returns the trained model artifact (nil before Train). Save it
// with ml.SaveArtifact to make training survive the process.
func (f *Framework) Artifact() *ml.Artifact { return f.artifact }

// featureNames is the feature schema this binary extracts, in vector
// order (features.Combined).
var featureNames = slices.Concat(features.StaticNames, features.RuntimeNames)

// CheckArtifact validates that an artifact can serve predictions on this
// framework's platform: the platform must match, the artifact's class
// space (when recorded) must be exactly the framework's partition space,
// or its class indices would silently map to the wrong partitions, and
// its feature schema (when recorded) must be exactly the one this binary
// extracts, same names in the same order, or the scaler's per-position
// statistics would apply to the wrong features. Every way a model enters
// service runs it once: Fit, and the deployment engine's artifact load.
func (f *Framework) CheckArtifact(a *ml.Artifact) error {
	if a == nil || a.Model == nil {
		return fmt.Errorf("core: artifact has no model")
	}
	if a.Platform != "" && a.Platform != f.Platform.Name {
		return fmt.Errorf("core: artifact trained for platform %q, framework is %q", a.Platform, f.Platform.Name)
	}
	if len(a.Space) != 0 {
		if len(a.Space) != len(f.space) {
			return fmt.Errorf("core: artifact class space has %d partitions, framework has %d", len(a.Space), len(f.space))
		}
		for i, s := range a.Space {
			if s != f.space[i].String() {
				return fmt.Errorf("core: artifact class %d is partition %q, framework has %q", i, s, f.space[i])
			}
		}
	}
	if names := a.FeatureNames; len(names) != 0 {
		i := 0
		for i < len(names) && i < len(featureNames) && names[i] == featureNames[i] {
			i++
		}
		switch {
		case i < len(names) && i < len(featureNames):
			return fmt.Errorf("core: artifact feature %d is %q, this binary extracts %q", i, names[i], featureNames[i])
		case i < len(names):
			return fmt.Errorf("core: artifact expects %d features, this binary extracts %d: feature %d %q is extra", len(names), len(featureNames), i, names[i])
		case i < len(featureNames):
			return fmt.Errorf("core: artifact expects %d features, this binary extracts %d: feature %d %q is missing", len(names), len(featureNames), i, featureNames[i])
		}
	}
	return nil
}

// Trained reports whether a model has been fitted.
func (f *Framework) Trained() bool { return f.artifact != nil }

// ModelName names the fitted model family, or "none".
func (f *Framework) ModelName() string {
	if f.artifact == nil {
		return "none"
	}
	return f.artifact.Model.Name()
}

// Features compiles the feature vector for a program at a problem size.
// Collecting the runtime (problem size dependent) features requires one
// profiled execution, mirroring the paper's runtime feature collection;
// the profile is returned for reuse.
func (f *Framework) Features(p *Program, spec LaunchSpec) (features.Vector, *exec.Profile, error) {
	l := f.launch(p, spec)
	prof, err := f.Runtime.Profile(l)
	if err != nil {
		return features.Vector{}, nil, err
	}
	fv := features.Combined(p.Static, features.RuntimeInput{
		Profile:    prof,
		Plan:       p.Plan,
		Args:       spec.Args,
		Iterations: spec.Iterations,
	})
	return fv, prof, nil
}

// PredictClass returns the model's raw class for a feature vector plus
// the in-range class actually served (out-of-range predictions clamp to
// class 0; callers that care inspect raw != served).
func (f *Framework) PredictClass(x []float64) (served, raw int, err error) {
	if !f.Trained() {
		return 0, 0, fmt.Errorf("core: framework is not trained")
	}
	raw = f.artifact.Predict(x)
	served = raw
	if served < 0 || served >= len(f.space) {
		served = 0
	}
	return served, raw, nil
}

// ClassPartition maps a served class index to its partition.
func (f *Framework) ClassPartition(cls int) partition.Partition { return f.space[cls] }

// NumClasses returns the size of the framework's partition space — the
// one source of truth for the valid class range [0, NumClasses).
func (f *Framework) NumClasses() int { return len(f.space) }

// predict returns the model's class for a program at a problem size,
// along with the profile of the one run feature extraction made.
func (f *Framework) predict(p *Program, spec LaunchSpec) (int, *exec.Profile, error) {
	if !f.Trained() {
		return 0, nil, fmt.Errorf("core: framework is not trained")
	}
	fv, prof, err := f.Features(p, spec)
	if err != nil {
		return 0, nil, err
	}
	cls, _, err := f.PredictClass(fv.Values)
	return cls, prof, err
}

// Report summarizes one framework-guided execution.
type Report struct {
	Partition partition.Partition
	// Makespan is the simulated wall time under the predicted partitioning.
	Makespan float64
	// CPUOnly, GPUOnly and Oracle are the reference simulated times.
	CPUOnly float64
	GPUOnly float64
	Oracle  float64
	// OraclePartition is the exhaustive-search optimum.
	OraclePartition partition.Partition
}

// SpeedupVsCPU returns CPUOnly/Makespan.
func (r *Report) SpeedupVsCPU() float64 { return r.CPUOnly / r.Makespan }

// SpeedupVsGPU returns GPUOnly/Makespan.
func (r *Report) SpeedupVsGPU() float64 { return r.GPUOnly / r.Makespan }

// Run executes the program under the model-predicted partitioning
// (deployment phase). The kernel runs once: the profiling run that feeds
// the features writes the outputs to the buffers in spec.Args, and under
// the byte-identity contract a partitioned run computes exactly the same,
// so the partitioning only prices. The report reads the profile's oracle
// label: the prediction against the default strategies and the oracle.
func (f *Framework) Run(p *Program, spec LaunchSpec) (*Report, error) {
	cls, prof, err := f.predict(p, spec)
	if err != nil {
		return nil, err
	}
	lb, err := f.Runtime.Label(f.launch(p, spec), prof, f.space)
	if err != nil {
		return nil, err
	}
	return &Report{
		Partition:       f.space[cls],
		Makespan:        lb.Times[cls],
		CPUOnly:         lb.Times[lb.CPUOnly],
		GPUOnly:         lb.Times[lb.GPUOnly],
		Oracle:          lb.Times[lb.Best],
		OraclePartition: f.space[lb.Best],
	}, nil
}

func (f *Framework) launch(p *Program, spec LaunchSpec) runtime.Launch {
	return runtime.Launch{
		Kernel:     p.Compiled,
		Plan:       p.Plan,
		Args:       spec.Args,
		ND:         spec.ND,
		Iterations: spec.Iterations,
		Budget:     spec.Budget,
	}
}
