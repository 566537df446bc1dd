package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/features"
	"repro/internal/harness"
	"repro/internal/ml"
)

const triadSrc = `
kernel void triad(global const float* a, global const float* b, global float* c,
                  float s, int n) {
	int i = get_global_id(0);
	if (i < n) {
		c[i] = a[i] + s * b[i];
	}
}`

func smallDB(t *testing.T) *harness.DB {
	t.Helper()
	db, err := harness.Generate(harness.GenOptions{
		Programs:   []string{"vecadd", "matmul", "blackscholes", "mandelbrot"},
		MaxSizeIdx: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCompileSource(t *testing.T) {
	p, err := CompileSource("triad", triadSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	if p.Kernel != "triad" {
		t.Errorf("kernel = %q", p.Kernel)
	}
	if p.Static.GlobalLoads != 2 || p.Static.GlobalStores != 1 {
		t.Errorf("static counts loads/stores = %d/%d", p.Static.GlobalLoads, p.Static.GlobalStores)
	}
	if len(p.Plan.Usages) != 3 {
		t.Errorf("plan has %d buffer usages, want 3", len(p.Plan.Usages))
	}
}

func TestCompileSourceErrors(t *testing.T) {
	if _, err := CompileSource("bad", "kernel void f( {", ""); err == nil {
		t.Error("syntax error accepted")
	}
	if _, err := CompileSource("triad", triadSrc, "nosuch"); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestFrameworkEndToEnd(t *testing.T) {
	db := smallDB(t)
	fw, err := New(device.MC2())
	if err != nil {
		t.Fatal(err)
	}
	if fw.Trained() {
		t.Error("untrained framework claims to be trained")
	}
	if err := fw.Train(db, func() ml.Classifier { return ml.NewKNN(5) }); err != nil {
		t.Fatal(err)
	}
	if !fw.Trained() || fw.ModelName() != "knn5" {
		t.Errorf("trained=%t model=%s", fw.Trained(), fw.ModelName())
	}

	// Deploy on a program that was NOT in the training set.
	p, err := CompileSource("triad", triadSrc, "triad")
	if err != nil {
		t.Fatal(err)
	}
	n := 65536
	a, b, c := exec.NewFloatBuffer(n), exec.NewFloatBuffer(n), exec.NewFloatBuffer(n)
	for i := 0; i < n; i++ {
		a.F[i] = float32(i % 100)
		b.F[i] = float32(i % 7)
	}
	spec := LaunchSpec{
		Args: []exec.Arg{exec.BufArg(a), exec.BufArg(b), exec.BufArg(c), exec.FloatArg(2), exec.IntArg(n)},
		ND:   exec.ND1(n),
	}
	rep, err := fw.Run(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Correctness of the partitioned execution.
	for i := 0; i < n; i++ {
		want := a.F[i] + 2*b.F[i]
		if c.F[i] != want {
			t.Fatalf("c[%d] = %g, want %g", i, c.F[i], want)
		}
	}
	if rep.Makespan <= 0 || rep.Oracle <= 0 {
		t.Error("empty report")
	}
	if rep.Oracle > rep.Makespan*1.0000001 {
		t.Error("oracle worse than prediction")
	}
	if rep.Makespan > rep.CPUOnly*3 && rep.Makespan > rep.GPUOnly*3 {
		t.Errorf("prediction catastrophically bad: pred %g cpu %g gpu %g",
			rep.Makespan, rep.CPUOnly, rep.GPUOnly)
	}
}

func TestPredictRequiresTraining(t *testing.T) {
	fw, err := New(device.MC1())
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileSource("triad", triadSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	n := 1024
	spec := LaunchSpec{
		Args: []exec.Arg{
			exec.BufArg(exec.NewFloatBuffer(n)), exec.BufArg(exec.NewFloatBuffer(n)),
			exec.BufArg(exec.NewFloatBuffer(n)), exec.FloatArg(1), exec.IntArg(n)},
		ND: exec.ND1(n),
	}
	if _, err := fw.Run(p, spec); err == nil {
		t.Error("Run on untrained framework should fail")
	}
	// Features work without training.
	fv, prof, err := fw.Features(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(fv.Values) == 0 || prof.Total().Items != int64(n) {
		t.Error("features/profile malformed")
	}
}

func TestTrainWrongPlatform(t *testing.T) {
	db, err := harness.Generate(harness.GenOptions{
		Programs:   []string{"vecadd"},
		MaxSizeIdx: 1,
		Platforms:  []*device.Platform{device.MC1()},
	})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(device.MC2())
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Train(db, func() ml.Classifier { return ml.NewKNN(3) }); err == nil {
		t.Error("training on a database lacking the platform should fail")
	}
}

func TestUseArtifact(t *testing.T) {
	db := smallDB(t)
	fw, err := New(device.MC2())
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Train(db, func() ml.Classifier { return ml.NewKNN(5) }); err != nil {
		t.Fatal(err)
	}
	art := fw.Artifact()
	if art == nil || art.Platform != "mc2" || len(art.Space) != 66 {
		t.Fatalf("trained artifact metadata: %+v", art)
	}

	// A fresh framework accepts the artifact and, serving it without
	// training (as the deployment engine does), predicts identically.
	fw2, err := New(device.MC2())
	if err != nil {
		t.Fatal(err)
	}
	if err := fw2.CheckArtifact(art); err != nil {
		t.Fatal(err)
	}
	fw2.artifact = art
	if !fw2.Trained() || fw2.ModelName() != "knn5" {
		t.Errorf("trained=%t model=%s", fw2.Trained(), fw2.ModelName())
	}
	for _, rec := range db.PlatformRecords("mc2") {
		a, rawA, err := fw.PredictClass(rec.Features)
		if err != nil {
			t.Fatal(err)
		}
		b, rawB, err := fw2.PredictClass(rec.Features)
		if err != nil {
			t.Fatal(err)
		}
		if a != b || rawA != rawB {
			t.Fatalf("%s: trained predicts %d/%d, adopted artifact %d/%d", rec.Program, a, rawA, b, rawB)
		}
	}

	// Incompatible artifacts are rejected.
	fwMC1, err := New(device.MC1())
	if err != nil {
		t.Fatal(err)
	}
	if err := fwMC1.CheckArtifact(art); err == nil {
		t.Error("mc2 artifact accepted on mc1 framework")
	}
	bad := *art
	bad.Space = append([]string{}, art.Space...)
	bad.Space[3] = "1/2/3"
	if err := fw2.CheckArtifact(&bad); err == nil {
		t.Error("artifact with mismatched class space accepted")
	}
	if err := fw2.CheckArtifact(&ml.Artifact{}); err == nil {
		t.Error("artifact without model accepted")
	}
}

// TestFitChecksFeatureSchema: a model whose feature schema is not the one
// this binary extracts, same names in the same order, never leaves Fit,
// and CheckArtifact refuses it with an error naming the first feature
// that differs: one missing, one extra or one renamed. An artifact that
// records no schema is not checked against one.
func TestFitChecksFeatureSchema(t *testing.T) {
	fw, err := New(device.MC2())
	if err != nil {
		t.Fatal(err)
	}
	space := make([]string, fw.NumClasses())
	for i := range space {
		space[i] = fw.ClassPartition(i).String()
	}
	names := slices.Concat(features.StaticNames, features.RuntimeNames)
	n := len(names)
	renamed := slices.Clone(names)
	renamed[3] = "s_renamed"
	for _, tc := range []struct {
		name  string
		names []string
		want  string // in the error; "" = admitted
	}{
		{"extracted", names, ""},
		{"missing", names[:n-1], fmt.Sprintf("feature %d %q is missing", n-1, names[n-1])},
		{"extra", append(slices.Clone(names), "r_extra"), fmt.Sprintf("feature %d \"r_extra\" is extra", n)},
		{"renamed", renamed, fmt.Sprintf("feature 3 is \"s_renamed\", this binary extracts %q", names[3])},
	} {
		data := &ml.Dataset{Names: tc.names, Y: []int{0, 1}}
		for i := range data.Y {
			x := make([]float64, len(tc.names))
			x[0] = float64(i)
			data.X = append(data.X, x)
		}
		a, err := fw.Fit(data, space, func() ml.Classifier { return ml.NewKNN(1) })
		if tc.want == "" {
			if err != nil || a.Platform != "mc2" || !slices.Equal(a.Space, space) {
				t.Errorf("%s: Fit = %+v, %v; want an artifact stamped mc2 and the space", tc.name, a, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Fit error %v, want one containing %q", tc.name, err, tc.want)
		}
		a, err = ml.TrainArtifact(data, func() ml.Classifier { return ml.NewKNN(1) })
		if err != nil {
			t.Fatal(err)
		}
		if err := fw.CheckArtifact(a); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckArtifact error %v, want one containing %q", tc.name, err, tc.want)
		}
		a.FeatureNames = nil
		if err := fw.CheckArtifact(a); err != nil {
			t.Errorf("%s: an artifact recording no schema refused: %v", tc.name, err)
		}
	}
}
