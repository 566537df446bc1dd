package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthDataset builds a separable 3-class problem: class = quadrant-ish
// function of two informative features plus noise dimensions.
func synthDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Names: []string{"f0", "f1", "noise0", "noise1"}}
	for i := 0; i < n; i++ {
		x0 := rng.Float64()*4 - 2
		x1 := rng.Float64()*4 - 2
		var y int
		switch {
		case x0 > 0 && x1 > 0:
			y = 0
		case x0 <= 0 && x1 > 0:
			y = 1
		default:
			y = 2
		}
		d.X = append(d.X, []float64{x0, x1, rng.NormFloat64(), rng.NormFloat64()})
		d.Y = append(d.Y, y)
		d.Groups = append(d.Groups, []string{"ga", "gb", "gc", "gd"}[i%4])
	}
	return d
}

func trainAccuracy(t *testing.T, m Classifier, d *Dataset) float64 {
	t.Helper()
	sc := FitScaler(d)
	sd := sc.TransformDataset(d)
	if err := m.Fit(sd); err != nil {
		t.Fatal(err)
	}
	hit := 0
	for i, x := range sd.X {
		if m.Predict(x) == sd.Y[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(sd.X))
}

func TestModelsLearnSeparableProblem(t *testing.T) {
	d := synthDataset(400, 1)
	models := []Classifier{
		NewKNN(5),
		NewTree(),
		NewForest(30, 7),
		NewMLP(16, 7),
		NewLogReg(7),
	}
	for _, m := range models {
		acc := trainAccuracy(t, m, d)
		if acc < 0.9 {
			t.Errorf("%s train accuracy %.2f, want >= 0.9", m.Name(), acc)
		}
	}
}

func TestModelsGeneralize(t *testing.T) {
	train := synthDataset(400, 2)
	test := synthDataset(100, 99)
	for _, mk := range []NewModel{
		func() Classifier { return NewKNN(5) },
		func() Classifier { return NewForest(30, 3) },
		func() Classifier { return NewMLP(16, 3) },
	} {
		sc := FitScaler(train)
		m := mk()
		if err := m.Fit(sc.TransformDataset(train)); err != nil {
			t.Fatal(err)
		}
		hit := 0
		for i, x := range test.X {
			if m.Predict(sc.Transform(x)) == test.Y[i] {
				hit++
			}
		}
		acc := float64(hit) / float64(len(test.X))
		if acc < 0.85 {
			t.Errorf("%s test accuracy %.2f, want >= 0.85", m.Name(), acc)
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	d := synthDataset(200, 3)
	test := synthDataset(50, 50)
	for _, mk := range []NewModel{
		func() Classifier { return NewForest(20, 11) },
		func() Classifier { return NewMLP(8, 11) },
		func() Classifier { return NewLogReg(11) },
		func() Classifier { return NewTree() },
		func() Classifier { return NewKNN(3) },
	} {
		a1, err := TrainArtifact(d, mk)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := TrainArtifact(d, mk)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range test.X {
			if a1.Predict(x) != a2.Predict(x) {
				t.Fatalf("%s: nondeterministic prediction", mk().Name())
			}
		}
	}
}

func TestLeaveOneGroupOut(t *testing.T) {
	d := synthDataset(400, 4)
	res, err := LeaveOneGroupOut(d, func() Classifier { return NewKNN(5) })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Folds) != 4 {
		t.Fatalf("got %d folds, want 4", len(res.Folds))
	}
	total := 0
	for _, f := range res.Folds {
		total += len(f.Actual)
		if len(f.Predicted) != len(f.Actual) || len(f.TestIdx) != len(f.Actual) {
			t.Fatal("fold shape mismatch")
		}
	}
	if total != d.Len() {
		t.Errorf("folds cover %d samples, want %d", total, d.Len())
	}
	if acc := res.Accuracy(); acc < 0.85 {
		t.Errorf("LOGO accuracy %.2f, want >= 0.85 on separable data", acc)
	}
}

func TestLeaveOneGroupOutErrors(t *testing.T) {
	d := synthDataset(20, 5)
	d.Groups = nil
	if _, err := LeaveOneGroupOut(d, func() Classifier { return NewKNN(1) }); err == nil {
		t.Error("want error without groups")
	}
	d2 := synthDataset(20, 5)
	for i := range d2.Groups {
		d2.Groups[i] = "only"
	}
	if _, err := LeaveOneGroupOut(d2, func() Classifier { return NewKNN(1) }); err == nil {
		t.Error("want error with a single group")
	}
}

func TestScalerProperties(t *testing.T) {
	d := synthDataset(300, 6)
	sc := FitScaler(d)
	sd := sc.TransformDataset(d)
	dim := d.Dim()
	for j := 0; j < dim; j++ {
		mean, variance := 0.0, 0.0
		for _, x := range sd.X {
			mean += x[j]
		}
		mean /= float64(len(sd.X))
		for _, x := range sd.X {
			variance += (x[j] - mean) * (x[j] - mean)
		}
		variance /= float64(len(sd.X))
		if math.Abs(mean) > 1e-9 {
			t.Errorf("feature %d scaled mean %g, want 0", j, mean)
		}
		if math.Abs(variance-1) > 1e-6 {
			t.Errorf("feature %d scaled variance %g, want 1", j, variance)
		}
	}
}

func TestScalerConstantFeature(t *testing.T) {
	d := &Dataset{
		Names: []string{"c", "v"},
		X:     [][]float64{{5, 1}, {5, 2}, {5, 3}},
		Y:     []int{0, 1, 0},
	}
	sc := FitScaler(d)
	out := sc.Transform([]float64{5, 2})
	if out[0] != 0 {
		t.Errorf("constant feature scaled to %g, want 0", out[0])
	}
	if math.IsNaN(out[1]) {
		t.Error("NaN in scaled output")
	}
}

func TestScalerTransformProperty(t *testing.T) {
	d := synthDataset(100, 8)
	sc := FitScaler(d)
	clamp := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		// Keep magnitudes physical; (x-mean)/std with std < 1 overflows
		// near MaxFloat64, which is not a regime feature vectors reach.
		return math.Mod(v, 1e12)
	}
	f := func(a, b, c, e float64) bool {
		x := []float64{clamp(a), clamp(b), clamp(c), clamp(e)}
		y := sc.Transform(x)
		// Invertibility: x == y*std + mean.
		for j := range x {
			back := y[j]*sc.Std[j] + sc.Mean[j]
			if math.Abs(back-x[j]) > 1e-6*(1+math.Abs(x[j])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDatasetValidate(t *testing.T) {
	good := synthDataset(10, 9)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad1 := synthDataset(10, 9)
	bad1.Y = bad1.Y[:5]
	if err := bad1.Validate(); err == nil {
		t.Error("mismatched labels validated")
	}
	bad2 := synthDataset(10, 9)
	bad2.X[3] = []float64{1}
	if err := bad2.Validate(); err == nil {
		t.Error("ragged matrix validated")
	}
	bad3 := synthDataset(10, 9)
	bad3.X[0][0] = math.NaN()
	if err := bad3.Validate(); err == nil {
		t.Error("NaN feature validated")
	}
	bad4 := synthDataset(10, 9)
	bad4.Y[0] = -1
	if err := bad4.Validate(); err == nil {
		t.Error("negative label validated")
	}
}

func TestEmptyFitErrors(t *testing.T) {
	empty := &Dataset{Names: []string{"a"}}
	for _, m := range []Classifier{NewKNN(3), NewTree(), NewForest(5, 1), NewMLP(4, 1), NewLogReg(1)} {
		if err := m.Fit(empty); err == nil {
			t.Errorf("%s accepted empty dataset", m.Name())
		}
	}
}

func TestTreeDepthBounded(t *testing.T) {
	d := synthDataset(500, 10)
	tr := NewTree()
	tr.MaxDepth = 3
	sc := FitScaler(d)
	if err := tr.Fit(sc.TransformDataset(d)); err != nil {
		t.Fatal(err)
	}
	var depth func(n *treeNode) int
	depth = func(n *treeNode) int {
		if n == nil || n.leaf {
			return 0
		}
		return 1 + max(depth(n.left), depth(n.right))
	}
	if got := depth(tr.root); got > 3 {
		t.Errorf("tree depth %d exceeds MaxDepth 3", got)
	}
}

func TestKNNSingleSample(t *testing.T) {
	d := &Dataset{
		Names: []string{"a"},
		X:     [][]float64{{1.0}},
		Y:     []int{4},
	}
	m := NewKNN(5)
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{0.9}); got != 4 {
		t.Errorf("Predict = %d, want 4", got)
	}
}

func TestMLPProbabilitiesSumToOne(t *testing.T) {
	d := synthDataset(200, 12)
	sc := FitScaler(d)
	m := NewMLP(8, 12)
	m.Epochs = 50
	if err := m.Fit(sc.TransformDataset(d)); err != nil {
		t.Fatal(err)
	}
	// The output layer Predict takes the argmax of.
	p := make([]float64, m.out)
	m.forward(sc.Transform(d.X[0]), make([]float64, m.Hidden), p)
	sum := 0.0
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Errorf("probability %g out of range", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %g", sum)
	}
}

func TestMajorityDeterministicTie(t *testing.T) {
	// Equal counts: smaller label wins.
	if got := majority([]int{2, 1, 1, 2}, 3); got != 1 {
		t.Errorf("majority tie = %d, want 1", got)
	}
}

func TestSubsetAndGroups(t *testing.T) {
	d := synthDataset(40, 13)
	sub := d.Subset([]int{0, 2, 4})
	if sub.Len() != 3 {
		t.Fatalf("subset len %d", sub.Len())
	}
	if sub.Groups[1] != d.Groups[2] {
		t.Error("subset lost group alignment")
	}
	names := d.GroupNames()
	if len(names) != 4 {
		t.Errorf("GroupNames = %v", names)
	}
}
