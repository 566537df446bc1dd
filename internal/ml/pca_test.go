package ml

import (
	"math"
	"math/rand"
	"testing"
)

// anisotropicData builds samples stretched along a known direction.
func anisotropicData(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Names: []string{"a", "b", "c"}}
	// Dominant direction (1,1,0)/sqrt2, minor (0,0,1).
	for i := 0; i < n; i++ {
		t := rng.NormFloat64() * 10
		u := rng.NormFloat64()
		d.X = append(d.X, []float64{
			t/math.Sqrt2 + rng.NormFloat64()*0.01,
			t/math.Sqrt2 + rng.NormFloat64()*0.01,
			u,
		})
		d.Y = append(d.Y, 0)
	}
	return d
}

func TestPCARecoversDominantDirection(t *testing.T) {
	d := anisotropicData(500, 1)
	p, err := FitPCA(d, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Components) != 2 {
		t.Fatalf("got %d components", len(p.Components))
	}
	c0 := p.Components[0]
	// First component should align with (1,1,0)/sqrt2 up to sign.
	dot := math.Abs(c0[0]/math.Sqrt2 + c0[1]/math.Sqrt2)
	if dot < 0.99 {
		t.Errorf("first component %v misaligned with (1,1,0) (|dot| = %.3f)", c0, dot)
	}
	total := 0.0
	for _, e := range p.Explained {
		total += e
	}
	if ratio := p.Explained[0] / total; ratio < 0.9 {
		t.Errorf("dominant component explains only %.2f of variance", ratio)
	}
}

func TestPCAOrthogonality(t *testing.T) {
	d := synthDataset(300, 2)
	p, err := FitPCA(d, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(p.Components); i++ {
		// Unit norm.
		n := 0.0
		for _, v := range p.Components[i] {
			n += v * v
		}
		if math.Abs(n-1) > 1e-6 {
			t.Errorf("component %d norm^2 = %g", i, n)
		}
		for j := i + 1; j < len(p.Components); j++ {
			dot := 0.0
			for k := range p.Components[i] {
				dot += p.Components[i][k] * p.Components[j][k]
			}
			if math.Abs(dot) > 1e-4 {
				t.Errorf("components %d,%d not orthogonal (dot %g)", i, j, dot)
			}
		}
	}
}

func TestPCATransformDataset(t *testing.T) {
	d := synthDataset(100, 3)
	p, err := FitPCA(d, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	td := p.TransformDataset(d)
	if td.Dim() != 2 {
		t.Fatalf("projected dim %d, want 2", td.Dim())
	}
	if td.Len() != d.Len() {
		t.Error("sample count changed")
	}
	if td.Names[0] != "pc0" || td.Names[1] != "pc1" {
		t.Errorf("names %v", td.Names)
	}
	// Labels preserved.
	for i := range td.Y {
		if td.Y[i] != d.Y[i] {
			t.Fatal("labels lost")
		}
	}
}

func TestPCADeterministic(t *testing.T) {
	d := synthDataset(200, 4)
	p1, _ := FitPCA(d, 3, 9)
	p2, _ := FitPCA(d, 3, 9)
	for i := range p1.Components {
		for j := range p1.Components[i] {
			if p1.Components[i][j] != p2.Components[i][j] {
				t.Fatal("PCA not deterministic")
			}
		}
	}
}

func TestPCAClassifierPipeline(t *testing.T) {
	// Model quality should survive a PCA projection keeping the top
	// components of a standardized dataset.
	d := synthDataset(400, 5)
	sc := FitScaler(d)
	sd := sc.TransformDataset(d)
	p, err := FitPCA(sd, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	pd := p.TransformDataset(sd)
	m := NewKNN(5)
	if err := m.Fit(pd); err != nil {
		t.Fatal(err)
	}
	hit := 0
	for i, x := range pd.X {
		if m.Predict(x) == pd.Y[i] {
			hit++
		}
	}
	if acc := float64(hit) / float64(pd.Len()); acc < 0.85 {
		t.Errorf("PCA pipeline accuracy %.2f", acc)
	}
}

func TestPCAEmptyErrors(t *testing.T) {
	if _, err := FitPCA(&Dataset{Names: []string{"a"}}, 1, 1); err == nil {
		t.Error("PCA on empty dataset should fail")
	}
}
