package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// PCA is principal component analysis by power iteration with deflation —
// the dimensionality-reduction preprocessing the Insieme work applied to
// feature vectors before model training. Inputs should be standardized
// (see Scaler) first.
type PCA struct {
	// Components holds the principal directions, one row per component.
	Components [][]float64
	// Explained holds the variance captured by each component.
	Explained []float64
	mean      []float64
}

// FitPCA computes the top-k principal components of the dataset's feature
// matrix. k is clamped to the feature dimension. The decomposition is
// deterministic (seeded power iteration).
func FitPCA(d *Dataset, k int, seed int64) (*PCA, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n, dim := d.Len(), d.Dim()
	if n == 0 {
		return nil, fmt.Errorf("ml: PCA on empty dataset")
	}
	if k <= 0 || k > dim {
		k = dim
	}
	p := &PCA{mean: make([]float64, dim)}
	for _, x := range d.X {
		for j, v := range x {
			p.mean[j] += v
		}
	}
	for j := range p.mean {
		p.mean[j] /= float64(n)
	}
	// Covariance matrix.
	cov := make([][]float64, dim)
	for i := range cov {
		cov[i] = make([]float64, dim)
	}
	for _, x := range d.X {
		for i := 0; i < dim; i++ {
			di := x[i] - p.mean[i]
			for j := i; j < dim; j++ {
				cov[i][j] += di * (x[j] - p.mean[j])
			}
		}
	}
	for i := 0; i < dim; i++ {
		for j := i; j < dim; j++ {
			cov[i][j] /= float64(n)
			cov[j][i] = cov[i][j]
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < k; c++ {
		vec, val := powerIterate(cov, rng)
		if val < 1e-12 {
			break // remaining variance is numerically zero
		}
		p.Components = append(p.Components, vec)
		p.Explained = append(p.Explained, val)
		// Deflate: cov -= val * vec vec^T.
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				cov[i][j] -= val * vec[i] * vec[j]
			}
		}
	}
	return p, nil
}

// powerIterate finds the dominant eigenpair of a symmetric matrix.
func powerIterate(m [][]float64, rng *rand.Rand) ([]float64, float64) {
	dim := len(m)
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.Float64() - 0.5
	}
	normalize(v)
	tmp := make([]float64, dim)
	val := 0.0
	for iter := 0; iter < 500; iter++ {
		for i := 0; i < dim; i++ {
			s := 0.0
			for j := 0; j < dim; j++ {
				s += m[i][j] * v[j]
			}
			tmp[i] = s
		}
		newVal := norm(tmp)
		if newVal < 1e-15 {
			return v, 0
		}
		for i := range tmp {
			tmp[i] /= newVal
		}
		delta := 0.0
		for i := range v {
			delta += math.Abs(tmp[i] - v[i])
		}
		copy(v, tmp)
		val = newVal
		if delta < 1e-12 {
			break
		}
	}
	return append([]float64{}, v...), val
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func normalize(v []float64) {
	n := norm(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}

// Transform projects one feature vector onto the components.
func (p *PCA) Transform(x []float64) []float64 {
	dst := make([]float64, len(p.Components))
	for c, comp := range p.Components {
		s := 0.0
		for j, v := range x {
			s += (v - p.mean[j]) * comp[j]
		}
		dst[c] = s
	}
	return dst
}

// TransformDataset projects the whole dataset, renaming features pc0..pcK.
func (p *PCA) TransformDataset(d *Dataset) *Dataset {
	out := &Dataset{Y: append([]int{}, d.Y...), Soft: d.Soft}
	if len(d.Groups) > 0 {
		out.Groups = append([]string{}, d.Groups...)
	}
	for c := range p.Components {
		out.Names = append(out.Names, fmt.Sprintf("pc%d", c))
	}
	for _, x := range d.X {
		out.X = append(out.X, p.Transform(x))
	}
	return out
}
