// Package ml implements the offline-trained prediction models of the
// paper's training phase: given a combined static+runtime feature vector,
// predict the best task partitioning (a class out of the discretized
// partitioning space).
//
// The paper says only "machine learning"; the Insieme line of work used
// artificial neural networks. This package provides five model families —
// k-nearest-neighbours, CART decision trees, random forests, multinomial
// logistic regression and a single-hidden-layer MLP — so the model
// comparison experiment (DESIGN.md T4) can justify the default (MLP).
//
// Everything is deterministic: models take explicit seeds and no global
// randomness is used.
package ml

import (
	"fmt"
	"math"
)

// Dataset is a labelled feature matrix. Group tags samples by the program
// they come from, enabling leave-one-program-out cross validation (the
// deployment scenario: predict for an unseen program).
type Dataset struct {
	Names  []string    // feature names, len = feature dimension
	X      [][]float64 // samples x features
	Y      []int       // class labels (indices into the partition space)
	Groups []string    // program name per sample
	// Soft optionally holds per-sample target distributions over classes
	// (cost-sensitive labels: near-optimal partitionings carry probability
	// mass proportional to how close their measured time is to the
	// oracle). Models that support distribution targets (MLP) use Soft
	// when present; others fall back to Y. Rows must sum to 1.
	Soft [][]float64
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Dim returns the feature dimension.
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return len(d.Names)
	}
	return len(d.X[0])
}

// NumClasses returns 1 + the maximum label, or the soft-target width when
// distribution labels are present (they span the whole class space).
func (d *Dataset) NumClasses() int {
	m := 0
	for _, y := range d.Y {
		if y+1 > m {
			m = y + 1
		}
	}
	if len(d.Soft) > 0 && len(d.Soft[0]) > m {
		m = len(d.Soft[0])
	}
	return m
}

// Validate checks structural consistency.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("ml: %d samples but %d labels", len(d.X), len(d.Y))
	}
	if len(d.Groups) != 0 && len(d.Groups) != len(d.X) {
		return fmt.Errorf("ml: %d samples but %d groups", len(d.X), len(d.Groups))
	}
	dim := d.Dim()
	for i, x := range d.X {
		if len(x) != dim {
			return fmt.Errorf("ml: sample %d has %d features, want %d", i, len(x), dim)
		}
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: sample %d feature %d is %v", i, j, v)
			}
		}
		if d.Y[i] < 0 {
			return fmt.Errorf("ml: sample %d has negative label", i)
		}
	}
	return nil
}

// Subset returns the dataset restricted to the given sample indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{Names: d.Names}
	for _, i := range idx {
		out.X = append(out.X, d.X[i])
		out.Y = append(out.Y, d.Y[i])
		if len(d.Groups) > 0 {
			out.Groups = append(out.Groups, d.Groups[i])
		}
		if len(d.Soft) > 0 {
			out.Soft = append(out.Soft, d.Soft[i])
		}
	}
	return out
}

// SplitByGroup partitions sample indices into held-out (group == name) and
// the rest.
func (d *Dataset) SplitByGroup(name string) (train, test []int) {
	for i, g := range d.Groups {
		if g == name {
			test = append(test, i)
		} else {
			train = append(train, i)
		}
	}
	return train, test
}

// GroupNames returns the distinct group names in first-seen order.
func (d *Dataset) GroupNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, g := range d.Groups {
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	return out
}

// Classifier is a trained or trainable classification model.
type Classifier interface {
	// Fit trains the model. The dataset must be non-empty and scaled
	// consistently with later Predict inputs.
	Fit(d *Dataset) error
	// Predict returns the class for one feature vector.
	Predict(x []float64) int
	// Name identifies the model family for reports.
	Name() string
}

// Scaler standardizes features to zero mean and unit variance, the usual
// preconditioning for distance- and gradient-based models.
type Scaler struct {
	Mean []float64
	Std  []float64
}

// FitScaler computes per-feature statistics over the dataset.
func FitScaler(d *Dataset) *Scaler {
	dim := d.Dim()
	s := &Scaler{Mean: make([]float64, dim), Std: make([]float64, dim)}
	n := float64(len(d.X))
	if n == 0 {
		for j := range s.Std {
			s.Std[j] = 1
		}
		return s
	}
	for _, x := range d.X {
		for j, v := range x {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, x := range d.X {
		for j, v := range x {
			dv := v - s.Mean[j]
			s.Std[j] += dv * dv
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] < 1e-9 {
			s.Std[j] = 1 // constant feature: leave centred at zero
		}
	}
	return s
}

// Transform returns the standardized copy of x.
func (s *Scaler) Transform(x []float64) []float64 {
	dst := make([]float64, len(x))
	for j, v := range x {
		dst[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return dst
}

// TransformDataset returns a standardized copy of the dataset.
func (s *Scaler) TransformDataset(d *Dataset) *Dataset {
	out := &Dataset{Names: d.Names, Y: append([]int{}, d.Y...), Soft: d.Soft}
	if len(d.Groups) > 0 {
		out.Groups = append([]string{}, d.Groups...)
	}
	for _, x := range d.X {
		out.X = append(out.X, s.Transform(x))
	}
	return out
}

// argmax returns the index of the largest value.
func argmax(v []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// majority returns the most frequent label, breaking ties toward the
// smaller label for determinism.
func majority(labels []int, numClasses int) int {
	counts := make([]int, numClasses)
	for _, y := range labels {
		if y >= len(counts) {
			grown := make([]int, y+1)
			copy(grown, counts)
			counts = grown
		}
		counts[y]++
	}
	best, bi := -1, 0
	for c, n := range counts {
		if n > best {
			best, bi = n, c
		}
	}
	return bi
}
