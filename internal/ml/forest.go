package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Forest is a random forest: bagged CART trees with per-split feature
// subsampling and majority voting.
type Forest struct {
	Trees      int
	MaxDepth   int
	MinSamples int
	Seed       int64

	trees []*Tree
	n     int
}

// NewForest builds a forest with sensible defaults.
func NewForest(trees int, seed int64) *Forest {
	if trees <= 0 {
		trees = 50
	}
	return &Forest{Trees: trees, MaxDepth: 12, MinSamples: 2, Seed: seed}
}

// Name implements Classifier.
func (f *Forest) Name() string { return fmt.Sprintf("forest%d", f.Trees) }

// Fit implements Classifier.
func (f *Forest) Fit(d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if d.Len() == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	f.n = d.NumClasses()
	rng := rand.New(rand.NewSource(f.Seed))
	maxFeat := int(math.Ceil(math.Sqrt(float64(d.Dim()))))
	f.trees = f.trees[:0]
	for i := 0; i < f.Trees; i++ {
		// Bootstrap sample.
		idx := make([]int, d.Len())
		for j := range idx {
			idx[j] = rng.Intn(d.Len())
		}
		bag := d.Subset(idx)
		t := &Tree{
			MaxDepth:    f.MaxDepth,
			MinSamples:  f.MinSamples,
			MaxFeatures: maxFeat,
			Seed:        rng.Int63(),
		}
		if err := t.Fit(bag); err != nil {
			return err
		}
		// The bag may miss high labels; vote over the full class count.
		t.n = f.n
		f.trees = append(f.trees, t)
	}
	return nil
}

// Predict implements Classifier.
func (f *Forest) Predict(x []float64) int {
	votes := make([]float64, f.n)
	for _, t := range f.trees {
		y := t.Predict(x)
		if y >= len(votes) {
			grown := make([]float64, y+1)
			copy(grown, votes)
			votes = grown
		}
		votes[y]++
	}
	return argmax(votes)
}
