package ml

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// KNN is a k-nearest-neighbours classifier with Euclidean distance and
// majority voting. With distance-weighted voting enabled, closer
// neighbours count more (1/(d+eps)).
type KNN struct {
	K        int
	Weighted bool

	x [][]float64
	y []int
	n int
}

// NewKNN builds a kNN model; k defaults to 5 if non-positive.
func NewKNN(k int) *KNN {
	if k <= 0 {
		k = 5
	}
	return &KNN{K: k, Weighted: true}
}

// Name implements Classifier.
func (m *KNN) Name() string { return fmt.Sprintf("knn%d", m.K) }

// Fit memorizes the training set.
func (m *KNN) Fit(d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if d.Len() == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	m.x = d.X
	m.y = d.Y
	m.n = d.NumClasses()
	return nil
}

type neighbour struct {
	dist float64
	y    int
}

// Predict implements Classifier. Neighbours are ranked by (distance,
// label); elements equal under that order are interchangeable (identical
// label and weight), so the vote totals — and the class — do not depend
// on how the sort arranges them.
func (m *KNN) Predict(x []float64) int {
	k := min(m.K, len(m.x))
	nb := make([]neighbour, len(m.x))
	for i, xi := range m.x {
		nb[i] = neighbour{dist: sqDist(x, xi), y: m.y[i]}
	}
	slices.SortFunc(nb, func(a, b neighbour) int {
		return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.y, b.y))
	})
	votes := make([]float64, m.n)
	for i := 0; i < k; i++ {
		w := 1.0
		if m.Weighted {
			w = 1 / (math.Sqrt(nb[i].dist) + 1e-6)
		}
		votes[nb[i].y] += w
	}
	return argmax(votes)
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
