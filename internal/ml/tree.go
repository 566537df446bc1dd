package ml

import (
	"fmt"
	"math/rand"
	"sort"
)

// Tree is a CART-style decision tree classifier with Gini impurity
// splitting. MaxFeatures < dim enables per-split feature subsampling
// (used by the random forest); zero means "use all features".
type Tree struct {
	MaxDepth    int
	MinSamples  int
	MaxFeatures int
	Seed        int64

	root *treeNode
	n    int
}

// NewTree builds a decision tree with sensible defaults.
func NewTree() *Tree {
	return &Tree{MaxDepth: 12, MinSamples: 2}
}

// Name implements Classifier.
func (t *Tree) Name() string { return "dtree" }

type treeNode struct {
	feature int
	thresh  float64
	left    *treeNode
	right   *treeNode
	label   int // leaf prediction
	leaf    bool
}

// Fit implements Classifier.
func (t *Tree) Fit(d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if d.Len() == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	t.n = d.NumClasses()
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(t.Seed))
	t.root = t.build(d, idx, 0, rng)
	return nil
}

func (t *Tree) build(d *Dataset, idx []int, depth int, rng *rand.Rand) *treeNode {
	labels := make([]int, len(idx))
	for i, s := range idx {
		labels[i] = d.Y[s]
	}
	maj := majority(labels, t.n)
	if depth >= t.MaxDepth || len(idx) < t.MinSamples || pure(labels) {
		return &treeNode{leaf: true, label: maj}
	}
	feat, thresh, ok := t.bestSplit(d, idx, rng)
	if !ok {
		return &treeNode{leaf: true, label: maj}
	}
	var li, ri []int
	for _, s := range idx {
		if d.X[s][feat] <= thresh {
			li = append(li, s)
		} else {
			ri = append(ri, s)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return &treeNode{leaf: true, label: maj}
	}
	return &treeNode{
		feature: feat,
		thresh:  thresh,
		left:    t.build(d, li, depth+1, rng),
		right:   t.build(d, ri, depth+1, rng),
	}
}

// bestSplit scans candidate features for the Gini-optimal threshold.
func (t *Tree) bestSplit(d *Dataset, idx []int, rng *rand.Rand) (int, float64, bool) {
	dim := d.Dim()
	feats := make([]int, dim)
	for i := range feats {
		feats[i] = i
	}
	if t.MaxFeatures > 0 && t.MaxFeatures < dim {
		rng.Shuffle(dim, func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		feats = feats[:t.MaxFeatures]
		sort.Ints(feats) // deterministic scan order given the shuffle
	}

	bestGini := 2.0
	bestFeat, bestThresh := -1, 0.0
	vals := make([]float64, 0, len(idx))
	// Class histograms for incremental Gini: left grows, right shrinks.
	for _, f := range feats {
		vals = vals[:0]
		for _, s := range idx {
			vals = append(vals, d.X[s][f])
		}
		order := make([]int, len(idx))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })

		total := len(idx)
		leftCount := make([]int, t.n)
		rightCount := make([]int, t.n)
		for _, s := range idx {
			rightCount[d.Y[s]]++
		}
		nLeft := 0
		for pos := 0; pos < total-1; pos++ {
			s := idx[order[pos]]
			leftCount[d.Y[s]]++
			rightCount[d.Y[s]]--
			nLeft++
			v, vNext := vals[order[pos]], vals[order[pos+1]]
			if v == vNext {
				continue // cannot split between equal values
			}
			g := weightedGini(leftCount, nLeft, rightCount, total-nLeft)
			if g < bestGini {
				bestGini = g
				bestFeat = f
				bestThresh = (v + vNext) / 2
			}
		}
	}
	return bestFeat, bestThresh, bestFeat >= 0
}

func weightedGini(lc []int, nl int, rc []int, nr int) float64 {
	return (float64(nl)*gini(lc, nl) + float64(nr)*gini(rc, nr)) / float64(nl+nr)
}

func gini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		g -= p * p
	}
	return g
}

func pure(labels []int) bool {
	for _, y := range labels[1:] {
		if y != labels[0] {
			return false
		}
	}
	return true
}

// Predict implements Classifier.
func (t *Tree) Predict(x []float64) int {
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label
}
