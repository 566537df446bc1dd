package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// MLP is a single-hidden-layer neural network with tanh activations and a
// softmax output, trained with mini-batch gradient descent and momentum.
// This is the model family the Insieme work used for task partitioning
// prediction, and the default model of this reproduction.
type MLP struct {
	Hidden    int
	Epochs    int
	LearnRate float64
	Momentum  float64
	L2        float64
	BatchSize int
	Seed      int64

	w1, w2 [][]float64 // [in+1][hidden], [hidden+1][out]
	in     int
	out    int
}

// NewMLP builds an MLP with sensible defaults for this problem scale.
func NewMLP(hidden int, seed int64) *MLP {
	if hidden <= 0 {
		hidden = 32
	}
	return &MLP{
		Hidden:    hidden,
		Epochs:    400,
		LearnRate: 0.02,
		Momentum:  0.9,
		L2:        1e-4,
		BatchSize: 16,
		Seed:      seed,
	}
}

// Name implements Classifier.
func (m *MLP) Name() string { return fmt.Sprintf("mlp%d", m.Hidden) }

// Fit implements Classifier.
func (m *MLP) Fit(d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if d.Len() == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	m.in = d.Dim()
	m.out = d.NumClasses()
	rng := rand.New(rand.NewSource(m.Seed))

	initMat := func(rows, cols int, scale float64) [][]float64 {
		w := make([][]float64, rows)
		for i := range w {
			w[i] = make([]float64, cols)
			for j := range w[i] {
				w[i][j] = (rng.Float64()*2 - 1) * scale
			}
		}
		return w
	}
	m.w1 = initMat(m.in+1, m.Hidden, math.Sqrt(1/float64(m.in+1)))
	m.w2 = initMat(m.Hidden+1, m.out, math.Sqrt(1/float64(m.Hidden+1)))
	v1 := initMat(m.in+1, m.Hidden, 0)
	v2 := initMat(m.Hidden+1, m.out, 0)

	order := make([]int, d.Len())
	for i := range order {
		order[i] = i
	}
	bs := m.BatchSize
	if bs <= 0 || bs > d.Len() {
		bs = d.Len()
	}
	g1 := initMat(m.in+1, m.Hidden, 0)
	g2 := initMat(m.Hidden+1, m.out, 0)
	hidden := make([]float64, m.Hidden)
	probs := make([]float64, m.out)
	dh := make([]float64, m.Hidden)

	for epoch := 0; epoch < m.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		lr := m.LearnRate / (1 + 0.01*float64(epoch))
		for start := 0; start < len(order); start += bs {
			end := start + bs
			if end > len(order) {
				end = len(order)
			}
			zero(g1)
			zero(g2)
			for _, s := range order[start:end] {
				x, y := d.X[s], d.Y[s]
				var soft []float64
				if len(d.Soft) > 0 {
					soft = d.Soft[s]
				}
				target := func(k int) float64 {
					if soft != nil {
						return soft[k]
					}
					if k == y {
						return 1
					}
					return 0
				}
				m.forward(x, hidden, probs)
				// Output delta: softmax + cross-entropy gradient against
				// the (hard or cost-sensitive soft) target distribution.
				for k := 0; k < m.out; k++ {
					delta := probs[k] - target(k)
					for h := 0; h < m.Hidden; h++ {
						g2[h][k] += delta * hidden[h]
					}
					g2[m.Hidden][k] += delta // bias
				}
				// Hidden delta through tanh'.
				for h := 0; h < m.Hidden; h++ {
					sum := 0.0
					for k := 0; k < m.out; k++ {
						sum += (probs[k] - target(k)) * m.w2[h][k]
					}
					dh[h] = sum * (1 - hidden[h]*hidden[h])
				}
				for i := 0; i < m.in; i++ {
					xi := x[i]
					if xi == 0 {
						continue
					}
					for h := 0; h < m.Hidden; h++ {
						g1[i][h] += dh[h] * xi
					}
				}
				for h := 0; h < m.Hidden; h++ {
					g1[m.in][h] += dh[h] // bias
				}
			}
			scale := 1.0 / float64(end-start)
			step(m.w1, v1, g1, lr, scale, m.Momentum, m.L2)
			step(m.w2, v2, g2, lr, scale, m.Momentum, m.L2)
		}
	}
	return nil
}

// forward computes hidden activations and output probabilities in place.
func (m *MLP) forward(x []float64, hidden, probs []float64) {
	for h := 0; h < m.Hidden; h++ {
		sum := m.w1[m.in][h]
		for i := 0; i < m.in; i++ {
			sum += m.w1[i][h] * x[i]
		}
		hidden[h] = math.Tanh(sum)
	}
	maxLogit := math.Inf(-1)
	for k := 0; k < m.out; k++ {
		sum := m.w2[m.Hidden][k]
		for h := 0; h < m.Hidden; h++ {
			sum += m.w2[h][k] * hidden[h]
		}
		probs[k] = sum
		if sum > maxLogit {
			maxLogit = sum
		}
	}
	total := 0.0
	for k := range probs {
		probs[k] = math.Exp(probs[k] - maxLogit)
		total += probs[k]
	}
	for k := range probs {
		probs[k] /= total
	}
}

// Predict implements Classifier.
func (m *MLP) Predict(x []float64) int {
	s := getScratch()
	y := m.PredictScratch(x, s)
	putScratch(s)
	return y
}

// PredictScratch implements ScratchPredictor.
func (m *MLP) PredictScratch(x []float64, s *Scratch) int {
	hidden := s.floats(m.Hidden)
	probs := s.floats(m.out)
	m.forward(x, hidden, probs)
	return argmax(probs)
}

func zero(m [][]float64) {
	for i := range m {
		for j := range m[i] {
			m[i][j] = 0
		}
	}
}

// step applies a momentum SGD update with L2 regularization.
func step(w, v, g [][]float64, lr, scale, momentum, l2 float64) {
	for i := range w {
		for j := range w[i] {
			v[i][j] = momentum*v[i][j] - lr*(g[i][j]*scale+l2*w[i][j])
			w[i][j] += v[i][j]
		}
	}
}
