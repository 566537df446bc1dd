package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// LogReg is multinomial logistic regression (a softmax linear model)
// trained by full-batch gradient descent. It is the simplest learned
// baseline in the model comparison.
type LogReg struct {
	Epochs    int
	LearnRate float64
	L2        float64
	Seed      int64

	w   [][]float64 // [in+1][out]
	in  int
	out int
}

// NewLogReg builds a logistic regression model with defaults.
func NewLogReg(seed int64) *LogReg {
	return &LogReg{Epochs: 600, LearnRate: 0.1, L2: 1e-4, Seed: seed}
}

// Name implements Classifier.
func (m *LogReg) Name() string { return "logreg" }

// Fit implements Classifier.
func (m *LogReg) Fit(d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if d.Len() == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	m.in = d.Dim()
	m.out = d.NumClasses()
	rng := rand.New(rand.NewSource(m.Seed))
	m.w = make([][]float64, m.in+1)
	for i := range m.w {
		m.w[i] = make([]float64, m.out)
		for j := range m.w[i] {
			m.w[i][j] = (rng.Float64()*2 - 1) * 0.01
		}
	}
	grad := make([][]float64, m.in+1)
	for i := range grad {
		grad[i] = make([]float64, m.out)
	}
	probs := make([]float64, m.out)
	n := float64(d.Len())
	for epoch := 0; epoch < m.Epochs; epoch++ {
		for i := range grad {
			for j := range grad[i] {
				grad[i][j] = 0
			}
		}
		for s, x := range d.X {
			m.softmax(x, probs)
			for k := 0; k < m.out; k++ {
				delta := probs[k]
				if k == d.Y[s] {
					delta -= 1
				}
				for i := 0; i < m.in; i++ {
					grad[i][k] += delta * x[i]
				}
				grad[m.in][k] += delta
			}
		}
		lr := m.LearnRate / (1 + 0.005*float64(epoch))
		for i := range m.w {
			for j := range m.w[i] {
				m.w[i][j] -= lr * (grad[i][j]/n + m.L2*m.w[i][j])
			}
		}
	}
	return nil
}

func (m *LogReg) softmax(x []float64, probs []float64) {
	maxv := math.Inf(-1)
	for k := 0; k < m.out; k++ {
		sum := m.w[m.in][k]
		for i := 0; i < m.in; i++ {
			sum += m.w[i][k] * x[i]
		}
		probs[k] = sum
		if sum > maxv {
			maxv = sum
		}
	}
	total := 0.0
	for k := range probs {
		probs[k] = math.Exp(probs[k] - maxv)
		total += probs[k]
	}
	for k := range probs {
		probs[k] /= total
	}
}

// Predict implements Classifier.
func (m *LogReg) Predict(x []float64) int {
	probs := make([]float64, m.out)
	m.softmax(x, probs)
	return argmax(probs)
}
