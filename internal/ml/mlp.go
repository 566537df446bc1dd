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
	dout := make([]float64, m.out)
	dh := make([]float64, m.Hidden)

	// Every weight, gradient and sum below accumulates its terms in the
	// same order as the textbook loop nest (TestMLPFitMatchesReference
	// holds Fit to it bit for bit); only the loops are reordered to walk
	// each matrix row by row.
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
				x := d.X[s]
				m.forward(x, hidden, probs)
				// Output delta: softmax + cross-entropy gradient against
				// the (hard or cost-sensitive soft) target distribution.
				copy(dout, probs)
				if len(d.Soft) > 0 {
					for k, t := range d.Soft[s][:len(dout)] {
						dout[k] -= t
					}
				} else {
					dout[d.Y[s]] -= 1
				}
				m.backHidden(g2, dout, hidden, dh)
				for i, xi := range x[:m.in] {
					if xi == 0 {
						continue
					}
					row := g1[i][:len(dh)]
					for h, d := range dh {
						row[h] += d * xi
					}
				}
				bias := g1[m.in][:len(dh)]
				for h, d := range dh {
					bias[h] += d
				}
			}
			scale := 1.0 / float64(end-start)
			step(m.w1, v1, g1, lr, scale, m.Momentum, m.L2)
			step(m.w2, v2, g2, lr, scale, m.Momentum, m.L2)
		}
	}
	return nil
}

// backHidden adds one sample's output-layer gradient to g2 — dout[k] *
// hidden[h] into g2[h][k], dout[k] into the bias row — and sets dh to its
// hidden-layer delta: sum over k of dout[k] * w2[h][k], in k order,
// through tanh'. Both walk row h of g2 and w2 together, four rows at a
// time, so four independent sums are in flight.
func (m *MLP) backHidden(g2 [][]float64, dout, hidden, dh []float64) {
	h := 0
	for ; h+4 <= len(hidden); h += 4 {
		g0, g1, g2r, g3 := g2[h][:len(dout)], g2[h+1][:len(dout)], g2[h+2][:len(dout)], g2[h+3][:len(dout)]
		w0, w1, w2, w3 := m.w2[h][:len(dout)], m.w2[h+1][:len(dout)], m.w2[h+2][:len(dout)], m.w2[h+3][:len(dout)]
		h0, h1, h2, h3 := hidden[h], hidden[h+1], hidden[h+2], hidden[h+3]
		var s0, s1, s2, s3 float64
		for k, d := range dout {
			g0[k] += d * h0
			g1[k] += d * h1
			g2r[k] += d * h2
			g3[k] += d * h3
			s0 += d * w0[k]
			s1 += d * w1[k]
			s2 += d * w2[k]
			s3 += d * w3[k]
		}
		dh[h] = s0 * (1 - h0*h0)
		dh[h+1] = s1 * (1 - h1*h1)
		dh[h+2] = s2 * (1 - h2*h2)
		dh[h+3] = s3 * (1 - h3*h3)
	}
	for ; h < len(hidden); h++ {
		gr, wr, hv := g2[h][:len(dout)], m.w2[h][:len(dout)], hidden[h]
		sum := 0.0
		for k, d := range dout {
			gr[k] += d * hv
			sum += d * wr[k]
		}
		dh[h] = sum * (1 - hv*hv)
	}
	bias := g2[len(hidden)][:len(dout)]
	for k, d := range dout {
		bias[k] += d
	}
}

// forward computes hidden activations and output probabilities in place.
// Each activation and logit is its bias plus its weighted inputs in input
// order (addRows).
func (m *MLP) forward(x []float64, hidden, probs []float64) {
	copy(hidden, m.w1[m.in])
	addRows(hidden, m.w1[:m.in], x[:m.in])
	for h, v := range hidden {
		hidden[h] = math.Tanh(v)
	}
	copy(probs, m.w2[m.Hidden])
	addRows(probs, m.w2[:m.Hidden], hidden)
	maxLogit := math.Inf(-1)
	for _, v := range probs {
		if v > maxLogit {
			maxLogit = v
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

// addRows adds rows[r][j] * coef[r] to dst[j] for every r in order, so
// each dst[j] accumulates its terms exactly as a loop over r would; it
// takes four rows per pass over dst.
func addRows(dst []float64, rows [][]float64, coef []float64) {
	r := 0
	for ; r+4 <= len(coef); r += 4 {
		r0, r1, r2, r3 := rows[r][:len(dst)], rows[r+1][:len(dst)], rows[r+2][:len(dst)], rows[r+3][:len(dst)]
		c0, c1, c2, c3 := coef[r], coef[r+1], coef[r+2], coef[r+3]
		for j, v := range dst {
			v += r0[j] * c0
			v += r1[j] * c1
			v += r2[j] * c2
			v += r3[j] * c3
			dst[j] = v
		}
	}
	for ; r < len(coef); r++ {
		row, c := rows[r][:len(dst)], coef[r]
		for j := range dst {
			dst[j] += row[j] * c
		}
	}
}

// Predict implements Classifier.
func (m *MLP) Predict(x []float64) int {
	hidden := make([]float64, m.Hidden)
	probs := make([]float64, m.out)
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
