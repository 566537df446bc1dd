package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceFit is MLP.Fit as it was before its loops were reordered (a
// per-sample output delta, row-wise walks, fused gradient sums), kept
// verbatim as the oracle those loops are held to: every weight must come
// out bit for bit the same.
func referenceFit(m *MLP, d *Dataset) error {
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
				referenceForward(m, x, hidden, probs)
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

// referenceForward is MLP.forward as referenceFit's loop ran it.
func referenceForward(m *MLP, x []float64, hidden, probs []float64) {
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

// softDataset gives synthDataset cost-sensitive labels: each sample's
// true class carries most of the mass and the rest is spread unevenly.
func softDataset(n int, seed int64) *Dataset {
	d := synthDataset(n, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	const classes = 5
	for _, y := range d.Y {
		row := make([]float64, classes)
		total := 0.0
		for k := range row {
			row[k] = rng.Float64() * 0.2
			if k == y {
				row[k] += 1
			}
			total += row[k]
		}
		for k := range row {
			row[k] /= total
		}
		d.Soft = append(d.Soft, row)
	}
	return d
}

// TestMLPFitMatchesReference: Fit trains weights bit for bit equal to
// referenceFit's, on hard labels and on soft ones, for hidden layers that
// are and are not a multiple of Fit's unrolling.
func TestMLPFitMatchesReference(t *testing.T) {
	for _, c := range []struct {
		name   string
		data   *Dataset
		hidden int
	}{
		{"hard", synthDataset(120, 3), 32},
		{"hard", synthDataset(37, 4), 7},
		{"soft", softDataset(120, 5), 32},
		{"soft", softDataset(41, 6), 9},
	} {
		t.Run(fmt.Sprintf("%s/hidden%d", c.name, c.hidden), func(t *testing.T) {
			d := FitScaler(c.data).TransformDataset(c.data)
			for i := 0; i < d.Len(); i += 3 {
				d.X[i][3] = 0 // Fit skips a zero input's gradient row
			}
			got, want := NewMLP(c.hidden, 11), NewMLP(c.hidden, 11)
			got.Epochs, want.Epochs = 40, 40
			if err := got.Fit(d); err != nil {
				t.Fatal(err)
			}
			if err := referenceFit(want, d); err != nil {
				t.Fatal(err)
			}
			for name, pair := range map[string][2][][]float64{"w1": {got.w1, want.w1}, "w2": {got.w2, want.w2}} {
				g, w := pair[0], pair[1]
				if len(g) != len(w) {
					t.Fatalf("%s has %d rows, want %d", name, len(g), len(w))
				}
				for i := range w {
					for j := range w[i] {
						if math.Float64bits(g[i][j]) != math.Float64bits(w[i][j]) {
							t.Fatalf("%s[%d][%d] = %v, want %v", name, i, j, g[i][j], w[i][j])
						}
					}
				}
			}
		})
	}
}
