package ml

import "fmt"

// PCAPipeline chains a PCA projection with an inner classifier, fitting
// the projection on each training set (no leakage under cross validation).
type PCAPipeline struct {
	// K is the number of principal components kept (0 = all).
	K int
	// Seed fixes the power-iteration initialization.
	Seed int64
	// NewInner constructs the downstream classifier.
	NewInner NewModel

	pca   *PCA
	inner Classifier
}

// NewPCAPipeline builds the pipeline.
func NewPCAPipeline(k int, seed int64, inner NewModel) *PCAPipeline {
	return &PCAPipeline{K: k, Seed: seed, NewInner: inner}
}

// Name implements Classifier.
func (m *PCAPipeline) Name() string {
	// A deserialized pipeline has no constructor, only the fitted inner
	// model; name whichever is available.
	switch {
	case m.inner != nil:
		return fmt.Sprintf("pca%d+%s", m.K, m.inner.Name())
	case m.NewInner != nil:
		return fmt.Sprintf("pca%d+%s", m.K, m.NewInner().Name())
	default:
		return fmt.Sprintf("pca%d", m.K)
	}
}

// Fit implements Classifier.
func (m *PCAPipeline) Fit(d *Dataset) error {
	pca, err := FitPCA(d, m.K, m.Seed)
	if err != nil {
		return err
	}
	m.pca = pca
	m.inner = m.NewInner()
	return m.inner.Fit(pca.TransformDataset(d))
}

// Predict implements Classifier.
func (m *PCAPipeline) Predict(x []float64) int {
	return m.inner.Predict(m.pca.Transform(x))
}
