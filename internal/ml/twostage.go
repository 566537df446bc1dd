package ml

import "fmt"

// StageKind partitions the label space for the two-stage predictor.
type StageKind int

// Stage kinds: the first stage decides which regime the sample is in.
const (
	StageCPUOnly StageKind = iota
	StageGPUOnly
	StageMixed
)

// TwoStage is the hierarchical predictor of the Insieme follow-up work:
// a first-stage classifier decides whether the program/size should run
// CPU-only, GPU-only or split; only split cases go to a second-stage
// classifier over the full partition space. This factors the easy,
// high-frequency decisions (single-device) away from the hard one (which
// split), which matters with few training samples and many classes.
type TwoStage struct {
	// KindOf maps a class label to its stage kind (derived from the
	// partition space layout).
	KindOf func(class int) StageKind
	// CPUClass and GPUClass are the labels emitted for the single-device
	// decisions.
	CPUClass int
	GPUClass int
	// NewGate and NewSplit construct the two underlying models.
	NewGate  NewModel
	NewSplit NewModel

	gate     Classifier
	split    Classifier
	fallback int // split prediction when no mixed training samples exist
}

// NewTwoStage builds a two-stage predictor with the given label geometry.
func NewTwoStage(kindOf func(int) StageKind, cpuClass, gpuClass int, gate, split NewModel) *TwoStage {
	return &TwoStage{
		KindOf:   kindOf,
		CPUClass: cpuClass,
		GPUClass: gpuClass,
		NewGate:  gate,
		NewSplit: split,
	}
}

// Name implements Classifier.
func (m *TwoStage) Name() string { return "twostage" }

// Fit implements Classifier.
func (m *TwoStage) Fit(d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if d.Len() == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	// Stage 1: regime labels.
	gateData := &Dataset{Names: d.Names, X: d.X, Groups: d.Groups}
	gateData.Y = make([]int, d.Len())
	var mixedIdx []int
	for i, y := range d.Y {
		k := m.KindOf(y)
		gateData.Y[i] = int(k)
		if k == StageMixed {
			mixedIdx = append(mixedIdx, i)
		}
	}
	m.gate = m.NewGate()
	if err := m.gate.Fit(gateData); err != nil {
		return err
	}
	// Stage 2: split classifier over mixed samples only.
	if len(mixedIdx) == 0 {
		m.split = nil
		m.fallback = m.CPUClass
		return nil
	}
	splitData := d.Subset(mixedIdx)
	m.split = m.NewSplit()
	if err := m.split.Fit(splitData); err != nil {
		return err
	}
	m.fallback = splitData.Y[0]
	return nil
}

// Predict implements Classifier.
func (m *TwoStage) Predict(x []float64) int {
	switch StageKind(m.gate.Predict(x)) {
	case StageCPUOnly:
		return m.CPUClass
	case StageGPUOnly:
		return m.GPUClass
	default:
		if m.split == nil {
			return m.fallback
		}
		return m.split.Predict(x)
	}
}
