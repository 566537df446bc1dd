package ml

import (
	"context"
	"fmt"

	"repro/internal/sched"
)

// FoldResult is the outcome of one leave-one-group-out fold.
type FoldResult struct {
	Group     string
	Predicted []int // per held-out sample
	Actual    []int
	TestIdx   []int // indices into the original dataset
}

// CVResult aggregates all folds of a cross validation.
type CVResult struct {
	Folds []FoldResult
}

// Accuracy returns overall exact-label accuracy across folds.
func (r *CVResult) Accuracy() float64 {
	hit, total := 0, 0
	for _, f := range r.Folds {
		for i := range f.Actual {
			total++
			if f.Predicted[i] == f.Actual[i] {
				hit++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// NewModel constructs a fresh classifier; cross validation needs a new
// model per fold.
type NewModel func() Classifier

// LeaveOneGroupOut runs leave-one-group-out cross validation: each group
// (program) is held out in turn, the model is trained on the remaining
// groups, and predictions are collected for the held-out samples. This is
// the paper's deployment scenario — predicting partitionings for programs
// never seen during training. Feature scaling is fit on each fold's
// training split only (no leakage).
//
// Folds are independent (each trains a freshly constructed, explicitly
// seeded model on its own scaled copy of the data), so they run on the
// scheduler's worker pool; fold results keep group order, making the
// output identical to a sequential sweep.
func LeaveOneGroupOut(d *Dataset, mk NewModel) (*CVResult, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(d.Groups) == 0 {
		return nil, fmt.Errorf("ml: dataset has no group labels")
	}
	groups := d.GroupNames()
	folds, err := sched.Map(context.Background(), len(groups), 0,
		func(_ context.Context, gi int) (FoldResult, error) {
			g := groups[gi]
			trainIdx, testIdx := d.SplitByGroup(g)
			if len(trainIdx) == 0 {
				return FoldResult{}, fmt.Errorf("ml: group %q is the entire dataset", g)
			}
			train := d.Subset(trainIdx)
			scaler := FitScaler(train)
			model := mk()
			if err := model.Fit(scaler.TransformDataset(train)); err != nil {
				return FoldResult{}, fmt.Errorf("ml: fold %q: %w", g, err)
			}
			fold := FoldResult{Group: g, TestIdx: testIdx}
			for _, ti := range testIdx {
				fold.Predicted = append(fold.Predicted, model.Predict(scaler.Transform(d.X[ti])))
				fold.Actual = append(fold.Actual, d.Y[ti])
			}
			return fold, nil
		})
	if err != nil {
		return nil, err
	}
	return &CVResult{Folds: folds}, nil
}
