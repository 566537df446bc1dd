// Adaptive retraining: the engine's closed loop. The oracle labels of
// the cells served executions touched are merged with the seed training
// database,
// a candidate model is trained, and a no-regression gate decides whether
// it replaces the live model — atomically, while requests keep flowing.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/ml"
)

// holdoutFrac is the fraction of the merged training set the
// no-regression gate holds out for the live-vs-candidate comparison.
const holdoutFrac = 0.25

// retrainSeedBase seeds the deterministic stratified holdout; each
// attempt shifts it so successive gates evaluate different slices (a
// candidate cannot pass by overfitting one fixed slice).
const retrainSeedBase = 20130223 // PPoPP'13

// ErrRetrainInProgress is returned when a retrain is triggered while
// another is still running; retraining is deliberately single-flight.
var ErrRetrainInProgress = errors.New("engine: retrain already in progress")

// RetrainResult reports one retrain attempt.
type RetrainResult struct {
	// Attempt numbers the attempt (monotonic per platform).
	Attempt uint64 `json:"attempt"`
	// Promoted reports whether the candidate passed the gate and was
	// hot-swapped in as NewVersion.
	Promoted   bool `json:"promoted"`
	NewVersion int  `json:"newVersion,omitempty"`
	// LiveVersion is the version the candidate was gated against.
	LiveVersion int `json:"liveVersion"`
	// GateLive / GateCandidate are held-out accuracies over HoldoutSize
	// samples: the live configuration (same model family, seed data
	// only) vs the candidate configuration (seed + observations), each
	// refit without the holdout so the comparison is symmetric. The
	// gate requires GateCandidate >= GateLive.
	GateLive      float64 `json:"gateLive"`
	GateCandidate float64 `json:"gateCandidate"`
	HoldoutSize   int     `json:"holdoutSize"`
	// SeedRecords / ObsRecords is the merged training-set composition.
	SeedRecords int `json:"seedRecords"`
	ObsRecords  int `json:"obsRecords"`
	// SkippedObservations counts cell labels that could not train
	// (unlabeled, unverified, other platform, mismatched schema).
	SkippedObservations int `json:"skippedObservations,omitempty"`
	// Reason explains a non-promotion.
	Reason string `json:"reason,omitempty"`
}

// RetrainStatus is the retrainer's point-in-time state.
type RetrainStatus struct {
	// Enabled reports whether the engine has an observation log (the
	// loop's prerequisite); Background whether a retrainer goroutine is
	// running.
	Enabled    bool `json:"enabled"`
	Background bool `json:"background"`
	InProgress bool `json:"inProgress"`

	Attempts   uint64 `json:"attempts"`
	Promotions uint64 `json:"promotions"`
	Rejections uint64 `json:"rejections"`

	// LabeledObservations is how many label records of the platform the
	// log has read or appended; LastTrainedLabeled that count when the
	// last attempt ran (the background threshold compares the two).
	LabeledObservations uint64 `json:"labeledObservations"`
	LastTrainedLabeled  uint64 `json:"lastTrainedLabeled"`

	Last      *RetrainResult `json:"last,omitempty"`
	LastError string         `json:"lastError,omitempty"`
}

// Retrain runs one synchronous retrain attempt: snapshot the observation
// log, merge with the seed database, train a candidate, gate it against
// the live model on a stratified held-out slice, and promote it into the
// registry if it does not regress. The attempt retrains the platform's
// model, which every engine sharing the cell cache serves, from what all
// of them observed. Single-flight per platform: a concurrent call through
// any of them returns ErrRetrainInProgress.
//
// A gate rejection is a successful attempt (Promoted=false with a
// Reason), not an error; errors mean the attempt itself could not run.
func (e *Engine) Retrain() (*RetrainResult, error) {
	if e.opts.ObsLog == nil {
		return nil, errors.New("engine: adaptive retraining requires an observation log")
	}
	ms := e.models()
	if !ms.runMu.TryLock() {
		return nil, ErrRetrainInProgress
	}
	defer ms.runMu.Unlock()
	ms.mu.Lock()
	ms.inProgress = true
	ms.mu.Unlock()

	// Recorded traffic must be visible to this attempt: wait for the
	// flusher of every engine of the platform to label every executed
	// cell and write every count.
	ms.mu.Lock()
	engines := slices.Clone(ms.engines)
	ms.mu.Unlock()
	for _, eng := range engines {
		eng.FlushObservations()
	}
	// Capture the labeled count BEFORE the snapshot: labels arriving
	// while training runs are not in this attempt's training set, so
	// they must still count toward the next threshold check.
	labeledBefore := e.opts.ObsLog.LabeledCount(e.opts.Platform)
	attempt := ms.attempts.Add(1)
	res, err := e.retrainOnce(attempt)

	ms.mu.Lock()
	ms.inProgress = false
	if err != nil {
		// A failed attempt consumed nothing: leave trainedLabeled alone
		// so the background loop retries on its next tick instead of
		// waiting for minNew brand-new labels.
		ms.lastErr = err.Error()
	} else {
		ms.trainedLabeled = labeledBefore
		ms.last = res
		ms.lastErr = ""
	}
	ms.mu.Unlock()
	return res, err
}

func (e *Engine) retrainOnce(attempt uint64) (*RetrainResult, error) {
	ms := e.models()
	snap, err := e.opts.ObsLog.Snapshot()
	if err != nil {
		return nil, err
	}
	// Resolving the registry also materializes the live model: the gate
	// needs something to compare against even before the first request.
	reg, err := e.registry()
	if err != nil {
		return nil, err
	}
	live := reg.current()
	res := &RetrainResult{Attempt: attempt, LiveVersion: live.ModelVersion}

	// Only labels matching the live model's feature schema can join its
	// training set (positional vectors tolerate nothing less). The
	// snapshot holds one label per cell, so no row lands on both sides
	// of the holdout split.
	wantNames := live.art.FeatureNames
	obsRecs, skipped := harness.ObservationRecords(e.spaceStrs, wantNames, e.opts.Platform, snap)
	res.ObsRecords, res.SkippedObservations = len(obsRecs), skipped
	if len(obsRecs) == 0 {
		res.Reason = "no usable labeled observations"
		ms.rejected.Add(1)
		return res, nil
	}

	// Merge: seed sweep records + harvested observations, each through
	// the same Dataset pipeline (soft labels included) the offline
	// phase uses.
	obsDB := &harness.DB{Space: append([]string{}, e.spaceStrs...), Records: obsRecs}
	data := obsDB.Dataset(e.opts.Platform, nil)
	if e.opts.DB != nil {
		seed := e.opts.DB.Dataset(e.opts.Platform, nil)
		res.SeedRecords = seed.Len()
		if data, err = ml.MergeDatasets(seed, data); err != nil {
			return nil, err
		}
	}

	trainIdx, holdIdx := ml.StratifiedHoldout(data, holdoutFrac, retrainSeedBase+int64(attempt))
	if len(holdIdx) == 0 || len(trainIdx) == 0 {
		res.Reason = fmt.Sprintf("dataset too small to gate (%d samples)", data.Len())
		ms.rejected.Add(1)
		return res, nil
	}
	res.HoldoutSize = len(holdIdx)

	// The no-regression gate is SYMMETRIC: the candidate recipe (seed +
	// observations) and the live recipe (seed only — what the serving
	// model was trained from) are each refit on the train split and
	// scored on the same held-out slice, which neither refit saw.
	// Comparing against a refit of the live configuration rather than
	// the live artifact itself keeps the incumbent honest: the live
	// model trained on the holdout rows, so scoring IT there would
	// measure memory, not accuracy, and no candidate could ever clear
	// the bar on matching data. (Without seed data there is nothing to
	// refit, so the live artifact itself is the baseline.)
	gateCand, err := ml.TrainArtifact(data.Subset(trainIdx), e.opts.Model)
	if err != nil {
		return nil, err
	}
	res.GateCandidate = gateCand.AccuracyOn(data, holdIdx)
	if seedTrain := indicesBelow(trainIdx, res.SeedRecords); len(seedTrain) > 0 {
		baseline, err := ml.TrainArtifact(data.Subset(seedTrain), e.opts.Model)
		if err != nil {
			return nil, err
		}
		res.GateLive = baseline.AccuracyOn(data, holdIdx)
	} else {
		res.GateLive = live.art.AccuracyOn(data, holdIdx)
	}
	if res.GateCandidate < res.GateLive {
		res.Reason = fmt.Sprintf("candidate held-out accuracy %.4f regresses vs live %.4f", res.GateCandidate, res.GateLive)
		ms.rejected.Add(1)
		return res, nil
	}

	// Gate passed: the deployable model is refit on the COMPLETE merged
	// dataset (select on holdout, fit on all) so serving benefits from
	// every sample, including the gate slice.
	cand, err := e.fw.Fit(data, e.spaceStrs, e.opts.Model)
	if err != nil {
		return nil, err
	}
	e.stats.trainings.Add(1)

	nv := reg.promote(cand, ml.Lineage{
		SeedRecords:   res.SeedRecords,
		ObsRecords:    res.ObsRecords,
		GateLive:      res.GateLive,
		GateCandidate: res.GateCandidate,
		HoldoutSize:   res.HoldoutSize,
		TrainedAtUnix: time.Now().Unix(),
	})
	res.Promoted, res.NewVersion = true, nv.ModelVersion
	ms.promoted.Add(1)
	// Persisted, a restart warm-starts from the latest validated version.
	e.save(cand) //nolint:errcheck // counted in ArtifactSaveFails
	return res, nil
}

// indicesBelow filters idx to values < n (the merged dataset lays out
// the n seed rows first, so these are the seed side of a split).
func indicesBelow(idx []int, n int) []int {
	var out []int
	for _, i := range idx {
		if i < n {
			out = append(out, i)
		}
	}
	return out
}

// RetrainStatus reports the state of the platform's retrainer.
func (e *Engine) RetrainStatus() RetrainStatus {
	ms := e.models()
	st := RetrainStatus{
		Enabled:    e.opts.ObsLog != nil,
		Attempts:   ms.attempts.Load(),
		Promotions: ms.promoted.Load(),
		Rejections: ms.rejected.Load(),
	}
	if st.Enabled {
		st.LabeledObservations = e.opts.ObsLog.LabeledCount(e.opts.Platform)
	}
	ms.mu.Lock()
	st.Background = ms.background
	st.InProgress = ms.inProgress
	st.Last = ms.last
	st.LastError = ms.lastErr
	st.LastTrainedLabeled = ms.trainedLabeled
	ms.mu.Unlock()
	return st
}

// StartRetrainer launches the platform's background retraining loop:
// every interval, if at least minNew label records of the platform
// arrived since the last attempt (a label is recorded once per cell and
// platform, so this counts cells served on the platform for the first
// time), run Retrain. A platform has one loop, whichever of its engines
// started it. Returns a stop function that halts the loop and waits for
// an in-flight attempt to finish. The loop never crashes the engine:
// attempt errors are recorded in RetrainStatus.
func (e *Engine) StartRetrainer(interval time.Duration, minNew int) (stop func(), err error) {
	if e.opts.ObsLog == nil {
		return nil, errors.New("engine: adaptive retraining requires an observation log")
	}
	if interval <= 0 {
		interval = time.Minute
	}
	if minNew < 1 {
		minNew = 1
	}
	ms := e.models()
	ms.mu.Lock()
	if ms.background {
		ms.mu.Unlock()
		return nil, fmt.Errorf("engine: %s retrainer already running", e.opts.Platform)
	}
	ms.background = true
	ms.mu.Unlock()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				ms.mu.Lock()
				trained := ms.trainedLabeled
				ms.mu.Unlock()
				if e.opts.ObsLog.LabeledCount(e.opts.Platform) < trained+uint64(minNew) {
					continue
				}
				// Errors and rejections land in RetrainStatus; a
				// concurrent manual trigger (ErrRetrainInProgress) just
				// means the work is already happening.
				e.Retrain() //nolint:errcheck
			}
		}
	}()
	var stopOnce sync.Once
	return func() {
		stopOnce.Do(func() {
			close(done)
			wg.Wait()
			ms.mu.Lock()
			ms.background = false
			ms.mu.Unlock()
		})
	}, nil
}
