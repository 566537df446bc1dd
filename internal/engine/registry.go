package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ml"
)

// ModelVersion is one entry in a model registry: a deployable artifact
// plus the lineage that explains why it exists. Version 1 is the seed
// model (loaded from an artifact file or trained from the database);
// later versions are promoted by the retrainer after passing the
// no-regression gate against their parent.
type ModelVersion struct {
	// Version is the registry-assigned number, starting at 1.
	Version int `json:"version"`
	// Source is the provenance tag (ModelFromArtifact, ModelTrained,
	// ModelTrainedSaved, ModelTrainedSaveFailed or ModelRetrained).
	Source string `json:"source"`
	// ModelName is the model family.
	ModelName string `json:"model"`
	// Parent is the version this model was gated against (0 for v1).
	Parent int `json:"parent,omitempty"`
	// SeedRecords / ObsRecords is the training-set composition: offline
	// sweep rows vs. rows harvested from the observation log.
	SeedRecords int `json:"seedRecords,omitempty"`
	ObsRecords  int `json:"obsRecords,omitempty"`
	// GateLive and GateCandidate are the held-out accuracies that
	// admitted this version (candidate must not drop below live), over
	// HoldoutSize samples. Zero for v1, which predates the gate.
	GateLive      float64 `json:"gateLive,omitempty"`
	GateCandidate float64 `json:"gateCandidate,omitempty"`
	HoldoutSize   int     `json:"holdoutSize,omitempty"`

	art *ml.Artifact
}

// registry is the versioned model store for one (platform, leftOut) key.
// The serving path reads the current version through one atomic pointer
// load — a hot swap is a single Store, so an in-flight Predict/Execute
// observes either the old version or the new one, never a torn mix of
// artifact and metadata. The full history is retained for lineage
// listing and rollback.
type registry struct {
	mu       sync.Mutex // guards versions and promotion/rollback ordering
	cur      atomic.Pointer[ModelVersion]
	versions []*ModelVersion
}

// newRegistry starts a registry at version 1.
func newRegistry(art *ml.Artifact, source string) *registry {
	v := &ModelVersion{Version: 1, Source: source, ModelName: art.ModelName, art: art}
	if art.Lineage != nil {
		// An artifact persisted by a previous adaptive run carries its
		// own lineage; surface it instead of pretending it is a seed.
		v.Parent = art.Lineage.Parent
		v.SeedRecords = art.Lineage.SeedRecords
		v.ObsRecords = art.Lineage.ObsRecords
		v.GateLive = art.Lineage.GateLive
		v.GateCandidate = art.Lineage.GateCandidate
		v.HoldoutSize = art.Lineage.HoldoutSize
	}
	r := &registry{versions: []*ModelVersion{v}}
	r.cur.Store(v)
	return r
}

// current returns the serving version. Lock-free: this is the per-request
// hot path.
func (r *registry) current() *ModelVersion { return r.cur.Load() }

// promote appends a gated candidate as the next version and hot-swaps it
// into service. The artifact's lineage is stamped here, under the
// registry lock, before the version becomes visible — the artifact must
// not be shared until promote returns.
func (r *registry) promote(art *ml.Artifact, source string, v ModelVersion) *ModelVersion {
	r.mu.Lock()
	defer r.mu.Unlock()
	v.Version = len(r.versions) + 1
	v.Parent = r.cur.Load().Version
	v.Source = source
	v.ModelName = art.ModelName
	v.art = art
	var trainedAt int64
	if art.Lineage != nil {
		trainedAt = art.Lineage.TrainedAtUnix // stamped by the trainer
	}
	art.Lineage = &ml.Lineage{
		ModelVersion:  v.Version,
		Parent:        v.Parent,
		SeedRecords:   v.SeedRecords,
		ObsRecords:    v.ObsRecords,
		GateLive:      v.GateLive,
		GateCandidate: v.GateCandidate,
		HoldoutSize:   v.HoldoutSize,
		TrainedAtUnix: trainedAt,
	}
	nv := &v
	r.versions = append(r.versions, nv)
	r.cur.Store(nv)
	return nv
}

// rollback makes an earlier version current again. The version stays in
// the history; nothing is deleted — a later promote still gets the next
// sequential number.
func (r *registry) rollback(version int) (*ModelVersion, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range r.versions {
		if v.Version == version {
			r.cur.Store(v)
			return v, nil
		}
	}
	return nil, fmt.Errorf("engine: no model version %d (have 1..%d)", version, len(r.versions))
}

// list returns the current version number and a copy of the full history
// in version order.
func (r *registry) list() (current int, out []ModelVersion) {
	r.mu.Lock()
	defer r.mu.Unlock()
	current = r.cur.Load().Version
	out = make([]ModelVersion, len(r.versions))
	for i, v := range r.versions {
		out[i] = *v
	}
	return current, out
}
