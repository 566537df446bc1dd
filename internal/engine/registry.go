package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ml"
	"repro/internal/sched"
)

// ModelVersion is one entry in a model registry: a deployable artifact
// plus the lineage that explains why it exists. Version 1 is the seed
// model (loaded from an artifact file or trained from the database);
// later versions are promoted by the retrainer after passing the
// no-regression gate against their parent.
type ModelVersion struct {
	// Lineage is the artifact's own: ModelVersion is the registry
	// number (an artifact persisted by an earlier adaptive run keeps the
	// number it was promoted under), Parent the version it was gated
	// against, then the training-set composition and the gate's
	// held-out accuracies (zero for a seed model, which predates the
	// gate).
	ml.Lineage
	// Source is the provenance tag (ModelFromArtifact, ModelTrained,
	// ModelTrainedSaved, ModelTrainedSaveFailed or ModelRetrained).
	Source string `json:"source"`
	// ModelName is the model family.
	ModelName string `json:"model"`

	art *ml.Artifact
}

// newVersion makes art a registry version whose lineage is lin; the
// artifact's Lineage then points at the version's, so the two cannot
// disagree. The artifact must not be shared until the version is.
func newVersion(art *ml.Artifact, source string, lin ml.Lineage) *ModelVersion {
	v := &ModelVersion{Lineage: lin, Source: source, ModelName: art.ModelName, art: art}
	art.Lineage = &v.Lineage
	return v
}

// registry is the versioned model store of one platform.
// The serving path reads the current version through one atomic pointer
// load — a hot swap is a single Store, so an in-flight Predict/Execute
// observes either the old version or the new one, never a torn mix of
// artifact and metadata. The full history is retained for lineage
// listing and rollback.
type registry struct {
	mu       sync.Mutex // guards versions and promotion/rollback ordering
	cur      atomic.Pointer[ModelVersion]
	versions []*ModelVersion // oldest first
}

// newRegistry starts a registry at art, version 1 unless art carries the
// lineage of an earlier promotion.
func newRegistry(art *ml.Artifact, source string) *registry {
	lin := ml.Lineage{ModelVersion: 1}
	if art.Lineage != nil {
		lin = *art.Lineage
	}
	v := newVersion(art, source, lin)
	r := &registry{versions: []*ModelVersion{v}}
	r.cur.Store(v)
	return r
}

// current returns the serving version. Lock-free: this is the per-request
// hot path.
func (r *registry) current() *ModelVersion { return r.cur.Load() }

// promote appends a gated candidate with lineage lin as the version after
// the newest, gated against the current one, and hot-swaps it into
// service.
func (r *registry) promote(art *ml.Artifact, lin ml.Lineage) *ModelVersion {
	r.mu.Lock()
	defer r.mu.Unlock()
	lin.ModelVersion = r.versions[len(r.versions)-1].ModelVersion + 1
	lin.Parent = r.cur.Load().ModelVersion
	v := newVersion(art, ModelRetrained, lin)
	r.versions = append(r.versions, v)
	r.cur.Store(v)
	return v
}

// rollback makes an earlier version current again. The version stays in
// the history; nothing is deleted — a later promote still gets the next
// sequential number.
func (r *registry) rollback(version int) (*ModelVersion, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	have := make([]int, len(r.versions))
	for i, v := range r.versions {
		if v.ModelVersion == version {
			r.cur.Store(v)
			return v, nil
		}
		have[i] = v.ModelVersion
	}
	return nil, fmt.Errorf("engine: no model version %d (have %v)", version, have)
}

// list returns the current version number and a copy of the full history
// in version order.
func (r *registry) list() (current int, out []ModelVersion) {
	r.mu.Lock()
	defer r.mu.Unlock()
	current = r.cur.Load().ModelVersion
	out = make([]ModelVersion, len(r.versions))
	for i, v := range r.versions {
		out[i] = *v
	}
	return current, out
}

// modelStore is one platform's models: its registry and the retrainer's
// state. A cell cache keeps one per platform
// (CellCache.join), so every engine of the platform sharing it — every
// shard of a fleet — resolves, promotes and rolls back the same versions,
// and retrains single-flight (runMu) with one attempt count.
type modelStore struct {
	reg sched.Memo[struct{}, *registry] // one key: resolved once, a failure retried

	runMu                                   sync.Mutex // held for the duration of one retrain attempt (TryLock)
	attempts, promoted, rejected, rollbacks atomic.Uint64

	mu             sync.Mutex // guards the fields below
	engines        []*Engine  // every engine that joined, in join order
	last           *RetrainResult
	lastErr        string
	inProgress     bool
	background     bool
	trainedLabeled uint64 // the platform's labeled count at the last attempt
}

// join admits e, whose model options must be those of the engines
// already sharing the store: what its models are loaded, trained,
// persisted and observed from.
func (s *modelStore) join(e *Engine) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.engines) > 0 {
		f, o := s.engines[0].opts, e.opts
		if o.DB != f.DB || o.ArtifactDir != f.ArtifactDir || o.Model().Name() != f.Model().Name() || o.SaveTrained != f.SaveTrained || o.ObsLog != f.ObsLog {
			return fmt.Errorf("engine: %s engine's DB, ArtifactDir, Model, SaveTrained or ObsLog differ from those of the engines of its platform sharing its cell cache", o.Platform)
		}
	}
	s.engines = append(s.engines, e)
	return nil
}
