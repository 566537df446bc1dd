package ml

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// This file implements deterministic Save/Load serialization for every
// model family, so a trained predictor survives the training process and
// can be deployed by a long-lived serving engine without retraining.
//
// Models serialize to a tagged JSON envelope {kind, spec}. Serialization
// is deterministic: encoding/json emits struct fields in declaration
// order and float64 values in their shortest exact representation, so a
// Save→Load→Save round trip is byte-identical and a loaded model's
// predictions are bit-for-bit those of the model that was saved.
//
// Composite models (TwoStage, PCAPipeline) serialize their fitted
// sub-models but not their constructor callbacks (KindOf, NewGate,
// NewInner, ...): a loaded composite is predict-only and must not be
// refitted. Every other loaded family can be refitted freely.

// modelEnvelope is the on-disk form of one classifier.
type modelEnvelope struct {
	Kind string          `json:"kind"`
	Spec json.RawMessage `json:"spec"`
}

// Model kind tags. These are a persistence format: never renumber or
// reuse them.
const (
	kindKNN      = "knn"
	kindTree     = "tree"
	kindForest   = "forest"
	kindLogReg   = "logreg"
	kindMLP      = "mlp"
	kindTwoStage = "twostage"
	kindPipeline = "pca-pipeline"
)

type knnSpec struct {
	K        int         `json:"k"`
	Weighted bool        `json:"weighted"`
	X        [][]float64 `json:"x"`
	Y        []int       `json:"y"`
	Classes  int         `json:"classes"`
}

// treeNodeSpec is one flattened tree node; children are indices into the
// node array (-1 = none). Node 0 is the root.
type treeNodeSpec struct {
	Feature int     `json:"f"`
	Thresh  float64 `json:"t"`
	Left    int     `json:"l"`
	Right   int     `json:"r"`
	Label   int     `json:"y"`
	Leaf    bool    `json:"leaf,omitempty"`
}

type treeSpec struct {
	MaxDepth    int            `json:"maxDepth"`
	MinSamples  int            `json:"minSamples"`
	MaxFeatures int            `json:"maxFeatures,omitempty"`
	Seed        int64          `json:"seed,omitempty"`
	Classes     int            `json:"classes"`
	Nodes       []treeNodeSpec `json:"nodes"`
}

type forestSpec struct {
	Trees      int        `json:"trees"`
	MaxDepth   int        `json:"maxDepth"`
	MinSamples int        `json:"minSamples"`
	Seed       int64      `json:"seed,omitempty"`
	Classes    int        `json:"classes"`
	Fitted     []treeSpec `json:"fitted"`
}

type logregSpec struct {
	Epochs    int         `json:"epochs"`
	LearnRate float64     `json:"learnRate"`
	L2        float64     `json:"l2"`
	Seed      int64       `json:"seed,omitempty"`
	In        int         `json:"in"`
	Out       int         `json:"out"`
	W         [][]float64 `json:"w"`
}

type mlpSpec struct {
	Hidden    int         `json:"hidden"`
	Epochs    int         `json:"epochs"`
	LearnRate float64     `json:"learnRate"`
	Momentum  float64     `json:"momentum"`
	L2        float64     `json:"l2"`
	BatchSize int         `json:"batchSize"`
	Seed      int64       `json:"seed,omitempty"`
	In        int         `json:"in"`
	Out       int         `json:"out"`
	W1        [][]float64 `json:"w1"`
	W2        [][]float64 `json:"w2"`
}

type twoStageSpec struct {
	CPUClass int            `json:"cpuClass"`
	GPUClass int            `json:"gpuClass"`
	Fallback int            `json:"fallback"`
	Gate     modelEnvelope  `json:"gate"`
	Split    *modelEnvelope `json:"split,omitempty"`
}

type pipelineSpec struct {
	K     int           `json:"k"`
	Seed  int64         `json:"seed,omitempty"`
	PCA   *PCA          `json:"pca"`
	Inner modelEnvelope `json:"inner"`
}

// pcaJSON is the serialized form of a PCA (the mean is unexported).
type pcaJSON struct {
	Components [][]float64 `json:"components"`
	Explained  []float64   `json:"explained"`
	Mean       []float64   `json:"mean"`
}

// MarshalJSON implements json.Marshaler for PCA.
func (p *PCA) MarshalJSON() ([]byte, error) {
	return json.Marshal(pcaJSON{Components: p.Components, Explained: p.Explained, Mean: p.mean})
}

// UnmarshalJSON implements json.Unmarshaler for PCA.
func (p *PCA) UnmarshalJSON(data []byte) error {
	var s pcaJSON
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	p.Components, p.Explained, p.mean = s.Components, s.Explained, s.Mean
	return nil
}

// envelope builds the tagged form of one classifier.
func envelope(c Classifier) (modelEnvelope, error) {
	var (
		kind string
		spec any
	)
	switch m := c.(type) {
	case *KNN:
		kind, spec = kindKNN, knnSpec{K: m.K, Weighted: m.Weighted, X: m.x, Y: m.y, Classes: m.n}
	case *Tree:
		kind, spec = kindTree, treeSpec{
			MaxDepth: m.MaxDepth, MinSamples: m.MinSamples, MaxFeatures: m.MaxFeatures,
			Seed: m.Seed, Classes: m.n, Nodes: flattenTree(m.root),
		}
	case *Forest:
		fs := forestSpec{Trees: m.Trees, MaxDepth: m.MaxDepth, MinSamples: m.MinSamples, Seed: m.Seed, Classes: m.n}
		for _, t := range m.trees {
			fs.Fitted = append(fs.Fitted, treeSpec{
				MaxDepth: t.MaxDepth, MinSamples: t.MinSamples, MaxFeatures: t.MaxFeatures,
				Seed: t.Seed, Classes: t.n, Nodes: flattenTree(t.root),
			})
		}
		kind, spec = kindForest, fs
	case *LogReg:
		kind, spec = kindLogReg, logregSpec{
			Epochs: m.Epochs, LearnRate: m.LearnRate, L2: m.L2, Seed: m.Seed,
			In: m.in, Out: m.out, W: m.w,
		}
	case *MLP:
		kind, spec = kindMLP, mlpSpec{
			Hidden: m.Hidden, Epochs: m.Epochs, LearnRate: m.LearnRate, Momentum: m.Momentum,
			L2: m.L2, BatchSize: m.BatchSize, Seed: m.Seed,
			In: m.in, Out: m.out, W1: m.w1, W2: m.w2,
		}
	case *TwoStage:
		gate, err := envelope(m.gate)
		if err != nil {
			return modelEnvelope{}, fmt.Errorf("ml: twostage gate: %w", err)
		}
		ts := twoStageSpec{CPUClass: m.CPUClass, GPUClass: m.GPUClass, Fallback: m.fallback, Gate: gate}
		if m.split != nil {
			split, err := envelope(m.split)
			if err != nil {
				return modelEnvelope{}, fmt.Errorf("ml: twostage split: %w", err)
			}
			ts.Split = &split
		}
		kind, spec = kindTwoStage, ts
	case *PCAPipeline:
		inner, err := envelope(m.inner)
		if err != nil {
			return modelEnvelope{}, fmt.Errorf("ml: pipeline inner: %w", err)
		}
		kind, spec = kindPipeline, pipelineSpec{K: m.K, Seed: m.Seed, PCA: m.pca, Inner: inner}
	default:
		return modelEnvelope{}, fmt.Errorf("ml: cannot serialize model type %T", c)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return modelEnvelope{}, err
	}
	return modelEnvelope{Kind: kind, Spec: raw}, nil
}

// fromEnvelope rebuilds a classifier from its JSON envelope. Loaded
// composite models (twostage, pca-pipeline) are predict-only; every other
// family can be refitted.
func fromEnvelope(env modelEnvelope) (Classifier, error) {
	switch env.Kind {
	case kindKNN:
		var s knnSpec
		if err := json.Unmarshal(env.Spec, &s); err != nil {
			return nil, err
		}
		return &KNN{K: s.K, Weighted: s.Weighted, x: s.X, y: s.Y, n: s.Classes}, nil
	case kindTree:
		var s treeSpec
		if err := json.Unmarshal(env.Spec, &s); err != nil {
			return nil, err
		}
		root, err := unflattenTree(s.Nodes)
		if err != nil {
			return nil, err
		}
		return &Tree{
			MaxDepth: s.MaxDepth, MinSamples: s.MinSamples, MaxFeatures: s.MaxFeatures,
			Seed: s.Seed, root: root, n: s.Classes,
		}, nil
	case kindForest:
		var s forestSpec
		if err := json.Unmarshal(env.Spec, &s); err != nil {
			return nil, err
		}
		f := &Forest{Trees: s.Trees, MaxDepth: s.MaxDepth, MinSamples: s.MinSamples, Seed: s.Seed, n: s.Classes}
		for i, ts := range s.Fitted {
			root, err := unflattenTree(ts.Nodes)
			if err != nil {
				return nil, fmt.Errorf("ml: forest tree %d: %w", i, err)
			}
			f.trees = append(f.trees, &Tree{
				MaxDepth: ts.MaxDepth, MinSamples: ts.MinSamples, MaxFeatures: ts.MaxFeatures,
				Seed: ts.Seed, root: root, n: ts.Classes,
			})
		}
		return f, nil
	case kindLogReg:
		var s logregSpec
		if err := json.Unmarshal(env.Spec, &s); err != nil {
			return nil, err
		}
		return &LogReg{
			Epochs: s.Epochs, LearnRate: s.LearnRate, L2: s.L2, Seed: s.Seed,
			w: s.W, in: s.In, out: s.Out,
		}, nil
	case kindMLP:
		var s mlpSpec
		if err := json.Unmarshal(env.Spec, &s); err != nil {
			return nil, err
		}
		return &MLP{
			Hidden: s.Hidden, Epochs: s.Epochs, LearnRate: s.LearnRate, Momentum: s.Momentum,
			L2: s.L2, BatchSize: s.BatchSize, Seed: s.Seed,
			w1: s.W1, w2: s.W2, in: s.In, out: s.Out,
		}, nil
	case kindTwoStage:
		var s twoStageSpec
		if err := json.Unmarshal(env.Spec, &s); err != nil {
			return nil, err
		}
		gate, err := fromEnvelope(s.Gate)
		if err != nil {
			return nil, fmt.Errorf("ml: twostage gate: %w", err)
		}
		m := &TwoStage{CPUClass: s.CPUClass, GPUClass: s.GPUClass, gate: gate, fallback: s.Fallback}
		if s.Split != nil {
			if m.split, err = fromEnvelope(*s.Split); err != nil {
				return nil, fmt.Errorf("ml: twostage split: %w", err)
			}
		}
		return m, nil
	case kindPipeline:
		var s pipelineSpec
		if err := json.Unmarshal(env.Spec, &s); err != nil {
			return nil, err
		}
		inner, err := fromEnvelope(s.Inner)
		if err != nil {
			return nil, fmt.Errorf("ml: pipeline inner: %w", err)
		}
		return &PCAPipeline{K: s.K, Seed: s.Seed, pca: s.PCA, inner: inner}, nil
	default:
		return nil, fmt.Errorf("ml: unknown model kind %q", env.Kind)
	}
}

// flattenTree serializes a node tree to an array in preorder; node 0 is
// the root, children are array indices.
func flattenTree(root *treeNode) []treeNodeSpec {
	if root == nil {
		return nil
	}
	var nodes []treeNodeSpec
	var walk func(n *treeNode) int
	walk = func(n *treeNode) int {
		i := len(nodes)
		nodes = append(nodes, treeNodeSpec{
			Feature: n.feature, Thresh: n.thresh, Label: n.label, Leaf: n.leaf,
			Left: -1, Right: -1,
		})
		if n.left != nil {
			nodes[i].Left = walk(n.left)
		}
		if n.right != nil {
			nodes[i].Right = walk(n.right)
		}
		return i
	}
	walk(root)
	return nodes
}

// unflattenTree rebuilds the pointer tree from the serialized array.
func unflattenTree(specs []treeNodeSpec) (*treeNode, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	nodes := make([]treeNode, len(specs))
	for i, s := range specs {
		nodes[i] = treeNode{feature: s.Feature, thresh: s.Thresh, label: s.Label, leaf: s.Leaf}
		for _, child := range [2]int{s.Left, s.Right} {
			if child != -1 && (child <= i || child >= len(specs)) {
				return nil, fmt.Errorf("ml: corrupt tree: node %d has child index %d", i, child)
			}
		}
		if s.Left != -1 {
			nodes[i].left = &nodes[s.Left]
		}
		if s.Right != -1 {
			nodes[i].right = &nodes[s.Right]
		}
	}
	return &nodes[0], nil
}

// ---------------------------------------------------------------------------
// Artifact: the deployable unit — scaler + model + the metadata needed to
// apply them to raw feature vectors.
// ---------------------------------------------------------------------------

// ArtifactVersion is the current artifact format version. Bump only with
// a migration path for existing artifacts.
const ArtifactVersion = 1

// Lineage records where a retrained model came from: its position in the
// version chain, the composition of its training set, and the
// no-regression gate scores that admitted it. The adaptive loop
// (internal/engine) stamps one onto every artifact it promotes, so a
// model file is self-describing — an operator can read back why any
// serving model exists.
type Lineage struct {
	// ModelVersion is the registry version number (1 = the seed model).
	ModelVersion int `json:"modelVersion"`
	// Parent is the version this model was gated against (0 = none).
	Parent int `json:"parent,omitempty"`
	// SeedRecords and ObsRecords are the training-set composition: rows
	// from the offline training database vs. rows harvested from the
	// observation log.
	SeedRecords int `json:"seedRecords,omitempty"`
	ObsRecords  int `json:"obsRecords,omitempty"`
	// GateLive and GateCandidate are the held-out-slice accuracies of
	// the then-live configuration (seed data only) and this candidate's
	// configuration (seed + observations), each refit without the
	// holdout, at promotion time; the gate requires GateCandidate >=
	// GateLive over HoldoutSize samples.
	GateLive      float64 `json:"gateLive,omitempty"`
	GateCandidate float64 `json:"gateCandidate,omitempty"`
	HoldoutSize   int     `json:"holdoutSize,omitempty"`
	// TrainedAtUnix is the promotion wall clock in Unix seconds (0 when
	// the trainer wants deterministic artifacts, e.g. tests).
	TrainedAtUnix int64 `json:"trainedAt,omitempty"`
}

// Artifact bundles a trained model with its feature scaler and the
// metadata a deployment engine needs to serve it: which platform it was
// trained for, the feature schema and the class space. An artifact's
// Predict is bit-for-bit the predictor that was trained, across Save/Load.
type Artifact struct {
	Version int `json:"version"`
	// Platform names the device platform whose records trained the model.
	Platform string `json:"platform,omitempty"`
	// ModelName is the model family tag (Classifier.Name at save time).
	ModelName string `json:"model"`
	// FeatureNames is the expected raw feature vector schema, in order.
	FeatureNames []string `json:"featureNames,omitempty"`
	// Space is the class space: Space[class] is the partition string.
	Space []string `json:"space,omitempty"`
	// Lineage is the adaptive-loop provenance (nil for offline-trained
	// artifacts, which predate the version chain).
	Lineage *Lineage `json:"lineage,omitempty"`
	// Scaler standardizes raw feature vectors before prediction.
	Scaler *Scaler `json:"scaler"`
	// Model is the fitted classifier.
	Model Classifier `json:"-"`
}

// artifactJSON is the on-disk layout; Model is expanded to its envelope.
type artifactJSON struct {
	Version      int           `json:"version"`
	Platform     string        `json:"platform,omitempty"`
	ModelName    string        `json:"model"`
	FeatureNames []string      `json:"featureNames,omitempty"`
	Space        []string      `json:"space,omitempty"`
	Lineage      *Lineage      `json:"lineage,omitempty"`
	Scaler       *Scaler       `json:"scaler"`
	ModelSpec    modelEnvelope `json:"modelSpec"`
}

// MarshalJSON implements json.Marshaler.
func (a *Artifact) MarshalJSON() ([]byte, error) {
	if a.Model == nil {
		return nil, fmt.Errorf("ml: artifact has no model")
	}
	env, err := envelope(a.Model)
	if err != nil {
		return nil, err
	}
	return json.Marshal(artifactJSON{
		Version: a.Version, Platform: a.Platform, ModelName: a.ModelName,
		FeatureNames: a.FeatureNames, Space: a.Space, Lineage: a.Lineage, Scaler: a.Scaler, ModelSpec: env,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (a *Artifact) UnmarshalJSON(data []byte) error {
	var s artifactJSON
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	model, err := fromEnvelope(s.ModelSpec)
	if err != nil {
		return err
	}
	*a = Artifact{
		Version: s.Version, Platform: s.Platform, ModelName: s.ModelName,
		FeatureNames: s.FeatureNames, Space: s.Space, Lineage: s.Lineage, Scaler: s.Scaler, Model: model,
	}
	return nil
}

// Predict scales the raw feature vector and returns the model's class.
// The class is returned raw — callers decide how to handle a prediction
// outside their class space.
func (a *Artifact) Predict(x []float64) int {
	if a.Scaler != nil {
		x = a.Scaler.Transform(x)
	}
	return a.Model.Predict(x)
}

// TrainArtifact fits a fresh model (with feature scaling) on the whole
// dataset and wraps it as a deployable artifact: the deployment path, the
// shipped model trained on the full training DB. The artifact predicts
// exactly what the in-memory model does, before and after a Save/Load
// round trip.
func TrainArtifact(d *Dataset, mk NewModel) (*Artifact, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	scaler := FitScaler(d)
	model := mk()
	if err := model.Fit(scaler.TransformDataset(d)); err != nil {
		return nil, err
	}
	return &Artifact{
		Version:      ArtifactVersion,
		ModelName:    model.Name(),
		FeatureNames: append([]string{}, d.Names...),
		Scaler:       scaler,
		Model:        model,
	}, nil
}

// EncodeArtifact writes the artifact as indented JSON (deterministic:
// identical artifacts produce identical bytes).
func EncodeArtifact(w io.Writer, a *Artifact) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// DecodeArtifact reads an artifact written by EncodeArtifact.
func DecodeArtifact(r io.Reader) (*Artifact, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	a := &Artifact{}
	if err := json.Unmarshal(data, a); err != nil {
		return nil, err
	}
	if a.Version <= 0 || a.Version > ArtifactVersion {
		return nil, fmt.Errorf("ml: unsupported artifact version %d (max %d)", a.Version, ArtifactVersion)
	}
	return a, nil
}

// SaveArtifact writes the artifact to path, creating parent directories.
// It encodes into a temporary file beside path, syncs it, renames it over
// path and syncs the directory, so a serving engine never observes a torn
// artifact, and a save that returns nil has the whole new artifact at path
// across a crash or power loss. A save that fails returns its errors,
// leaves at path what was there, and removes its temporary file.
func SaveArtifact(path string, a *Artifact) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".artifact-*")
	if err != nil {
		return err
	}
	// CreateTemp files are 0600; artifacts are shared read-only data
	// (trained by one user, served by another), like the database. Every
	// step runs, so the file is closed whichever of them fails.
	err = errors.Join(EncodeArtifact(tmp, a), tmp.Chmod(0o644), tmp.Sync(), tmp.Close())
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// LoadArtifact reads an artifact from path.
func LoadArtifact(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := DecodeArtifact(f)
	if err != nil {
		return nil, fmt.Errorf("ml: artifact %s: %w", path, err)
	}
	return a, nil
}
