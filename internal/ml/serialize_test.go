package ml

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden artifacts")

// serializableModels enumerates every model family with a constructor
// sized for the synthetic problem. Each entry must survive
// Fit→Save→Load→Predict with byte-identical predictions.
func serializableModels() map[string]NewModel {
	return map[string]NewModel{
		"knn":      func() Classifier { return NewKNN(5) },
		"tree":     func() Classifier { return NewTree() },
		"forest":   func() Classifier { return NewForest(10, 7) },
		"logreg":   func() Classifier { return NewLogReg(7) },
		"mlp":      func() Classifier { return NewMLP(8, 7) },
		"twostage": newStageModel,
		"pca-pipeline": func() Classifier {
			return NewPCAPipeline(3, 7, func() Classifier { return NewKNN(5) })
		},
	}
}

// probePoints builds deterministic query vectors spanning the feature
// space, including points far outside the training distribution.
func probePoints(dim int, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.NormFloat64() * 3
		}
		out[i] = x
	}
	return out
}

// TestModelRoundTripAllFamilies is the serialization property test: for
// every model family, a fitted model's predictions are identical before
// and after Save/Load, and re-serializing the loaded model reproduces the
// exact bytes (no format drift within a process).
func TestModelRoundTripAllFamilies(t *testing.T) {
	for name, mk := range serializableModels() {
		t.Run(name, func(t *testing.T) {
			d := synthDataset(160, 11)
			if name == "twostage" {
				d = stageDataset(160, 11)
			}
			sc := FitScaler(d)
			sd := sc.TransformDataset(d)
			model := mk()
			if err := model.Fit(sd); err != nil {
				t.Fatal(err)
			}
			data, err := marshalModel(model)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			loaded, err := unmarshalModel(data)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if loaded.Name() != model.Name() {
				t.Errorf("name drift: %q -> %q", model.Name(), loaded.Name())
			}
			for i, x := range probePoints(d.Dim(), 200, 23) {
				sx := sc.Transform(x)
				want, got := model.Predict(sx), loaded.Predict(sx)
				if want != got {
					t.Fatalf("probe %d: fresh=%d loaded=%d", i, want, got)
				}
			}
			again, err := marshalModel(loaded)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("serialization not stable under round trip:\n%s\nvs\n%s", data, again)
			}
		})
	}
}

// TestLoadedModelRefit checks that non-composite loaded models can be
// refitted (the train-on-the-fly fallback path reuses loaded hyperparams).
func TestLoadedModelRefit(t *testing.T) {
	for _, name := range []string{"knn", "tree", "forest", "logreg", "mlp"} {
		mk := serializableModels()[name]
		d := synthDataset(80, 3)
		model := mk()
		if err := model.Fit(d); err != nil {
			t.Fatal(err)
		}
		data, err := marshalModel(model)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := unmarshalModel(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.Fit(d); err != nil {
			t.Errorf("%s: refit after load: %v", name, err)
		}
	}
}

func TestScalerRoundTrip(t *testing.T) {
	d := synthDataset(60, 5)
	sc := FitScaler(d)
	a := &Artifact{Version: ArtifactVersion, ModelName: "knn5", Scaler: sc, Model: NewKNN(3)}
	if err := a.Model.Fit(sc.TransformDataset(d)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeArtifact(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := DecodeArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for j := range sc.Mean {
		if b.Scaler.Mean[j] != sc.Mean[j] || b.Scaler.Std[j] != sc.Std[j] {
			t.Fatalf("scaler drift at feature %d", j)
		}
	}
	for _, x := range probePoints(d.Dim(), 50, 9) {
		ta, tb := sc.Transform(x), b.Scaler.Transform(x)
		for j := range ta {
			if ta[j] != tb[j] {
				t.Fatalf("transform drift at feature %d: %v vs %v", j, ta[j], tb[j])
			}
		}
	}
}

// TestArtifactPredictionsByteIdentical pins the PR's acceptance criterion
// at the ml layer: an artifact loaded from disk produces exactly the
// predictions of the freshly trained model it was saved from, for every
// model family (the deployment default MLP included).
func TestArtifactPredictionsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	for name, mk := range serializableModels() {
		t.Run(name, func(t *testing.T) {
			d := synthDataset(120, 17)
			if name == "twostage" {
				d = stageDataset(120, 17)
			}
			a, err := TrainArtifact(d, mk)
			if err != nil {
				t.Fatal(err)
			}
			a.Platform = "mc2"
			path := filepath.Join(dir, name+".json")
			if err := SaveArtifact(path, a); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadArtifact(path)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Platform != "mc2" || loaded.ModelName != a.ModelName {
				t.Fatalf("metadata drift: %+v", loaded)
			}
			for i, x := range probePoints(d.Dim(), 300, 31) {
				if want, got := a.Predict(x), loaded.Predict(x); want != got {
					t.Fatalf("probe %d: fresh artifact=%d loaded artifact=%d", i, want, got)
				}
			}
			// Saving the loaded artifact must reproduce the file exactly.
			path2 := filepath.Join(dir, name+"-again.json")
			if err := SaveArtifact(path2, loaded); err != nil {
				t.Fatal(err)
			}
			b1, _ := os.ReadFile(path)
			b2, _ := os.ReadFile(path2)
			if !bytes.Equal(b1, b2) {
				t.Fatal("artifact bytes not stable under load/save round trip")
			}
		})
	}
}

// goldenArtifact builds the fixed artifact pinned in testdata. It uses
// tree + knn ingredients only (no transcendental math) so the golden
// bytes are stable across architectures.
func goldenArtifact(t *testing.T) *Artifact {
	t.Helper()
	d := synthDataset(48, 42)
	a, err := TrainArtifact(d, func() Classifier { return NewForest(4, 42) })
	if err != nil {
		t.Fatal(err)
	}
	a.Platform = "mc2"
	a.Space = []string{"100/0/0", "0/100/0", "0/0/100"}
	return a
}

// TestSaveArtifactFailureKeepsOld: a save that fails — the artifact does
// not encode, or the rename over path is refused — returns the error,
// leaves the artifact already at path byte for byte, and leaves no
// temporary file behind for a later start to trip on.
func TestSaveArtifactFailureKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mc1.json")
	if err := SaveArtifact(path, goldenArtifact(t)); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveArtifact(path, &Artifact{Version: ArtifactVersion}); err == nil {
		t.Fatal("saving an artifact with no model succeeded")
	}
	// A non-empty directory at the target refuses the rename.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveArtifact(blocked, goldenArtifact(t)); err == nil {
		t.Fatal("renaming over a non-empty directory succeeded")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("the failed save changed the old artifact (%v)", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "mc1.json" && e.Name() != "blocked" {
			t.Fatalf("a failed save left %s behind", e.Name())
		}
	}
}

// TestGoldenArtifact catches serialization format drift: the checked-in
// artifact must decode, predict the pinned classes, and re-encode to the
// exact checked-in bytes. Run with -update to regenerate after an
// intentional format change (and bump ArtifactVersion).
func TestGoldenArtifact(t *testing.T) {
	path := filepath.Join("testdata", "golden_artifact.json")
	if *updateGolden {
		if err := SaveArtifact(path, goldenArtifact(t)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/ml -run Golden -update` to create)", err)
	}

	var buf bytes.Buffer
	if err := EncodeArtifact(&buf, goldenArtifact(t)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("freshly trained golden artifact encodes differently from testdata (format drift?)")
	}

	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	fresh := goldenArtifact(t)
	for i, x := range probePoints(4, 100, 77) {
		if want, got := fresh.Predict(x), loaded.Predict(x); want != got {
			t.Fatalf("probe %d: fresh=%d golden=%d", i, want, got)
		}
	}
}

// marshalModel and unmarshalModel encode one classifier as the JSON
// envelope an artifact's modelSpec holds.
func marshalModel(c Classifier) ([]byte, error) {
	env, err := envelope(c)
	if err != nil {
		return nil, err
	}
	return json.Marshal(env)
}

func unmarshalModel(data []byte) (Classifier, error) {
	var env modelEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	return fromEnvelope(env)
}

func TestUnmarshalModelErrors(t *testing.T) {
	if _, err := unmarshalModel([]byte(`{"kind":"nope","spec":{}}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := unmarshalModel([]byte(`{`)); err == nil {
		t.Error("syntax error accepted")
	}
	// A corrupt tree (forward cycle) must be rejected, not crash.
	bad := []byte(`{"kind":"tree","spec":{"classes":2,"nodes":[{"f":0,"t":0,"l":0,"r":-1,"y":0}]}}`)
	if _, err := unmarshalModel(bad); err == nil {
		t.Error("corrupt tree accepted")
	}
}
