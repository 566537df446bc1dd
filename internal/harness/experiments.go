package harness

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ml"
)

// DefaultModel builds the framework's default predictor (MLP, matching the
// Insieme line of work). Seed fixes initialization for reproducibility.
func DefaultModel() ml.NewModel {
	return func() ml.Classifier { return ml.NewMLP(32, 42) }
}

// FastModel is a cheaper model used by tests and quick runs.
func FastModel() ml.NewModel {
	return func() ml.Classifier { return ml.NewKNN(5) }
}

// ---------------------------------------------------------------------------
// Figure 1: speedup of ML-guided partitioning over CPU-only and GPU-only.
// ---------------------------------------------------------------------------

// Fig1Row is one program's bars in Figure 1 for one platform.
type Fig1Row struct {
	Program      string
	Predicted    string  // predicted partition (CPU/GPU1/GPU2 percentages)
	Oracle       string  // oracle partition
	PredTime     float64 // simulated seconds under the predicted partitioning
	OracleTime   float64
	SpeedupVsCPU float64 // CPUOnlyTime / PredTime
	SpeedupVsGPU float64 // GPUOnlyTime / PredTime
	OracleEff    float64 // OracleTime / PredTime (1 = perfect prediction)
}

// Fig1Result is Figure 1 for one platform.
type Fig1Result struct {
	Platform      string
	SizeLabel     string
	Rows          []Fig1Row
	GeoMeanVsCPU  float64
	GeoMeanVsGPU  float64
	MeanOracleEff float64
}

// Figure1 reproduces the paper's Figure 1 for one platform: for every
// program, a model is trained on the remaining programs' records (all
// problem sizes, leave-one-program-out — the deployment scenario) and
// predicts the partitioning at the program's default size. Speedups
// compare against the CPU-only and GPU-only default strategies.
func Figure1(db *DB, platform string, mk ml.NewModel) (*Fig1Result, error) {
	data := db.Dataset(platform, nil)
	if data.Len() == 0 {
		return nil, fmt.Errorf("harness: no records for platform %q", platform)
	}
	_, folds, err := leaveOneProgramOut(db, platform, data, mk)
	if err != nil {
		return nil, err
	}
	res := &Fig1Result{Platform: platform}
	gmCPU, gmGPU, effSum := 0.0, 0.0, 0.0
	for _, fold := range folds {
		// Pick the held-out sample at the program's default size.
		var row *Fig1Row
		for _, h := range fold {
			r := h.rec
			def, err := defaultSizeIdx(db, platform, r.Program)
			if err != nil {
				return nil, err
			}
			if r.SizeIdx != def {
				continue
			}
			row = &Fig1Row{
				Program:      r.Program,
				Predicted:    db.Space[h.cls],
				Oracle:       r.BestPartition,
				PredTime:     h.time,
				OracleTime:   r.OracleTime,
				SpeedupVsCPU: r.CPUOnlyTime / h.time,
				SpeedupVsGPU: r.GPUOnlyTime / h.time,
				OracleEff:    r.OracleTime / h.time,
			}
			res.SizeLabel = r.SizeLabel
		}
		if row == nil {
			return nil, fmt.Errorf("harness: no default-size record for group %q", fold[0].rec.Program)
		}
		res.Rows = append(res.Rows, *row)
		gmCPU += math.Log(row.SpeedupVsCPU)
		gmGPU += math.Log(row.SpeedupVsGPU)
		effSum += row.OracleEff
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Program < res.Rows[j].Program })
	n := float64(len(res.Rows))
	res.GeoMeanVsCPU = math.Exp(gmCPU / n)
	res.GeoMeanVsGPU = math.Exp(gmGPU / n)
	res.MeanOracleEff = effSum / n
	return res, nil
}

// heldOut is one record a leave-one-program-out fold held out, with the
// class the fold's model predicted for it and that class's time.
type heldOut struct {
	rec  *Record
	cls  int     // the predicted class; 0 when the model answers outside the space
	time float64 // rec.Times[cls]
}

// leaveOneProgramOut cross-validates mk on data, a dataset of platform's
// records in PlatformRecords order (under any feature subset), and
// returns the exact-label accuracy and each fold's held-out records,
// fold by fold. Every fold holds out at least one record.
func leaveOneProgramOut(db *DB, platform string, data *ml.Dataset, mk ml.NewModel) (float64, [][]heldOut, error) {
	cv, err := ml.LeaveOneGroupOut(data, mk)
	if err != nil {
		return 0, nil, err
	}
	recs := db.PlatformRecords(platform)
	folds := make([][]heldOut, len(cv.Folds))
	for i, fold := range cv.Folds {
		for fi, ti := range fold.TestIdx {
			r := &recs[ti]
			cls := fold.Predicted[fi]
			if cls < 0 || cls >= len(r.Times) {
				cls = 0
			}
			folds[i] = append(folds[i], heldOut{rec: r, cls: cls, time: r.Times[cls]})
		}
	}
	return cv.Accuracy(), folds, nil
}

// defaultSizeIdx returns the benchmark's default size index, capped to the
// sizes actually present in the database (reduced test databases). Both
// lookups go through the database's O(1) index.
func defaultSizeIdx(db *DB, platform, program string) (int, error) {
	maxIdx, ok := db.MaxSizeIdx(platform, program)
	if !ok {
		return 0, fmt.Errorf("harness: program %q not in database for %q", program, platform)
	}
	if def := benchDefault(program); db.Find(platform, program, def) != nil {
		return def, nil
	}
	// Prefer the largest generated size if the canonical default is missing.
	return maxIdx, nil
}

// ---------------------------------------------------------------------------
// T2: defaults asymmetry — which default wins where (paper claim C2).
// ---------------------------------------------------------------------------

// DefaultsRow summarizes CPU-only vs GPU-only on one platform.
type DefaultsRow struct {
	Platform   string
	CPUWins    int // records where CPU-only beats GPU-only
	GPUWins    int
	MeanCPUGPU float64 // geomean of GPUOnlyTime/CPUOnlyTime (>1: CPU better)
}

// DefaultsAsymmetry computes T2 over all records of each platform.
func DefaultsAsymmetry(db *DB, platforms []string) []DefaultsRow {
	var out []DefaultsRow
	for _, plat := range platforms {
		row := DefaultsRow{Platform: plat}
		logSum, n := 0.0, 0
		for _, r := range db.PlatformRecords(plat) {
			if r.CPUOnlyTime < r.GPUOnlyTime {
				row.CPUWins++
			} else {
				row.GPUWins++
			}
			logSum += math.Log(r.GPUOnlyTime / r.CPUOnlyTime)
			n++
		}
		if n > 0 {
			row.MeanCPUGPU = math.Exp(logSum / float64(n))
		}
		out = append(out, row)
	}
	return out
}

// ---------------------------------------------------------------------------
// T3: problem-size sensitivity of the oracle partitioning (claim C1).
// ---------------------------------------------------------------------------

// SizeRow is the oracle partitioning of one program across problem sizes.
type SizeRow struct {
	Program    string
	Platform   string
	PerSize    []string  // oracle partition per size label
	SizeLabels []string  // matching labels
	GPUShare   []float64 // GPU fraction per size (0..1)
}

// SizeSensitivity computes T3 for the given programs on one platform.
func SizeSensitivity(db *DB, platform string, programs []string) ([]SizeRow, error) {
	var out []SizeRow
	for _, prog := range programs {
		row := SizeRow{Program: prog, Platform: platform}
		for sz := 0; sz <= 5; sz++ {
			r := db.Find(platform, prog, sz)
			if r == nil {
				continue
			}
			row.PerSize = append(row.PerSize, r.BestPartition)
			row.SizeLabels = append(row.SizeLabels, r.SizeLabel)
			row.GPUShare = append(row.GPUShare, gpuShareOf(r.BestPartition))
		}
		if len(row.PerSize) == 0 {
			return nil, fmt.Errorf("harness: no records for %s on %s", prog, platform)
		}
		out = append(out, row)
	}
	return out, nil
}

// gpuShareOf parses "c/g1/g2" and returns (g1+g2)/100.
func gpuShareOf(p string) float64 {
	var c, g1, g2 int
	fmt.Sscanf(p, "%d/%d/%d", &c, &g1, &g2)
	return float64(g1+g2) / 100
}

// ---------------------------------------------------------------------------
// T4: model comparison under leave-one-program-out CV.
// ---------------------------------------------------------------------------

// ModelRow reports one model family's quality on one platform.
type ModelRow struct {
	Model     string
	Platform  string
	Accuracy  float64 // exact-label accuracy (66 classes; strict)
	OracleEff float64 // mean oracle/predicted time ratio (1 = oracle)
	VsCPU     float64 // geomean speedup of predicted vs CPU-only
	VsGPU     float64
}

// CompareModels runs T4: each model family cross-validated on the platform.
func CompareModels(db *DB, platform string, models map[string]ml.NewModel) ([]ModelRow, error) {
	data := db.Dataset(platform, nil)
	var names []string
	for name := range models {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []ModelRow
	for _, name := range names {
		acc, folds, err := leaveOneProgramOut(db, platform, data, models[name])
		if err != nil {
			return nil, err
		}
		row := ModelRow{Model: name, Platform: platform, Accuracy: acc}
		effSum, cpuLog, gpuLog, n := 0.0, 0.0, 0.0, 0
		for _, fold := range folds {
			for _, h := range fold {
				effSum += h.rec.OracleTime / h.time
				cpuLog += math.Log(h.rec.CPUOnlyTime / h.time)
				gpuLog += math.Log(h.rec.GPUOnlyTime / h.time)
				n++
			}
		}
		row.OracleEff = effSum / float64(n)
		row.VsCPU = math.Exp(cpuLog / float64(n))
		row.VsGPU = math.Exp(gpuLog / float64(n))
		out = append(out, row)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// T5: feature-class ablation (static-only / runtime-only / combined).
// ---------------------------------------------------------------------------

// AblationRow reports prediction quality for one feature subset.
type AblationRow struct {
	Features  string
	Platform  string
	Accuracy  float64
	OracleEff float64
}

// FeatureAblation runs T5 with the given model on one platform.
func FeatureAblation(db *DB, platform string, mk ml.NewModel) ([]AblationRow, error) {
	subsets := []struct {
		name   string
		filter func(string) bool
	}{
		{"static-only", func(n string) bool { return n[0] == 's' }},
		{"runtime-only", func(n string) bool { return n[0] == 'r' }},
		{"combined", nil},
	}
	var out []AblationRow
	for _, sub := range subsets {
		acc, folds, err := leaveOneProgramOut(db, platform, db.Dataset(platform, sub.filter), mk)
		if err != nil {
			return nil, err
		}
		row := AblationRow{Features: sub.name, Platform: platform, Accuracy: acc}
		effSum, n := 0.0, 0
		for _, fold := range folds {
			for _, h := range fold {
				effSum += h.rec.OracleTime / h.time
				n++
			}
		}
		row.OracleEff = effSum / float64(n)
		out = append(out, row)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// T6: oracle gap — how much the best partitioning beats the best single
// device, and how close prediction gets.
// ---------------------------------------------------------------------------

// OracleGapRow summarizes the headroom multi-device partitioning offers.
type OracleGapRow struct {
	Platform string
	// MeanOracleVsBestSingle is the geomean of bestSingleDevice/oracle
	// (>1 means partitioning beats any single device).
	MeanOracleVsBestSingle float64
	// FracMultiDevice is the fraction of records whose oracle uses >1 device.
	FracMultiDevice float64
	// FracSizeDependent is the fraction of programs whose oracle
	// partitioning changes across problem sizes (claim C1).
	FracSizeDependent float64
}

// OracleGap computes T6 for one platform.
func OracleGap(db *DB, platform string) OracleGapRow {
	recs := db.PlatformRecords(platform)
	row := OracleGapRow{Platform: platform}
	logSum, n, multi := 0.0, 0, 0
	perProgram := map[string]map[string]bool{}
	for _, r := range recs {
		single := math.Min(r.CPUOnlyTime, r.GPUOnlyTime)
		logSum += math.Log(single / r.OracleTime)
		n++
		if gpuShareOf(r.BestPartition) > 0 && gpuShareOf(r.BestPartition) < 1 {
			multi++
		}
		if perProgram[r.Program] == nil {
			perProgram[r.Program] = map[string]bool{}
		}
		perProgram[r.Program][r.BestPartition] = true
	}
	if n > 0 {
		row.MeanOracleVsBestSingle = math.Exp(logSum / float64(n))
		row.FracMultiDevice = float64(multi) / float64(n)
	}
	changed := 0
	for _, parts := range perProgram {
		if len(parts) > 1 {
			changed++
		}
	}
	if len(perProgram) > 0 {
		row.FracSizeDependent = float64(changed) / float64(len(perProgram))
	}
	return row
}
