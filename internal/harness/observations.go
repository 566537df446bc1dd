package harness

import (
	"fmt"

	"repro/internal/obs"
)

// ObservationRecord converts one labeled observation into a training
// record for a database whose class space is space. The observation must
// be labeled (its measured-best class sampled), verified, and carry the
// complete feature vector and per-class time vector — i.e. everything
// the offline sweep would have produced for the same (program, size)
// cell. The deployment engine records exactly this shape, once per cell
// and platform, so serving traffic and Generate feed one training
// pipeline.
func ObservationRecord(space []string, o obs.Observation) (Record, error) {
	if !o.Labeled {
		return Record{}, fmt.Errorf("harness: observation %d (%s/%d) is unlabeled", o.Seq, o.Program, o.SizeIdx)
	}
	if !o.Verified {
		return Record{}, fmt.Errorf("harness: observation %d (%s/%d) failed output verification", o.Seq, o.Program, o.SizeIdx)
	}
	if len(o.Times) != len(space) {
		return Record{}, fmt.Errorf("harness: observation %d prices %d classes, space has %d", o.Seq, len(o.Times), len(space))
	}
	if o.BestClass < 0 || o.BestClass >= len(space) {
		return Record{}, fmt.Errorf("harness: observation %d best class %d outside space", o.Seq, o.BestClass)
	}
	if len(o.FeatureNames) == 0 || len(o.Features) != len(o.FeatureNames) {
		return Record{}, fmt.Errorf("harness: observation %d has %d features for %d names", o.Seq, len(o.Features), len(o.FeatureNames))
	}
	return Record{
		Program:       o.Program,
		Suite:         o.Suite,
		Platform:      o.Platform,
		SizeIdx:       o.SizeIdx,
		SizeLabel:     o.SizeLabel,
		SizeN:         o.SizeN,
		FeatureNames:  append([]string{}, o.FeatureNames...),
		Features:      append([]float64{}, o.Features...),
		Times:         append([]float64{}, o.Times...),
		BestClass:     o.BestClass,
		BestPartition: space[o.BestClass],
		OracleTime:    o.OracleTime,
		CPUOnlyTime:   o.CPUOnlyTime,
		GPUOnlyTime:   o.GPUOnlyTime,
	}, nil
}

// ObservationRecords converts every eligible observation for the given
// platform ("" = all platforms), skipping the rest: unlabeled or
// unverified observations, other platforms, and feature schemas that do
// not match wantNames (nil = accept any single schema, pinned by the
// first eligible observation). Returns the records and how many
// observations were skipped.
//
// Skipping rather than failing is deliberate: an observation log may mix
// platforms and span binary versions with different feature schemas; the
// caller trains on the consistent subset and reports the rest.
func ObservationRecords(space []string, wantNames []string, platform string, list []obs.Observation) (recs []Record, skipped int) {
	for _, o := range list {
		if platform != "" && o.Platform != platform {
			skipped++
			continue
		}
		rec, err := ObservationRecord(space, o)
		if err != nil {
			skipped++
			continue
		}
		if wantNames == nil {
			wantNames = rec.FeatureNames
		}
		if !sameNames(rec.FeatureNames, wantNames) {
			skipped++
			continue
		}
		recs = append(recs, rec)
	}
	return recs, skipped
}

// sameNames reports whether two feature schemas are identical (same
// names, same order — positional feature vectors tolerate nothing less).
func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AppendObservations merges a log's cell labels (obs.Log.Snapshot: the
// newest label of every cell) into the database as first-class training
// records (the offline `train -from-observations` path). Observations must match the
// database's feature schema when the database already has records; the
// lookup indexes stay coherent (Find keeps preferring the original
// sweep's record for a cell both sources cover — measured-on-sweep data
// is the reference, observations extend coverage). Returns how many
// records were added and how many observations were skipped.
func (db *DB) AppendObservations(list []obs.Observation) (added, skipped int) {
	var wantNames []string
	db.mu.RLock()
	if len(db.Records) > 0 {
		wantNames = db.Records[0].FeatureNames
	}
	space := db.Space
	db.mu.RUnlock()
	recs, skipped := ObservationRecords(space, wantNames, "", list)
	db.Append(recs...)
	return len(recs), skipped
}
