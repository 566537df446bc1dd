// Package obs is the durable observation store of the adaptive learning
// loop: an append-only JSONL log recording every executed request the
// deployment engine serves — the feature vector it predicted from, the
// partition class it chose, the measured timings, and (when sampled) the
// measured-best class, which is exactly the oracle label the offline
// training sweep produces.
//
// A production deployment serving heavy traffic is sitting on a stream
// of free training labels; this package makes that stream durable so the
// background retrainer (internal/engine) and the offline training path
// (cmd/train -from-observations) can fold it back into the model.
//
// The log is a directory of numbered JSONL segments:
//
//	obs-00000000.jsonl
//	obs-00000001.jsonl   <- rotation starts a new segment
//	...
//
// Appends go to the highest segment; when it exceeds the size budget the
// writer seals it and starts the next — readers never observe a torn
// segment boundary because every record is one complete line. Compaction
// rewrites the survivors into a single fresh segment via temp-file +
// rename (atomic on POSIX) before unlinking the old ones, and sequence
// numbers are preserved, so a crash anywhere leaves either the old
// segments or a superset (deduplicated on read by sequence number).
//
// A Log is safe for concurrent use by any number of writers and readers
// in one process.
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Observation is one recorded execution. Fields mirror harness.Record
// where they overlap, so labeled observations convert losslessly into
// training records.
//
// Labeled marks observations whose measured-best class was sampled: the
// engine priced the full candidate space on the measured profile and
// recorded the winner (BestClass) plus the whole time vector (Times),
// which is the same oracle labeling the offline sweep performs. Only
// labeled observations can train; unlabeled ones still feed traffic
// statistics.
type Observation struct {
	// Seq is the log-assigned, strictly increasing sequence number.
	Seq uint64 `json:"seq"`
	// Time is the caller-supplied wall clock in Unix nanoseconds (0 if
	// the caller wants a fully deterministic record, e.g. golden tests).
	Time int64 `json:"time,omitempty"`

	Platform  string `json:"platform"`
	Program   string `json:"program"`
	Suite     string `json:"suite,omitempty"`
	SizeIdx   int    `json:"sizeIdx"`
	SizeLabel string `json:"sizeLabel,omitempty"`
	SizeN     int    `json:"sizeN,omitempty"`

	FeatureNames []string  `json:"featureNames,omitempty"`
	Features     []float64 `json:"features,omitempty"`

	// Class is the partition class the engine served; Partition is its
	// rendered form. Makespan is the measured (simulated) wall time and
	// DeviceTimes the per-device busy times under that partitioning.
	Class       int       `json:"class"`
	Partition   string    `json:"partition,omitempty"`
	Makespan    float64   `json:"makespan"`
	DeviceTimes []float64 `json:"deviceTimes,omitempty"`
	Verified    bool      `json:"verified"`

	// Oracle label (present when Labeled): the measured-best class over
	// the full candidate space, its time, the reference strategy times
	// and the complete per-class time vector.
	Labeled       bool      `json:"labeled,omitempty"`
	BestClass     int       `json:"bestClass,omitempty"`
	BestPartition string    `json:"bestPartition,omitempty"`
	OracleTime    float64   `json:"oracleTime,omitempty"`
	CPUOnlyTime   float64   `json:"cpuOnlyTime,omitempty"`
	GPUOnlyTime   float64   `json:"gpuOnlyTime,omitempty"`
	Times         []float64 `json:"times,omitempty"`
}

// Key identifies the training cell an observation belongs to. Compaction
// and per-cell statistics group by it.
type Key struct {
	Platform string
	Program  string
	SizeIdx  int
}

// Key returns the observation's cell key.
func (o *Observation) Key() Key {
	return Key{Platform: o.Platform, Program: o.Program, SizeIdx: o.SizeIdx}
}

// Stats is a point-in-time summary of the log's contents.
type Stats struct {
	// Total and Labeled count observations (after dedup by sequence).
	Total   uint64 `json:"total"`
	Labeled uint64 `json:"labeled"`
	// Unverified counts observations whose execution failed output
	// verification; those never become training records.
	Unverified uint64 `json:"unverified"`
	// Segments is the number of on-disk segment files.
	Segments int `json:"segments"`
	// Cells is the number of distinct (platform, program, size) cells.
	Cells int `json:"cells"`
	// ByProgram counts observations per program name.
	ByProgram map[string]uint64 `json:"byProgram,omitempty"`
}

// Options configures a Log.
type Options struct {
	// Dir is the log directory (created if missing).
	Dir string
	// MaxSegmentBytes rotates the active segment once it exceeds this
	// size (default 4 MiB). Rotation granularity is one record: a record
	// is never split across segments.
	MaxSegmentBytes int64
}

// DefaultMaxSegmentBytes is the rotation threshold when Options leaves
// MaxSegmentBytes zero.
const DefaultMaxSegmentBytes = 4 << 20

const (
	segPrefix = "obs-"
	segSuffix = ".jsonl"
)

// Log is a durable observation log over one directory.
//
// The full record set is mirrored in memory (populated by Open's replay,
// extended by Append): Snapshot serves from that mirror without touching
// the disk, so a retrain snapshot never stalls concurrent Append calls —
// i.e. in-flight /execute responses — behind segment re-reads.
// Observations are small, so the mirror is the deliberate
// latency-for-memory trade; only Compact shrinks it, and nothing in
// cmd/serve calls Compact, so a serving process's mirror grows with
// every observation it records.
type Log struct {
	mu      sync.Mutex
	dir     string
	maxSeg  int64
	segIdx  int      // index of the active segment
	f       *os.File // active segment, opened O_APPEND
	size    int64    // bytes written to the active segment
	nextSeq uint64
	recs    []Observation // in-memory mirror of the durable records
	stats   statsAcc
}

// statsAcc is the in-memory running tally behind Stats.
type statsAcc struct {
	total, labeled, unverified uint64
	byProgram                  map[string]uint64
	cells                      map[Key]struct{}
}

func (s *statsAcc) add(o *Observation) {
	s.total++
	if o.Labeled {
		s.labeled++
	}
	if !o.Verified {
		s.unverified++
	}
	if s.byProgram == nil {
		s.byProgram = map[string]uint64{}
		s.cells = map[Key]struct{}{}
	}
	s.byProgram[o.Program]++
	s.cells[o.Key()] = struct{}{}
}

// Open opens (creating if needed) the observation log in opts.Dir and
// replays existing segments to restore sequence numbering and stats.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("obs: empty log directory")
	}
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: opts.Dir, maxSeg: opts.MaxSegmentBytes}
	segs, err := l.segments()
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		l.segIdx = segs[len(segs)-1]
	}
	// A crash mid-Append can leave a torn trailing record in the active
	// segment; drop it before replay so the durable history stays
	// readable (the torn record was never acknowledged to its writer).
	if err := l.repairActive(); err != nil {
		return nil, err
	}
	all, err := l.load(segs)
	if err != nil {
		return nil, err
	}
	l.recs = all
	for i := range all {
		o := &all[i]
		l.stats.add(o)
		if o.Seq >= l.nextSeq {
			l.nextSeq = o.Seq + 1
		}
	}
	if err := l.openActive(); err != nil {
		return nil, err
	}
	return l, nil
}

// segPath names segment idx.
func (l *Log) segPath(idx int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix))
}

// segments lists the existing segment indices in ascending order.
func (l *Log) segments() ([]int, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), "%d", &idx); err != nil {
			continue
		}
		out = append(out, idx)
	}
	sort.Ints(out)
	return out, nil
}

// repairActive truncates a torn trailing record — one without its final
// newline, the signature of a crash mid-write — off the active segment.
// Sealed segments never need this: rotation only happens on complete
// record boundaries.
func (l *Log) repairActive() error {
	path := l.segPath(l.segIdx)
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(b) == 0 || b[len(b)-1] == '\n' {
		return nil
	}
	cut := bytes.LastIndexByte(b, '\n') + 1
	return os.Truncate(path, int64(cut))
}

// openActive opens the active segment for appending and records its size.
func (l *Log) openActive() error {
	f, err := os.OpenFile(l.segPath(l.segIdx), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.f, l.size = f, st.Size()
	return nil
}

// load reads the given segments and returns their observations sorted by
// sequence number, deduplicated (first occurrence wins — duplicates can
// only exist after a crash between compaction's rename and unlink).
func (l *Log) load(segs []int) ([]Observation, error) {
	var out []Observation
	seen := map[uint64]bool{}
	for _, idx := range segs {
		f, err := os.Open(l.segPath(idx))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
		line := 0
		for sc.Scan() {
			line++
			b := sc.Bytes()
			if len(b) == 0 {
				continue
			}
			var o Observation
			if err := json.Unmarshal(b, &o); err != nil {
				f.Close()
				return nil, fmt.Errorf("obs: %s line %d: %w", l.segPath(idx), line, err)
			}
			if seen[o.Seq] {
				continue
			}
			seen[o.Seq] = true
			out = append(out, o)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("obs: reading %s: %w", l.segPath(idx), err)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// Append writes one observation to the log, assigning and returning its
// sequence number. The caller's Seq field is ignored. Safe for concurrent
// use; each record is written as one complete JSONL line.
func (l *Log) Append(o Observation) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, fmt.Errorf("obs: log is closed")
	}
	o.Seq = l.nextSeq
	b, err := json.Marshal(&o)
	if err != nil {
		return 0, err
	}
	b = append(b, '\n')
	if l.size > 0 && l.size+int64(len(b)) > l.maxSeg {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if _, err := l.f.Write(b); err != nil {
		// Self-heal: a failed write may have left partial bytes that
		// would glue onto the NEXT record and corrupt the segment
		// mid-file (beyond repairActive's reach). Truncate back to the
		// last known-good size; if even that fails, seal the damaged
		// segment and start a fresh one.
		if terr := l.f.Truncate(l.size); terr != nil {
			l.f.Close()
			l.segIdx++
			if oerr := l.openActive(); oerr != nil {
				l.f = nil // closed: further Appends fail loudly
			}
		}
		return 0, err
	}
	l.size += int64(len(b))
	l.nextSeq++
	l.recs = append(l.recs, o)
	l.stats.add(&o)
	return o.Seq, nil
}

// rotateLocked seals the active segment and starts the next one.
func (l *Log) rotateLocked() error {
	if err := l.f.Close(); err != nil {
		return err
	}
	l.segIdx++
	return l.openActive()
}

// Snapshot returns every observation currently in the log, in sequence
// order, from the in-memory mirror — no disk reads, so concurrent
// Appends are held up only for the copy. The returned slice is the
// caller's to keep.
func (l *Log) Snapshot() ([]Observation, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Observation(nil), l.recs...), nil
}

// Stats returns the log's running tally.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, _ := l.segments()
	st := Stats{
		Total:      l.stats.total,
		Labeled:    l.stats.labeled,
		Unverified: l.stats.unverified,
		Segments:   len(segs),
		Cells:      len(l.stats.cells),
	}
	if len(l.stats.byProgram) > 0 {
		st.ByProgram = make(map[string]uint64, len(l.stats.byProgram))
		for k, v := range l.stats.byProgram {
			st.ByProgram[k] = v
		}
	}
	return st
}

// LabeledCount returns the number of labeled observations without
// touching the disk (the retrainer's threshold check polls this).
func (l *Log) LabeledCount() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats.labeled
}

// Compact rewrites the log keeping only the newest keepPerCell labeled
// and newest keepPerCell unlabeled observations of every (platform,
// program, size) cell — repeat executions of the same deterministic cell
// carry no extra training information. The survivors land in one fresh
// segment written via temp file + atomic rename before the old segments
// are unlinked; sequence numbers are preserved. Returns how many
// observations were kept and dropped.
func (l *Log) Compact(keepPerCell int) (kept, dropped int, err error) {
	if keepPerCell < 1 {
		keepPerCell = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, 0, fmt.Errorf("obs: log is closed")
	}
	segs, err := l.segments()
	if err != nil {
		return 0, 0, err
	}
	all := l.recs

	// Count per (cell, labeledness) from the newest backwards; keep the
	// newest keepPerCell of each.
	type bucket struct {
		key     Key
		labeled bool
	}
	counts := map[bucket]int{}
	keep := make([]bool, len(all))
	for i := len(all) - 1; i >= 0; i-- {
		b := bucket{key: all[i].Key(), labeled: all[i].Labeled}
		if counts[b] < keepPerCell {
			counts[b]++
			keep[i] = true
			kept++
		} else {
			dropped++
		}
	}

	// Write survivors to a temp file, fsync, and rename it into place as
	// the next segment index — strictly newer than every existing
	// segment, so a crash before the unlinks below leaves a readable
	// superset (deduplicated by Seq on load).
	tmp, err := os.CreateTemp(l.dir, ".compact-*")
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(tmp)
	for i := range all {
		if !keep[i] {
			continue
		}
		b, err := json.Marshal(&all[i])
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return 0, 0, err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return 0, 0, err
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, 0, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, 0, err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return 0, 0, err
	}
	newIdx := l.segIdx + 1
	if err := os.Rename(tmp.Name(), l.segPath(newIdx)); err != nil {
		os.Remove(tmp.Name())
		return 0, 0, err
	}

	// The compacted segment is now durable; retire the old ones and make
	// it the active segment. From here on the log must stay usable no
	// matter what fails: removals are best-effort (a leftover old
	// segment only yields duplicates, deduplicated by Seq on load), and
	// the first error is reported after the active segment is restored.
	firstErr := l.f.Close()
	for _, idx := range segs {
		if err := os.Remove(l.segPath(idx)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	l.segIdx = newIdx
	if err := l.openActive(); err != nil {
		// No usable active segment: mark the log closed so Append fails
		// loudly instead of writing to a closed file.
		l.f = nil
		return 0, 0, err
	}

	// Rebuild the mirror and tally from the survivors.
	survivors := make([]Observation, 0, kept)
	l.stats = statsAcc{}
	for i := range all {
		if keep[i] {
			survivors = append(survivors, all[i])
			l.stats.add(&all[i])
		}
	}
	l.recs = survivors
	return kept, dropped, firstErr
}

// Close seals the log. Further Appends fail; a new Open resumes where
// this log left off.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
