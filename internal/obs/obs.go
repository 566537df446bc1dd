// Package obs is the durable observation store of the adaptive learning
// loop. Served executions are recorded per cell, not per request:
//
//   - a label record per (platform, program, size) cell holds the cell's
//     feature vector and its oracle label — the measured-best class over
//     the full candidate space, its time, the reference strategy times and
//     the complete per-class time vector — exactly what the offline
//     training sweep produces for the same cell. The engine appends it
//     once, at the cell's first execution on the platform;
//   - a count record adds N executions to one counter key: (cell, class
//     served, model version, left-out model or not, verified). The engine
//     flushes one count record per touched key now and then, however many
//     requests the key served in between.
//
// A production deployment serving heavy traffic is sitting on a stream
// of free training labels; this package makes that stream durable so the
// background retrainer (internal/engine) and the offline training path
// (cmd/train -from-observations) can fold it back into the model, and
// the counters tell how well the served model did (Health).
//
// The log is a directory of numbered JSONL segments:
//
//	obs-00000000.jsonl
//	obs-00000001.jsonl   <- rotation starts a new segment
//	...
//
// Appends go to the highest segment; once it reaches the size budget the
// writer seals it and starts the next — readers never observe a torn
// segment boundary because every record is one complete line. When the
// segments hold more than twice the records the mirror (below) folds them
// into, rotation compacts instead: the mirror is written as one fresh base
// segment via temp file + rename (atomic on POSIX) before the old
// segments are unlinked. A base segment starts with a marker line, and
// replay starts at the newest base, so a crash anywhere leaves either the
// old segments or a base that supersedes them. Sequence numbers increase
// through the segments replay reads; a record whose number does not is a
// duplicate and is skipped.
//
// Segments written before records were kept per cell hold one record per
// executed request; replay folds each into its cell's label (when it was
// labeled) and one count.
//
// The mirror (populated by Open's replay, extended by every append) holds
// the newest label of every cell and one running total per counter key,
// so its size depends on how many cells and keys were served, not on how
// many requests. Snapshot, Stats and Health serve from it without
// touching the disk.
//
// A Log is safe for concurrent use by any number of writers and readers
// in one process.
package obs

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Observation is one cell's label record. Fields mirror harness.Record
// where they overlap, so labeled observations convert losslessly into
// training records.
//
// Labeled marks observations that carry the oracle label: the engine
// priced the full candidate space on the cell's profile and recorded the
// winner (BestClass) plus the whole time vector (Times), which is the
// same oracle labeling the offline sweep performs. Every label the engine
// appends is labeled; an unlabeled Observation is what a per-request
// record of an older log held when it was not sampled, and cannot train.
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

	// Class is the partition class the labeling execution was served;
	// Partition is its rendered form. Makespan is that execution's
	// (simulated) wall time and DeviceTimes the per-device busy times
	// under that partitioning. Verified reports whether its outputs
	// passed verification; an unverified label never trains.
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

// Key identifies the training cell an observation belongs to: the mirror
// keeps one label per Key.
type Key struct {
	Platform string
	Program  string
	SizeIdx  int
}

// Key returns the observation's cell key.
func (o *Observation) Key() Key {
	return Key{Platform: o.Platform, Program: o.Program, SizeIdx: o.SizeIdx}
}

// CountKey is one execution counter: executions of a cell served class
// Class by ModelVersion of the full model (or, LeftOut, of the model that
// holds the program out), split by whether their outputs verified.
// ModelVersion 0 counts executions replayed from per-request records,
// which did not record a version.
type CountKey struct {
	Platform     string `json:"platform"`
	Program      string `json:"program"`
	SizeIdx      int    `json:"sizeIdx"`
	Class        int    `json:"class"`
	ModelVersion int    `json:"modelVersion"`
	LeftOut      bool   `json:"leftOut,omitempty"`
	Verified     bool   `json:"verified"`
}

// cell returns the key's cell.
func (k *CountKey) cell() Key {
	return Key{Platform: k.Platform, Program: k.Program, SizeIdx: k.SizeIdx}
}

// Count adds N executions to a counter.
type Count struct {
	CountKey
	N uint64
}

// Stats is a point-in-time summary of the log's contents.
type Stats struct {
	// Labeled counts label records read or appended, including labels a
	// newer one of the same cell superseded (a cell is labeled again by
	// each process that executes it).
	Labeled uint64 `json:"labeled"`
	// Cells is the number of distinct (platform, program, size) cells
	// holding a label: what Snapshot returns.
	Cells int `json:"cells"`
	// CounterKeys is the number of distinct counter keys.
	CounterKeys int `json:"counterKeys"`
	// Executions sums the counters; Unverified is the part whose outputs
	// failed verification.
	Executions uint64 `json:"executions"`
	Unverified uint64 `json:"unverified"`
	// Segments is the number of on-disk segment files.
	Segments int `json:"segments"`
	// ByProgram counts executions per program name.
	ByProgram map[string]uint64 `json:"byProgram,omitempty"`
}

// Health is the served oracle efficiency of one model: over the counted
// executions of cells that hold a label,
// Σ count · oracle time / Σ count · time of the class served, the
// paper's efficiency measured on live traffic (1 = every request was
// served its cell's oracle partitioning).
type Health struct {
	Platform         string  `json:"platform"`
	ModelVersion     int     `json:"modelVersion"`
	LeftOut          bool    `json:"leftOut,omitempty"`
	Executions       uint64  `json:"executions"`
	OracleEfficiency float64 `json:"oracleEfficiency"`
}

// Options configures a Log.
type Options struct {
	// Dir is the log directory (created if missing).
	Dir string
	// MaxSegmentBytes rotates the active segment once it reaches this
	// size (default 4 MiB). Rotation granularity is one append: a record
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

// Record kinds, as written in a line's "kind" field. A line without one
// is a per-request record of an older log.
const (
	kindLabel = "label"
	kindCount = "count"
	kindBase  = "base"
)

// baseLine is the first line of a base segment.
var baseLine = []byte(`{"kind":"base"}` + "\n")

// line is any record as read back.
type line struct {
	Kind string `json:"kind"`
	Observation
	ModelVersion int    `json:"modelVersion"`
	LeftOut      bool   `json:"leftOut"`
	N            uint64 `json:"n"`
}

// labelLine is a label record as written.
type labelLine struct {
	Kind string `json:"kind"`
	*Observation
}

// countLine is a count record as written.
type countLine struct {
	Kind string `json:"kind"`
	Seq  uint64 `json:"seq"`
	Time int64  `json:"time,omitempty"`
	CountKey
	N uint64 `json:"n"`
}

// Log is a durable observation log over one directory.
type Log struct {
	mu      sync.Mutex
	dir     string
	maxSeg  int64
	segIdx  int      // index of the active segment
	f       *os.File // active segment, opened O_APPEND
	size    int64    // bytes written to the active segment
	nextSeq uint64
	// write writes to the active segment; tests replace it to inject
	// short writes and a full disk.
	write func(f *os.File, b []byte) (int, error)

	// The mirror: the newest label per cell and the counters.
	labels  map[Key]Observation
	counts  map[CountKey]uint64
	labeled uint64 // label records folded
	// records is how many records the segments replay reads hold: what a
	// compaction would fold into len(labels)+len(counts).
	records int
}

// Open opens (creating if needed) the observation log in opts.Dir and
// replays existing segments into the mirror and the sequence numbering.
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
	l := &Log{
		dir: opts.Dir, maxSeg: opts.MaxSegmentBytes, write: (*os.File).Write,
		labels: map[Key]Observation{}, counts: map[CountKey]uint64{},
	}
	segs, err := l.segments()
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		l.segIdx = segs[len(segs)-1]
	}
	// A crash mid-append can leave a torn trailing record in the active
	// segment; drop it before replay so the durable history stays
	// readable (the torn record was never acknowledged to its writer).
	if err := l.repairActive(); err != nil {
		return nil, err
	}
	if err := l.load(segs); err != nil {
		return nil, err
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

// isBase reports whether segment idx starts with the base marker.
func (l *Log) isBase(idx int) (bool, error) {
	f, err := os.Open(l.segPath(idx))
	if err != nil {
		return false, err
	}
	defer f.Close()
	head := make([]byte, len(baseLine))
	if _, err := io.ReadFull(f, head); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return false, nil // shorter than the marker
		}
		return false, err
	}
	return bytes.Equal(head, baseLine), nil
}

// load replays the given segments from the newest base on into the
// mirror, skipping any record whose sequence number does not exceed the
// previous one's (a duplicate an interrupted compaction of an older log
// left behind).
func (l *Log) load(segs []int) error {
	for i := len(segs) - 1; i > 0; i-- {
		base, err := l.isBase(segs[i])
		if err != nil {
			return err
		}
		if base {
			segs = segs[i:]
			break
		}
	}
	var last uint64
	read := false
	for _, idx := range segs {
		f, err := os.Open(l.segPath(idx))
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
		n := 0
		for sc.Scan() {
			n++
			b := sc.Bytes()
			if len(b) == 0 {
				continue
			}
			var r line
			if err := json.Unmarshal(b, &r); err != nil {
				f.Close()
				return fmt.Errorf("obs: %s line %d: %w", l.segPath(idx), n, err)
			}
			if r.Kind == kindBase {
				continue
			}
			if read && r.Seq <= last {
				continue
			}
			if err := l.fold(&r); err != nil {
				f.Close()
				return fmt.Errorf("obs: %s line %d: %w", l.segPath(idx), n, err)
			}
			last, read = r.Seq, true
			l.records++
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return fmt.Errorf("obs: reading %s: %w", l.segPath(idx), err)
		}
	}
	if read {
		l.nextSeq = last + 1
	}
	return nil
}

// fold adds one replayed record to the mirror.
func (l *Log) fold(r *line) error {
	switch r.Kind {
	case kindLabel:
		l.foldLabel(&r.Observation)
	case kindCount:
		k := CountKey{Platform: r.Platform, Program: r.Program, SizeIdx: r.SizeIdx, Class: r.Class,
			ModelVersion: r.ModelVersion, LeftOut: r.LeftOut, Verified: r.Verified}
		l.counts[k] += r.N
	case "":
		// One executed request: its count, and its cell's label if the
		// request was labeled.
		if r.Labeled {
			l.foldLabel(&r.Observation)
		}
		l.counts[CountKey{Platform: r.Platform, Program: r.Program, SizeIdx: r.SizeIdx, Class: r.Class, Verified: r.Verified}]++
	default:
		return fmt.Errorf("unknown record kind %q", r.Kind)
	}
	return nil
}

// foldLabel makes o its cell's label unless the cell holds a newer one.
func (l *Log) foldLabel(o *Observation) {
	l.labeled++
	if old, ok := l.labels[o.Key()]; !ok || old.Seq < o.Seq {
		l.labels[o.Key()] = *o
	}
}

// Append writes o as its cell's label record, assigning and returning
// its sequence number; the newest label of a cell supersedes older ones.
// The caller's Seq field is ignored. Safe for concurrent use; each record
// is written as one complete JSONL line.
func (l *Log) Append(o Observation) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.prepareLocked(); err != nil {
		return 0, err
	}
	o.Seq = l.nextSeq
	b, err := json.Marshal(labelLine{Kind: kindLabel, Observation: &o})
	if err != nil {
		return 0, err
	}
	if err := l.writeLocked(append(b, '\n'), 1); err != nil {
		return 0, err
	}
	l.foldLabel(&o)
	return o.Seq, nil
}

// AppendCounts adds each count's N executions to its counter, as one
// count record per entry written in one piece: on error none of them is
// durable or counted, and the caller still holds every count it passed.
func (l *Log) AppendCounts(cs []Count) error {
	if len(cs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.prepareLocked(); err != nil {
		return err
	}
	now := time.Now().UnixNano()
	var b []byte
	for i := range cs {
		rec, err := json.Marshal(countLine{Seq: l.nextSeq + uint64(i), Time: now, Kind: kindCount, CountKey: cs[i].CountKey, N: cs[i].N})
		if err != nil {
			return err
		}
		b = append(append(b, rec...), '\n')
	}
	if err := l.writeLocked(b, len(cs)); err != nil {
		return err
	}
	for i := range cs {
		l.counts[cs[i].CountKey] += cs[i].N
	}
	return nil
}

// prepareLocked readies the active segment for an append: it refuses a
// closed log, and once the segment has reached its budget seals it,
// compacting the log into a fresh base segment instead when the segments
// hold more than twice the records the mirror folds them into.
func (l *Log) prepareLocked() error {
	if l.f == nil {
		return fmt.Errorf("obs: log is closed")
	}
	if l.size < l.maxSeg {
		return nil
	}
	if l.records > 2*(len(l.labels)+len(l.counts)) {
		err := l.compactLocked()
		if err == nil || l.f == nil {
			return err
		}
		// The base could not be written: rotate instead, and compact at
		// the next rotation.
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.segIdx++
	return l.openActive()
}

// writeLocked writes b, which holds n complete records numbered from
// nextSeq on, to the active segment.
func (l *Log) writeLocked(b []byte, n int) error {
	if _, err := l.write(l.f, b); err != nil {
		// A failed write may have left partial bytes that would glue
		// onto the NEXT record and corrupt the segment mid-file (beyond
		// repairActive's reach). Truncate back to the last known-good
		// size; if even that fails, close the log: a record a failed
		// append left behind must never be counted alongside its retry,
		// so further appends fail until the log is reopened.
		if terr := l.f.Truncate(l.size); terr != nil {
			l.f.Close()
			l.f = nil
		}
		return err
	}
	l.size += int64(len(b))
	l.nextSeq += uint64(n)
	l.records += n
	return nil
}

// compactLocked rewrites the log as the mirror: a base segment holding
// the newest label of every cell (sequence numbers preserved) and one
// count record per counter key (numbered afresh), written to a temp file,
// synced and renamed into place as the next segment index before the old
// segments are unlinked. Replay starts at the newest base, so a crash
// before the unlinks leaves old segments that are never read again.
func (l *Log) compactLocked() error {
	segs, err := l.segments()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(l.dir, ".compact-*")
	if err != nil {
		return err
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	w := bufio.NewWriter(tmp)
	w.Write(baseLine)
	for _, o := range l.labelsBySeq() {
		b, err := json.Marshal(labelLine{Kind: kindLabel, Observation: &o})
		if err != nil {
			return fail(err)
		}
		w.Write(append(b, '\n'))
	}
	seq := l.nextSeq
	now := time.Now().UnixNano()
	for _, k := range l.countKeys() {
		b, err := json.Marshal(countLine{Seq: seq, Time: now, Kind: kindCount, CountKey: k, N: l.counts[k]})
		if err != nil {
			return fail(err)
		}
		w.Write(append(b, '\n'))
		seq++
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	newIdx := l.segIdx + 1
	if err := os.Rename(tmp.Name(), l.segPath(newIdx)); err != nil {
		os.Remove(tmp.Name())
		return err
	}

	// The base is durable and supersedes every older segment; retire
	// them and append to it. Removals are best-effort (a leftover old
	// segment is never replayed), and the log must stay usable however
	// they fail.
	l.f.Close()
	for _, idx := range segs {
		os.Remove(l.segPath(idx))
	}
	l.segIdx, l.nextSeq = newIdx, seq
	l.records = len(l.labels) + len(l.counts)
	if err := l.openActive(); err != nil {
		// No usable active segment: mark the log closed so appends fail
		// loudly instead of writing to a closed file.
		l.f = nil
		return err
	}
	return nil
}

// labelsBySeq returns the mirror's labels in sequence order; the caller
// holds l.mu.
func (l *Log) labelsBySeq() []Observation {
	out := make([]Observation, 0, len(l.labels))
	for _, o := range l.labels {
		out = append(out, o)
	}
	slices.SortFunc(out, func(a, b Observation) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// countKeys returns the mirror's counter keys in a fixed order; the
// caller holds l.mu.
func (l *Log) countKeys() []CountKey {
	keys := make([]CountKey, 0, len(l.counts))
	for k := range l.counts {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b CountKey) int {
		return cmp.Or(cmp.Compare(a.Platform, b.Platform), cmp.Compare(a.Program, b.Program),
			cmp.Compare(a.SizeIdx, b.SizeIdx), cmp.Compare(a.ModelVersion, b.ModelVersion),
			compareBool(a.LeftOut, b.LeftOut), cmp.Compare(a.Class, b.Class), compareBool(a.Verified, b.Verified))
	})
	return keys
}

func compareBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	}
	return -1
}

// Snapshot returns the newest label of every cell, in sequence order,
// from the in-memory mirror — no disk reads, so concurrent appends are
// held up only for the copy. The returned slice is the caller's to keep.
func (l *Log) Snapshot() ([]Observation, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.labelsBySeq(), nil
}

// Stats returns a summary of the mirror.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, _ := l.segments()
	st := Stats{
		Labeled:     l.labeled,
		Cells:       len(l.labels),
		CounterKeys: len(l.counts),
		Segments:    len(segs),
	}
	for k, n := range l.counts {
		st.Executions += n
		if !k.Verified {
			st.Unverified += n
		}
		if st.ByProgram == nil {
			st.ByProgram = map[string]uint64{}
		}
		st.ByProgram[k.Program] += n
	}
	return st
}

// Health returns the served oracle efficiency of every (platform, model
// version, left out) that served a counted execution of a labeled cell,
// in that order. The sums run over the counter keys in a fixed order, so
// equal mirrors give bit-identical figures.
func (l *Log) Health() []Health {
	l.mu.Lock()
	defer l.mu.Unlock()
	type group struct {
		h        Health
		num, den float64
	}
	var out []*group
	idx := map[Health]*group{}
	for _, k := range l.countKeys() {
		lab, ok := l.labels[k.cell()]
		if !ok || k.Class < 0 || k.Class >= len(lab.Times) {
			continue
		}
		id := Health{Platform: k.Platform, ModelVersion: k.ModelVersion, LeftOut: k.LeftOut}
		g := idx[id]
		if g == nil {
			g = &group{h: id}
			idx[id] = g
			out = append(out, g)
		}
		n := l.counts[k]
		g.h.Executions += n
		g.num += float64(n) * lab.OracleTime
		g.den += float64(n) * lab.Times[k.Class]
	}
	slices.SortFunc(out, func(a, b *group) int {
		return cmp.Or(cmp.Compare(a.h.Platform, b.h.Platform), compareBool(a.h.LeftOut, b.h.LeftOut),
			cmp.Compare(a.h.ModelVersion, b.h.ModelVersion))
	})
	hs := make([]Health, 0, len(out))
	for _, g := range out {
		if g.den > 0 {
			g.h.OracleEfficiency = g.num / g.den
			hs = append(hs, g.h)
		}
	}
	return hs
}

// LabeledCount returns the number of label records read or appended
// without touching the disk (the retrainer's threshold check polls
// this).
func (l *Log) LabeledCount() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.labeled
}

// Close seals the log. Further appends fail; a new Open resumes where
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
