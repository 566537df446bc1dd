// Package harness implements the offline training pipeline and the
// evaluation experiments of the paper.
//
// Training phase (paper Section 2): every benchmark program is profiled at
// every problem size; all candidate task partitionings (the 10%-step
// space) are priced on each platform's device models; the best
// partitioning, the static+runtime feature vector and all measurements are
// stored in a database. Models are trained from that database.
//
// Deployment phase / evaluation (Section 3): leave-one-program-out
// prediction reproduces Figure 1 — the speedup of the ML-guided
// partitioning over the CPU-only and GPU-only default strategies on mc1
// and mc2 — plus the supporting analyses listed in DESIGN.md.
package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/features"
	"repro/internal/inspire"
	"repro/internal/ml"
	"repro/internal/partition"
	"repro/internal/runtime"
	"repro/internal/sched"
)

// Record is one training pattern: "the static features of a program, its
// runtime features for a certain problem size as well as the best task
// partitioning for the given program with the current input size" (paper
// Section 3), extended with the full measurement vector so that every
// candidate partitioning's simulated time is reusable by the experiments.
type Record struct {
	Program   string `json:"program"`
	Suite     string `json:"suite"`
	Platform  string `json:"platform"`
	SizeIdx   int    `json:"sizeIdx"`
	SizeLabel string `json:"sizeLabel"`
	SizeN     int    `json:"sizeN"`

	FeatureNames []string  `json:"featureNames"`
	Features     []float64 `json:"features"`

	// Times[i] is the simulated makespan of partition.Space(3,10)[i].
	Times []float64 `json:"times"`

	BestClass     int     `json:"bestClass"`
	BestPartition string  `json:"bestPartition"`
	OracleTime    float64 `json:"oracleTime"`
	CPUOnlyTime   float64 `json:"cpuOnlyTime"`
	GPUOnlyTime   float64 `json:"gpuOnlyTime"`
}

// DB is the training database. Generate builds it append-only; the
// adaptive loop keeps appending afterwards (Append, AppendObservations),
// so the lazily built lookup indexes are invalidated incrementally under
// a lock. Point lookups (Find, MaxSizeIdx) are safe concurrently with
// Append; bulk readers (Dataset, PlatformRecords, Save) take a coherent
// snapshot of the record slice under the same lock.
type DB struct {
	// Space is the canonical partition space ("100/0/0", ...), in the
	// class-index order used by BestClass.
	Space   []string `json:"space"`
	Records []Record `json:"records"`

	// mu guards Records growth and the lazy lookup maps. idx maps
	// (platform, program, sizeIdx) to the record's position, built on
	// the first Find and updated in place by Append. Serving paths hit
	// Find per request; a linear scan over every record per lookup does
	// not survive heavy traffic. maxSize tracks the largest size index
	// present per (platform, program).
	mu      sync.RWMutex
	idx     map[recordKey]int
	maxSize map[progKey]int
}

// recordKey identifies one record for O(1) lookup.
type recordKey struct {
	platform string
	program  string
	sizeIdx  int
}

// progKey identifies one program's records on one platform.
type progKey struct {
	platform string
	program  string
}

// buildIndexLocked fills the lookup maps; first occurrence wins, matching
// the linear scan it replaces. Callers hold db.mu for writing.
func (db *DB) buildIndexLocked() {
	db.idx = make(map[recordKey]int, len(db.Records))
	db.maxSize = map[progKey]int{}
	for i := range db.Records {
		db.indexRecordLocked(i)
	}
}

// indexRecordLocked folds Records[i] into the lookup maps.
func (db *DB) indexRecordLocked(i int) {
	r := &db.Records[i]
	k := recordKey{platform: r.Platform, program: r.Program, sizeIdx: r.SizeIdx}
	if _, ok := db.idx[k]; !ok {
		db.idx[k] = i
	}
	pk := progKey{platform: r.Platform, program: r.Program}
	if m, ok := db.maxSize[pk]; !ok || r.SizeIdx > m {
		db.maxSize[pk] = r.SizeIdx
	}
}

// ensureIndex builds the lookup maps if they do not exist yet and leaves
// the database read-locked; the caller must RUnlock.
func (db *DB) ensureIndexRLocked() {
	db.mu.RLock()
	if db.idx != nil {
		return
	}
	db.mu.RUnlock()
	db.mu.Lock()
	if db.idx == nil {
		db.buildIndexLocked()
	}
	db.mu.Unlock()
	db.mu.RLock()
}

// Append adds records to the database, keeping the lookup indexes
// coherent: an already-built index is extended in place (first
// occurrence still wins for Find), an unbuilt one stays lazy. Safe
// concurrently with Find/MaxSizeIdx — the adaptive serving path appends
// harvested observations while request handlers keep reading.
func (db *DB) Append(recs ...Record) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, r := range recs {
		db.Records = append(db.Records, r)
		if db.idx != nil {
			db.indexRecordLocked(len(db.Records) - 1)
		}
	}
}

// MaxSizeIdx returns the largest size index recorded for the program on
// the platform, and whether any record exists.
func (db *DB) MaxSizeIdx(platform, program string) (int, bool) {
	db.ensureIndexRLocked()
	defer db.mu.RUnlock()
	m, ok := db.maxSize[progKey{platform: platform, program: program}]
	return m, ok
}

// spaceStrings renders the canonical 3-device 10%-step space.
func spaceStrings() []string {
	ps := partition.SharedSpace(3, partition.DefaultSteps)
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}

// GenOptions configures database generation.
type GenOptions struct {
	// Platforms to measure on (default: mc1 and mc2).
	Platforms []*device.Platform
	// Programs restricts the suite by name (default: all 23).
	Programs []string
	// MaxSizeIdx caps the size family (inclusive; default 5 = all sizes).
	MaxSizeIdx int
	// Log receives progress lines (nil = silent).
	Log io.Writer
	// Workers bounds the sweep's total parallelism: the budget is divided
	// between the (program, size) cell fan-out and kernel-level profiling
	// within each cell (0 = the scheduler's process-wide default, 1 =
	// fully sequential). The resulting database is identical for every
	// setting.
	Workers int
	// Cache supplies memoized profiled executions so repeated sweeps stop
	// re-profiling (nil = the package-wide shared cache).
	Cache *ProfileCache
}

// genLogger serializes progress lines from concurrent sweep workers.
type genLogger struct {
	mu sync.Mutex
	w  io.Writer
}

func (g *genLogger) logf(format string, args ...any) {
	if g.w != nil {
		g.mu.Lock()
		defer g.mu.Unlock()
		fmt.Fprintf(g.w, format+"\n", args...)
	}
}

// Generate builds the training database: one profiled execution per
// (program, size), priced under every candidate partitioning on every
// platform. Profiles are platform-independent, so each kernel runs only
// once per size regardless of platform count.
//
// The sweep fans out over (program, size) cells on the scheduler's worker
// pool; each cell prices all platforms. Cell results are joined back in
// sweep order, so the database is byte-identical to a sequential run
// regardless of the worker count.
func Generate(opts GenOptions) (*DB, error) {
	if len(opts.Platforms) == 0 {
		opts.Platforms = device.Platforms()
	}
	if opts.MaxSizeIdx <= 0 || opts.MaxSizeIdx > 5 {
		opts.MaxSizeIdx = 5
	}
	if opts.Cache == nil {
		opts.Cache = sharedProfiles
	}
	progs := bench.All()
	if len(opts.Programs) > 0 {
		progs = progs[:0:0]
		for _, name := range opts.Programs {
			p, err := bench.Get(name)
			if err != nil {
				return nil, err
			}
			progs = append(progs, p)
		}
	}
	// The candidate space and every profile's range index are shared
	// across all (program, size) cells: the space is memoized process-wide
	// and the profile cache hands out prefix-indexed profiles.
	space := partition.SharedSpace(3, partition.DefaultSteps)
	db := &DB{Space: spaceStrings()}

	type cell struct {
		prog *bench.Program
		st   *inspire.StaticCounts
		sz   int
	}
	var cells []cell
	for _, p := range progs {
		// Static features depend only on the kernel, not the size:
		// compute them once per program, not once per cell.
		st, err := p.Static()
		if err != nil {
			return nil, err
		}
		for sz := 0; sz <= opts.MaxSizeIdx && sz < len(p.Sizes); sz++ {
			cells = append(cells, cell{prog: p, st: st, sz: sz})
		}
	}

	// Divide the budget between the cell fan-out and kernel-level
	// profiling within a cell, so total parallelism stays within the
	// budget (Workers=1 is sequential at every level).
	outer, inner := splitBudget(opts.Workers, len(cells))
	runtimes := make([]*runtime.Runtime, len(opts.Platforms))
	for i, plat := range opts.Platforms {
		if err := plat.Validate(); err != nil {
			return nil, err
		}
		runtimes[i] = runtime.New(plat)
		// Pricing inside a cell stays sequential (Workers=1): the cell
		// fan-out already saturates the budget, and per-candidate pricing
		// is too cheap to shard further.
		runtimes[i].Workers = 1
	}
	// Only the profiling runtime executes kernels (profiles are
	// platform-independent); it gets the budget left over by the fan-out.
	profRT := runtime.New(opts.Platforms[0])
	profRT.Workers = inner

	log := &genLogger{w: opts.Log}
	cellRecords, err := sched.Map(context.Background(), len(cells), outer,
		func(_ context.Context, ci int) ([]Record, error) {
			p, st, sz := cells[ci].prog, cells[ci].st, cells[ci].sz
			l, _, err := p.Build(sz)
			if err != nil {
				return nil, err
			}
			prof, err := opts.Cache.Profile(profRT, p.Name, sz, l)
			if err != nil {
				return nil, fmt.Errorf("harness: profiling %s/%s: %w", p.Name, p.Sizes[sz].Label, err)
			}
			fv := features.Combined(st, features.RuntimeInput{
				Profile:    prof,
				Plan:       l.Plan,
				Args:       l.Args,
				Iterations: l.Iterations,
			})
			log.logf("profiled %-14s %s (%d items)", p.Name, p.Sizes[sz].Label, prof.Total().Items)

			recs := make([]Record, 0, len(runtimes))
			for pi, rt := range runtimes {
				rec := Record{
					Program:      p.Name,
					Suite:        p.Suite,
					Platform:     opts.Platforms[pi].Name,
					SizeIdx:      sz,
					SizeLabel:    p.Sizes[sz].Label,
					SizeN:        p.Sizes[sz].N,
					FeatureNames: fv.Names,
					Features:     fv.Values,
				}
				lb, err := rt.Label(l, prof, space)
				if err != nil {
					return nil, err
				}
				rec.Times = lb.Times
				rec.BestClass = lb.Best
				rec.BestPartition = db.Space[lb.Best]
				rec.OracleTime = lb.Times[lb.Best]
				rec.CPUOnlyTime = lb.Times[lb.CPUOnly]
				rec.GPUOnlyTime = lb.Times[lb.GPUOnly]
				recs = append(recs, rec)
			}
			return recs, nil
		})
	if err != nil {
		return nil, err
	}
	for _, recs := range cellRecords {
		db.Records = append(db.Records, recs...)
	}
	return db, nil
}

// Save writes the database as JSON.
func (db *DB) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	db.mu.RLock()
	defer db.mu.RUnlock()
	enc := json.NewEncoder(f)
	return enc.Encode(db)
}

// LoadDB reads a database from JSON.
func LoadDB(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db := &DB{}
	if err := json.NewDecoder(f).Decode(db); err != nil {
		return nil, err
	}
	return db, nil
}

// PlatformRecords returns a copy of the records measured on the named
// platform — a coherent snapshot even while Append runs concurrently.
func (db *DB) PlatformRecords(platform string) []Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Record
	for _, r := range db.Records {
		if r.Platform == platform {
			out = append(out, r)
		}
	}
	return out
}

// Find returns the record for (platform, program, size), or nil. The
// first call builds a lookup index; subsequent calls are O(1). Safe for
// concurrent use, including concurrently with Append; records are never
// mutated once appended, so the returned pointer stays valid.
func (db *DB) Find(platform, program string, sizeIdx int) *Record {
	db.ensureIndexRLocked()
	defer db.mu.RUnlock()
	if i, ok := db.idx[recordKey{platform: platform, program: program, sizeIdx: sizeIdx}]; ok {
		return &db.Records[i]
	}
	return nil
}

// softBeta controls the cost-sensitive label temperature: the soft target
// probability of partition c is proportional to exp(-beta*(T_c/T_best-1)),
// so a partition 10% off the oracle keeps ~37% of the oracle's mass while
// one 2x off is negligible. This teaches distribution-aware models (MLP)
// which mispredictions are cheap and which are catastrophic.
const softBeta = 10.0

// Dataset converts the platform's records into an ML dataset, grouped by
// program for leave-one-program-out cross validation. featureFilter
// optionally selects a subset of features by name prefix ("s_" static,
// "r_" runtime); nil keeps everything. Cost-sensitive soft labels are
// attached alongside the hard oracle labels.
func (db *DB) Dataset(platform string, featureFilter func(name string) bool) *ml.Dataset {
	d := &ml.Dataset{}
	for _, r := range db.PlatformRecords(platform) {
		if d.Names == nil {
			for _, n := range r.FeatureNames {
				if featureFilter == nil || featureFilter(n) {
					d.Names = append(d.Names, n)
				}
			}
		}
		var x []float64
		for i, n := range r.FeatureNames {
			if featureFilter == nil || featureFilter(n) {
				x = append(x, r.Features[i])
			}
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, r.BestClass)
		d.Groups = append(d.Groups, r.Program)
		d.Soft = append(d.Soft, softLabels(r.Times, r.OracleTime))
	}
	return d
}

// softLabels builds the cost-sensitive target distribution for one record.
func softLabels(times []float64, oracle float64) []float64 {
	out := make([]float64, len(times))
	total := 0.0
	for i, t := range times {
		v := math.Exp(-softBeta * (t/oracle - 1))
		out[i] = v
		total += v
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// Programs returns the distinct program names in the database.
func (db *DB) Programs() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	seen := map[string]bool{}
	var out []string
	for _, r := range db.Records {
		if !seen[r.Program] {
			seen[r.Program] = true
			out = append(out, r.Program)
		}
	}
	return out
}
