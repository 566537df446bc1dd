package engine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/features"
	"repro/internal/runtime"
	"repro/internal/sched"
)

// CellCache holds one cell per (program, size): the features, the
// profile they came from, the argument sizes pricing reads and — once the
// cell has executed — the instance template executions are cut from. None
// of these depend on the platform — the offline sweep profiles each
// (program, size) once for every platform too — so a fleet builds one
// cache and hands it to every engine (Options.SharedCells): each
// (program, size) is then profiled and held once per process, not once
// per (platform, shard). Only the oracle label is per platform, because
// the prices are; each cell keeps one label slot per platform the cache
// was built for.
//
// Cells are keyed by the *bench.Program itself. A built-in is a process
// singleton, so every engine hits the same cell; an upload's
// bench.Program is created per registration, so one engine's upload never
// sees another's cell, whatever the two are named.
//
// Engines that share a cache must share the limits a cell is built and
// bounded under (New enforces it): a first-touch profile runs under the
// budget of whichever engine asked first, and the cache's LRU cap is
// CacheLimit.
type CellCache struct {
	memo sched.Memo[cellKey, *cell]
	// platforms are the served platforms in slot order: platform i's
	// label is labels[i] of every cell.
	platforms []string

	mu     sync.Mutex
	joined bool
	limits cellLimits // the first engine's
}

// cellLimits are the Options a shared cell depends on.
type cellLimits struct {
	MaxSteps    int64
	MaxMemBytes int64
	ExecTimeout time.Duration
	CacheLimit  int
}

// NewCellCache returns an empty cell cache for engines of the named
// platforms.
func NewCellCache(platforms ...string) (*CellCache, error) {
	if len(platforms) == 0 {
		return nil, fmt.Errorf("engine: cell cache for no platform")
	}
	for i, name := range platforms {
		if _, err := device.ByName(name); err != nil {
			return nil, err
		}
		if slices.Contains(platforms[:i], name) {
			return nil, fmt.Errorf("engine: cell cache lists platform %q twice", name)
		}
	}
	return &CellCache{platforms: platforms}, nil
}

// Len reports how many cells the cache holds (computed or in flight).
func (c *CellCache) Len() int { return c.memo.Len() }

// Templates reports how many of the cache's cells hold a template: the
// cells that have executed since they were profiled.
func (c *CellCache) Templates() int {
	n := 0
	c.memo.Range(func(fe *cell) {
		if fe.tmpl.Load() != nil {
			n++
		}
	})
	return n
}

// join admits an engine built with opts: its platform must be one the
// cache has slots for, and its limits those of the engines already
// sharing the cache. It returns the platform's slot: the index of its
// label and its label flag in every cell.
func (c *CellCache) join(opts Options) (int, error) {
	i := slices.Index(c.platforms, opts.Platform)
	if i < 0 {
		return 0, fmt.Errorf("engine: cell cache serves platforms %v, not %q", c.platforms, opts.Platform)
	}
	lim := cellLimits{MaxSteps: opts.MaxSteps, MaxMemBytes: opts.MaxMemBytes, ExecTimeout: opts.ExecTimeout, CacheLimit: opts.CacheLimit}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.joined {
		c.joined, c.limits = true, lim
		if lim.CacheLimit > 0 {
			c.memo.SetLimit(lim.CacheLimit)
		}
	} else if lim != c.limits {
		return 0, fmt.Errorf("engine: %s engine limits %+v differ from %+v, which the engines sharing its cell cache run under", opts.Platform, lim, c.limits)
	}
	return i, nil
}

// cellKey identifies one cell.
type cellKey struct {
	bench   *bench.Program
	sizeIdx int
}

// cell is what the cache keeps for one (program, size). Until the cell
// first executes, that is exactly what pricing reads: the combined feature
// vector, the profile it came from, and the launch the profile was
// collected on reduced to its shape — kernel, plan, NDRange and each
// argument's byte size (launch.ArgBytes), no buffers. A cell first
// reached through /predict drops the instance its profiling run executed
// on once the profile exists, so a cell that is only ever predicted keeps
// no buffer at all, and its first execution builds the template every
// execution of the cell is cut from and checked against (instance.go).
// A cell first reached through /execute is profiled on the request's
// buffers, cut from its template already (Engine.cellFor).
type cell struct {
	fv     features.Vector
	prof   *exec.Profile
	launch runtime.Launch
	// bytes is what instanceBytes charges for the cell's instance; every
	// execution is charged it, shared buffers included.
	bytes int64
	// tmpl is nil until the cell's first execution builds it (template);
	// tmplMu orders the builds.
	tmplMu sync.Mutex
	tmpl   atomic.Pointer[template]
	// labels holds the cell's oracle label on each platform of the cache:
	// every class priced on prof, filled the first time one of the
	// platform's engines predicts or executes the cell (Engine.label).
	// What /predict answers, what /execute answers and the label record
	// the observation log gets all index this one row.
	labels []atomic.Pointer[runtime.Label]
	// labeled holds one flag per platform of the cache, set by the cell's
	// first execution on the platform, which queues the cell's label
	// record (Engine.record).
	labeled []atomic.Bool
	// checked is set once an execution after the profiling run, on any
	// platform and class, has measured a profile equal to prof bucket for
	// bucket and the class's price bit for bit (Engine.run). A launch does
	// not depend on its class and each price is a pure function of (prof,
	// class), so that one match checks every class on every platform.
	checked atomic.Bool
}

// template returns the cell's template, building it from one fresh
// instance on the cell's first execution. A failed build is not kept: the
// next execution tries again.
func (c *cell) template(pe *programEntry, sizeIdx int) (*template, error) {
	if t := c.tmpl.Load(); t != nil {
		return t, nil
	}
	c.tmplMu.Lock()
	defer c.tmplMu.Unlock()
	if t := c.tmpl.Load(); t != nil {
		return t, nil
	}
	inst, err := pe.bench.Instance(sizeIdx)
	if err != nil {
		return nil, err
	}
	t := newTemplate(pe.prog.Compiled.Fn, pe.bench, sizeIdx, inst)
	c.tmpl.Store(t)
	return t, nil
}
