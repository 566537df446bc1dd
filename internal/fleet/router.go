// Package fleet is the shard router in front of internal/engine: one
// engine per (platform, shard) created lazily on first touch, requests
// routed consistently by hashing (platform, tenant), per-shard
// admission control, and fleet-wide stats. It is what lets one serve
// process carry several platforms — `-platforms mc1,mc2` — with tenant
// quota state (engine.Options.SharedTenants) and the cell cache of
// per-(program, size) features, profiles and instance templates
// (engine.Options.SharedCells) shared across every shard. The cell cache
// also holds one model store per platform, so the shards of a platform
// serve, promote and roll back one model; each shard keeps its own
// program cache, registered kernels and counters.
package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/engine"
	"repro/internal/sched"
)

// Options configures a Router.
type Options struct {
	// Platforms are the served platform names, in order; the first is
	// the default for requests that name none. Must be non-empty.
	Platforms []string
	// ShardsPerPlatform splits each platform's tenants across this many
	// engines (default 1). More shards = more program cache and lock
	// isolation between tenant populations, at the cost of per-shard
	// cache warmup (shared cells and models warm once for the fleet).
	ShardsPerPlatform int
	// NewEngine builds the engine for one shard. The router calls it at
	// most once per shard at a time (failures retry on the next request
	// for that shard). It must wire SharedTenants/SharedCells/ObsLog
	// itself if the fleet is to share quota state, cells, models and the
	// observation pipeline.
	NewEngine func(platform string, shard int) (*engine.Engine, error)
	// Admission is applied per shard.
	Admission AdmissionConfig
}

// Shard is one (platform, index) serving unit: an engine plus its
// admission gate.
type Shard struct {
	Platform string
	Index    int

	eng *engine.Engine
	adm *admission
}

// Engine exposes the shard's engine.
func (s *Shard) Engine() *engine.Engine { return s.eng }

// Admit gates one request through the shard's admission control.
func (s *Shard) Admit(ctx context.Context) (Permit, error) {
	return s.adm.admit(ctx, s.Platform, s.Index)
}

// ShardStats is one shard's admission and engine counters, surfaced
// under /stats.
type ShardStats struct {
	Platform      string       `json:"platform"`
	Shard         int          `json:"shard"`
	Admitted      uint64       `json:"admitted"`
	Shed          uint64       `json:"shed"`
	QueueDepth    int64        `json:"queueDepth"`
	P99EstimateMs float64      `json:"p99EstimateMs"`
	Engine        engine.Stats `json:"engine"`
}

type shardKey struct {
	platform string
	index    int
}

// Router routes requests to lazily created shards.
type Router struct {
	opts    Options
	indexOf map[string]bool // served platforms

	shards sched.Memo[shardKey, *Shard]

	mu      sync.Mutex
	created []*Shard // for stats iteration, in creation order
}

// New validates opts and returns an empty router; no engine exists
// until the first request routes to its shard.
func New(opts Options) (*Router, error) {
	if len(opts.Platforms) == 0 {
		return nil, fmt.Errorf("fleet: no platforms")
	}
	if opts.NewEngine == nil {
		return nil, fmt.Errorf("fleet: NewEngine is required")
	}
	if opts.ShardsPerPlatform <= 0 {
		opts.ShardsPerPlatform = 1
	}
	r := &Router{opts: opts, indexOf: make(map[string]bool, len(opts.Platforms))}
	for _, p := range opts.Platforms {
		if p == "" {
			return nil, fmt.Errorf("fleet: empty platform name")
		}
		if r.indexOf[p] {
			return nil, fmt.Errorf("fleet: duplicate platform %q", p)
		}
		r.indexOf[p] = true
	}
	return r, nil
}

// Platforms returns the served platform names in configured order.
func (r *Router) Platforms() []string { return r.opts.Platforms }

// DefaultPlatform is the platform used when a request names none.
func (r *Router) DefaultPlatform() string { return r.opts.Platforms[0] }

// ShardsPerPlatform reports the configured shard fan-out.
func (r *Router) ShardsPerPlatform() int { return r.opts.ShardsPerPlatform }

// ShardFor resolves the shard serving (platform, tenant), creating its
// engine on first touch. platform "" means the default; an unserved
// platform is an error (the serving layer answers 404). Routing is
// consistent: the same pair always lands on the same shard, and
// concurrent first touches of one shard build exactly one engine
// (sched.Memo single-flight; failures retry on the next request).
func (r *Router) ShardFor(platform, tenant string) (*Shard, error) {
	if platform == "" {
		platform = r.opts.Platforms[0]
	}
	if !r.indexOf[platform] {
		return nil, fmt.Errorf("fleet: platform %q not served", platform)
	}
	idx := int(jumpHash(shardHash(platform, tenant), r.opts.ShardsPerPlatform))
	return r.shards.DoRetryable(shardKey{platform, idx}, func() (*Shard, error) {
		eng, err := r.opts.NewEngine(platform, idx)
		if err != nil {
			return nil, err
		}
		s := &Shard{Platform: platform, Index: idx, eng: eng, adm: newAdmission(r.opts.Admission)}
		r.mu.Lock()
		r.created = append(r.created, s)
		r.mu.Unlock()
		return s, nil
	})
}

// Shards snapshots the created shards sorted by (platform order,
// index).
func (r *Router) Shards() []*Shard {
	r.mu.Lock()
	out := append([]*Shard(nil), r.created...)
	r.mu.Unlock()
	order := make(map[string]int, len(r.opts.Platforms))
	for i, p := range r.opts.Platforms {
		order[p] = i
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Platform != out[j].Platform {
			return order[out[i].Platform] < order[out[j].Platform]
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// Stats snapshots every created shard's admission and engine counters.
func (r *Router) Stats() []ShardStats {
	shards := r.Shards()
	out := make([]ShardStats, 0, len(shards))
	for _, s := range shards {
		out = append(out, ShardStats{
			Platform:      s.Platform,
			Shard:         s.Index,
			Admitted:      s.adm.admitted.Load(),
			Shed:          s.adm.shed.Load(),
			QueueDepth:    s.adm.depth.Load(),
			P99EstimateMs: s.adm.p99Ms(),
			Engine:        s.eng.Stats(),
		})
	}
	return out
}

// shardHash is FNV-1a over platform NUL tenant, inlined so routing
// allocates nothing.
func shardHash(platform, tenant string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(platform); i++ {
		h ^= uint64(platform[i])
		h *= prime64
	}
	h *= prime64 // NUL separator
	for i := 0; i < len(tenant); i++ {
		h ^= uint64(tenant[i])
		h *= prime64
	}
	return h
}

// jumpHash is Lamping & Veach's jump consistent hash: maps key to a
// bucket in [0, buckets) such that growing the bucket count moves only
// ~1/buckets of the keys — adding shards later re-homes the minimum
// number of tenants.
func jumpHash(key uint64, buckets int) int32 {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int32(b)
}
